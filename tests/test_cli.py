import csv
import dataclasses
import json
import re
import shutil
import struct
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

from stealthlab import attack, cgan, cli, data, detect, errors, nn
from stealthlab.errors import (ConfigError, DependencyError, NumericError,
                               ParseError, ShapeError)
from stealthlab.rng import derive_rng

TINY_CONFIG = {
    "schema_version": 1,
    "seed": 5,
    "dataset": {"samples_per_class": 40, "separation": 0.3, "std": 0.05},
    "ids": {"epochs": 10},
    "gan": {"epochs": 4, "batch_size": 32},
    "cvae": {"epochs": 4, "batch_size": 32, "latent_dim": 8},
    "sweep": {"epsilon_grid": [0.05, 0.1], "rho_grid": [0.3],
              "n_ref_grid": [5], "eta_max": 0.0},
    "detect": {"k": 3, "max_samples_per_tag": 8, "benign_calibration": 8,
               "histogram_bins": 8, "regret": {"steps": 2}},
}

PIPELINE_COMMANDS = ["synth", "train-ids", "train-gan", "train-cvae",
                     "sweep", "detect", "report"]

ROOT = Path(__file__).resolve().parents[1]

# the default RunConfig as the manifest and the digests see it; a change here
# changes every recorded digest and the accepted config keys
DEFAULT_CONFIG = {
    "schema_version": 1, "seed": 0, "out_dir": "runs/out",
    "dataset": {"source": "synthetic", "csv_path": None,
                "train_fraction": 0.8, "samples_per_class": 600,
                "separation": 0.08, "std": 0.1},
    "ids": {"epochs": 200, "batch_size": 64, "learning_rate": 0.001},
    "gan": {"epochs": 60, "batch_size": 64, "learning_rate": 0.001,
            "lambda_cls": 1.0, "lambda_stealth": 10.0, "lambda_gan": 0.1,
            "noise_dim": 32, "out_scale": 0.1, "label_smoothing": 0.01},
    "cvae": {"epochs": 120, "batch_size": 64, "learning_rate": 0.001,
             "latent_dim": 200, "kl_weight": 0.02,
             "train_baseline_vae": True},
    "sweep": {"epsilon_grid": [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07,
                               0.08, 0.09, 0.1],
              "rho_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
              "n_ref_grid": [5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60],
              "eta_max": 0.8},
    "detect": {"k": 50, "label_mode": "ids", "max_samples_per_tag": 192,
               "benign_calibration": 64, "shrinkage": 0.1,
               "histogram_bins": 40,
               "regret": {"steps": 100, "learning_rate": 0.05}},
}

DEFAULT_STAGE_DIGESTS = {
    "data": "88da87c9a3e9c5b8a7ab2133658e05b4188039380e5b7c0bcdd2547897b2997d",
    "ids": "23cf002debb2af0be649a67e0fc89a7d067e23d53d2714d13b6ce7c6f2e7afe0",
    "gan": "0edef37be1451bee74e4aa51a823e12679522f1758b0f3cce69cb8ee32030261",
    "cvae": "d21c9fc5c6d61ffd3b0ea2bad1445bbda5f455681a70a617880ecf3a1d20185b",
    "sweep":
        "dd1068f06a31128abd9a3fac5308fe1e35c587bab051fa911bf3caf7d3457c24",
    "detect":
        "11c0341ef0a07a24ecdc7fd314c252707fc2d2385253fb1f502eae9b8cc9cee5",
    "report":
        "11c0341ef0a07a24ecdc7fd314c252707fc2d2385253fb1f502eae9b8cc9cee5",
}


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def write_csv(tmp_path, counts):
    """A telemetry CSV with counts[c] rows of class c."""
    ds = data.synth_generate(data.DatasetConfig(
        samples_per_class=max(counts), separation=0.3, std=0.05), 3)
    rows = np.concatenate([ds.class_rows(c)[:n] for c, n in enumerate(counts)])
    path = tmp_path / "telemetry.csv"
    data.save_csv(path, ds.subset(rows))
    return path


def csv_config(tmp_path, csv_path):
    """TINY_CONFIG reading `csv_path` instead of generating data."""
    return write_config(tmp_path / "csv.json", dict(
        TINY_CONFIG, dataset={"source": "csv", "csv_path": str(csv_path)}))


def run_pipeline(config_path, out_dir):
    for command in PIPELINE_COMMANDS:
        rc = cli.main([command, "--config", config_path, "--out",
                       str(out_dir)])
        assert rc == 0, f"'{command}' failed"
    with open(out_dir / cli.MANIFEST_NAME, encoding="utf-8") as fh:
        return json.load(fh)


def cut_class_names(models):
    """ids.json naming one class fewer than the vocabulary."""
    meta_path = models / "ids.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["class_names"] = meta["class_names"][:4]
    meta_path.write_text(json.dumps(meta), encoding="utf-8")


def swap_in_disc_weights(models):
    """ids.weights replaced by a discriminator's 30 -> 1 net."""
    nn.save_mlp(models / "ids.weights",
                cgan.build_discriminator(derive_rng(5, "disc")))


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "run.json"
    return write_config(path, TINY_CONFIG)


@pytest.fixture(scope="module")
def pipeline(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_a")
    return {"out": out, "manifest": run_pipeline(tiny_config, out)}


@pytest.fixture(scope="module")
def pipeline_twin(tiny_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("run_b")
    return {"out": out, "manifest": run_pipeline(tiny_config, out)}


class TestConfigParsing:
    def test_defaults_round_trip(self):
        config = cli.parse_config({"schema_version": 1})
        assert config.seed == 0
        assert config.dataset.source == "synthetic"
        assert config.detect.regret.steps == 100

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'lamda'"):
            cli.parse_config({"schema_version": 1, "lamda": 3})

    def test_non_finite_value_names_the_key(self):
        with pytest.raises(ConfigError,
                           match="'sweep.rho_grid' must be finite, got "
                                 r"\[0.2, NaN\]"):
            cli.parse_config({"schema_version": 1,
                              "sweep": {"rho_grid": [0.2, float("nan")]}})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="gan.lambda_styl"):
            cli.parse_config({"schema_version": 1,
                              "gan": {"lambda_styl": 2.0}})

    def test_schema_version_required_and_checked(self):
        with pytest.raises(ConfigError, match="schema_version"):
            cli.parse_config({"seed": 1})
        with pytest.raises(ConfigError, match="unsupported"):
            cli.parse_config({"schema_version": 99})

    def test_section_invariants_enforced(self):
        with pytest.raises(ConfigError):
            cli.parse_config({"schema_version": 1,
                              "dataset": {"train_fraction": 2.0}})
        with pytest.raises(ConfigError):
            cli.parse_config({"schema_version": 1,
                              "sweep": {"epsilon_grid": []}})
        with pytest.raises(ConfigError):
            cli.parse_config({"schema_version": 1, "detect": {"k": 0}})

    def test_cli_overrides_apply(self, tmp_path):
        path = write_config(tmp_path / "c.json", {"schema_version": 1})
        config = cli.load_config(path, out_override="elsewhere",
                                 seed_override=7)
        assert config.out_dir == "elsewhere"
        assert config.seed == 7

    def test_default_schema_and_digests_are_pinned(self):
        config = cli.RunConfig()
        assert dataclasses.asdict(config) == DEFAULT_CONFIG
        assert cli.config_digest(config) == (
            "63095195629dbe330d80a0bc68f202515eb260f851489444dbc86e20201a6b45")
        assert {stage: cli.stage_digest(config, stage)
                for stage in cli.STAGES} == DEFAULT_STAGE_DIGESTS

    def test_every_section_is_a_library_config(self):
        # one config type per concept: the run config gathers the library
        # configs and cli defines none of its own
        hints = typing.get_type_hints(cli.RunConfig)
        sections = {name: hint for name, hint in hints.items()
                    if dataclasses.is_dataclass(hint)}
        assert list(sections) == ["dataset", "ids", "gan", "cvae", "sweep",
                                  "detect"]
        for name, hint in sections.items():
            assert hint.__module__.startswith("stealthlab."), name
            assert hint.__module__ != cli.__name__, name

    def test_benchmark_workload_sections_parse(self):
        # a subprocess, so the BLAS variables run.py sets stay out of this one
        script = (
            "import runpy, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from stealthlab import cli\n"
            f"bench = runpy.run_path({str(ROOT / 'perfbench' / 'run.py')!r})\n"
            "for name in bench['WORKLOADS']:\n"
            "    for tiny in (False, True):\n"
            "        sections = bench['workload_sections'](name, tiny)\n"
            "        cli.parse_config({'schema_version': 1, **sections})\n"
            "print(len(bench['WORKLOADS']))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 3

    def test_readme_config_examples_parse(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        examples = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert len(examples) == 2       # the minimal one and the CSV one
        for example in examples:
            cli.parse_config(json.loads(example))

    def test_digest_ignores_out_dir_but_not_seed(self):
        base = cli.RunConfig()
        moved = cli.RunConfig(out_dir="somewhere/else")
        reseeded = cli.RunConfig(seed=1)
        assert cli.config_digest(base) == cli.config_digest(moved)
        assert cli.config_digest(base) != cli.config_digest(reseeded)


# each error class cli.main maps, its exit code and its stderr prefix
EXIT_CODES = [
    pytest.param(ConfigError, 2, "config error", id="ConfigError"),
    pytest.param(DependencyError, 3, "dependency error", id="DependencyError"),
    pytest.param(NumericError, 4, "numeric error", id="NumericError"),
    pytest.param(ParseError, 5, "i/o error", id="ParseError"),
    pytest.param(OSError, 5, "i/o error", id="OSError"),
]


class TestExitCodes:
    @pytest.mark.parametrize("error, code, prefix", EXIT_CODES)
    def test_error_class_maps_to_its_exit_code(self, tmp_path, capsys,
                                               monkeypatch, error, code,
                                               prefix):
        def fail(*args):
            raise error("injected")

        monkeypatch.setattr(cli, "run_stage", fail)
        assert cli.main(["synth", "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"{prefix}: injected\n"

    def test_every_error_class_has_an_exit_code(self):
        # ShapeError marks a caller's bug and has none
        defined = {value for value in vars(errors).values()
                   if isinstance(value, type)
                   and value.__module__ == errors.__name__}
        mapped = {case.values[0] for case in EXIT_CODES}
        assert defined == mapped - {OSError} | {ShapeError}

    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json",
                            {"schema_version": 1, "whoops": True})
        rc = cli.main(["synth", "--config", path, "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    # explicit ids: no case is renamed when another is added
    @pytest.mark.parametrize("section, key, value", [
        pytest.param("dataset", "samples_per_class", 0,
                     id="dataset-samples_per_class-0"),
        pytest.param("dataset", "separation", 0.0,
                     id="dataset-separation-0.0"),
        pytest.param("dataset", "std", -0.1, id="dataset-std--0.1"),
        pytest.param("sweep", "epsilon_grid", [0.05, 0.0],
                     id="sweep-epsilon_grid-value3"),
        pytest.param("sweep", "rho_grid", [-0.2], id="sweep-rho_grid-value4"),
        pytest.param("sweep", "n_ref_grid", [5, -1],
                     id="sweep-n_ref_grid-value5"),
        pytest.param("detect", "shrinkage", 1.5, id="detect-shrinkage-1.5"),
        pytest.param("detect", "shrinkage", -0.1, id="detect-shrinkage--0.1"),
        pytest.param("detect", "histogram_bins", 1,
                     id="detect-histogram_bins-1"),
        pytest.param("ids", "epochs", -1, id="ids-epochs--1"),
        pytest.param("gan", "label_smoothing", 0.7,
                     id="gan-label_smoothing-0.7"),
        pytest.param("cvae", "kl_weight", -1.0, id="cvae-kl_weight--1.0"),
        pytest.param("detect", "regret", {"steps": 0},
                     id="detect-regret-value12"),
        # values of the wrong type; section None is a top-level key
        pytest.param(None, "seed", "abc", id="None-seed-abc"),
        pytest.param(None, "seed", 1.5, id="None-seed-1.5"),
        pytest.param(None, "seed", True, id="None-seed-True"),
        pytest.param(None, "schema_version", True,
                     id="None-schema_version-True"),
        pytest.param("dataset", "samples_per_class", 10.5,
                     id="dataset-samples_per_class-10.5"),
        pytest.param("dataset", "csv_path", 3, id="dataset-csv_path-3"),
        pytest.param("ids", "epochs", 2.5, id="ids-epochs-2.5"),
        pytest.param("cvae", "train_baseline_vae", 1,
                     id="cvae-train_baseline_vae-1"),
        pytest.param("sweep", "n_ref_grid", [5.5],
                     id="sweep-n_ref_grid-value21"),
        pytest.param("sweep", "epsilon_grid", [0.05, True],
                     id="sweep-epsilon_grid-value22"),
        pytest.param("sweep", "eta_max", "0.5", id="sweep-eta_max-0.5"),
        pytest.param("detect", "k", 2.5, id="detect-k-2.5"),
        # JSON's NaN and Infinity, read by Python's json module
        pytest.param("dataset", "std", float("inf"), id="dataset-std-inf"),
        pytest.param("dataset", "separation", float("nan"),
                     id="dataset-separation-nan"),
        pytest.param("cvae", "learning_rate", float("nan"),
                     id="cvae-learning_rate-nan"),
        pytest.param("sweep", "epsilon_grid", [0.05, float("inf")],
                     id="sweep-epsilon_grid-value28"),
        pytest.param("detect", "regret", {"learning_rate": float("inf")},
                     id="detect-regret-value29"),
        # values only the config reader checks
        pytest.param("detect", "label_mode", "argmax",
                     id="detect-label_mode-argmax"),
        pytest.param("detect", "k", 0, id="detect-k-0"),
        pytest.param("dataset", "train_fraction", 1.0,
                     id="dataset-train_fraction-1.0"),
        # a smoothed target entry that is not a normal float
        pytest.param("gan", "label_smoothing", 1e-310,
                     id="gan-label_smoothing-1e-310"),
    ])
    def test_value_a_stage_would_reject_is_2(self, tmp_path, capsys, section,
                                             key, value):
        entry = {key: value} if section is None else {section: {key: value}}
        path = write_config(tmp_path / "bad.json",
                            {"schema_version": 1, **entry})
        out = tmp_path / "out"
        rc = cli.main(["synth", "--config", path, "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = cli.main(["synth", "--config", str(path), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err
        # json.load alone would keep the last value and run with seed 2
        path.write_text('{"schema_version": 1, "seed": 1, "seed": 2}')
        out = tmp_path / "out"
        rc = cli.main(["synth", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "repeated key 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_not_utf8_is_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema_version": 1}\xff')
        rc = cli.main(["synth", "--config", str(path), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_dependency_is_3(self, tmp_path, capsys):
        rc = cli.main(["train-gan", "--out", str(tmp_path / "fresh")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "dependency error" in err
        assert "synth (or ingest)" in err

    def test_gan_without_ids_names_the_stage(self, tiny_config, tmp_path,
                                             capsys):
        out = tmp_path / "dataonly"
        assert cli.main(["synth", "--config", tiny_config, "--out",
                         str(out)]) == 0
        rc = cli.main(["train-gan", "--config", tiny_config, "--out",
                       str(out)])
        assert rc == 3
        assert "train-ids" in capsys.readouterr().err

    def test_numeric_failure_is_4(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "diverge"
        for command in ("synth", "train-ids"):
            assert cli.main([command, "--config", tiny_config, "--out",
                             str(out)]) == 0
        hot = dict(TINY_CONFIG)
        hot["gan"] = dict(TINY_CONFIG["gan"], epochs=2, lambda_stealth=1e9)
        path = write_config(tmp_path / "hot.json", hot)
        rc = cli.main(["train-gan", "--config", path, "--out", str(out)])
        assert rc == 4
        assert "numeric error" in capsys.readouterr().err

    def test_non_finite_generator_in_the_sweep_is_4(self, pipeline,
                                                    tiny_config, tmp_path,
                                                    capsys):
        # TINY_CONFIG's two epsilons put one trajectory on each sweep lane
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        gen = cgan.load_generator(out / "models")
        gen.net.layers[0].bias[0] = np.nan
        cgan.save_generator(gen, out / "models")
        rc = cli.main(["sweep", "--stage-only", "--config", tiny_config,
                       "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numeric error: forward pass produced non-finite values" in err

    def test_gan_trains_with_the_smallest_smoothings(self, tiny_config,
                                                      tmp_path, capsys):
        # a smoothed target far below PROB_CLAMP keeps a finite KL
        out = tmp_path / "smooth"
        for command in ("synth", "train-ids"):
            assert cli.main([command, "--config", tiny_config, "--out",
                             str(out)]) == 0
        for smoothing in (1e-8, 5 * np.finfo(float).tiny):
            sharp = dict(TINY_CONFIG)
            sharp["gan"] = dict(TINY_CONFIG["gan"], label_smoothing=smoothing)
            path = write_config(tmp_path / "sharp.json", sharp)
            rc = cli.main(["train-gan", "--config", path, "--out", str(out)])
            assert rc == 0, capsys.readouterr().err

    def test_numeric_failure_names_the_tag(self, pipeline, tiny_config,
                                           tmp_path, capsys, monkeypatch):
        # each detector in turn fails on its second population, the OOD rows
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        for name in ("score_nll", "score_mahalanobis", "score_regret"):
            real, calls = getattr(detect, name), []

            def fail_on_ood(*args, real=real, calls=calls, **kwargs):
                calls.append(name)
                if len(calls) == 2:
                    raise NumericError("injected failure")
                return real(*args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(detect, name, fail_on_ood)
                rc = cli.main(["detect", "--config", tiny_config, "--out",
                               str(out)])
            assert rc == 4, name
            err = capsys.readouterr().err
            assert "numeric error" in err and "tag 'ood'" in err, name

    def test_io_error_is_5(self, tmp_path, capsys):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("a,b,label\n1,2,benign\n")
        path = write_config(tmp_path / "csv.json", {
            "schema_version": 1,
            "dataset": {"source": "csv", "csv_path": str(bad_csv)}})
        rc = cli.main(["ingest", "--config", path, "--out",
                       str(tmp_path / "out")])
        assert rc == 5
        assert "i/o error" in capsys.readouterr().err

    def test_nan_csv_cell_is_5(self, tmp_path, capsys):
        ds = data.synth_generate(data.DatasetConfig(
            samples_per_class=10, separation=0.3, std=0.05), 3)
        ds.features[4, 2] = np.nan
        csv_path = tmp_path / "telemetry.csv"
        data.save_csv(csv_path, ds)
        path = write_config(tmp_path / "csv.json", {
            "schema_version": 1,
            "dataset": {"source": "csv", "csv_path": str(csv_path)}})
        rc = cli.main(["ingest", "--config", path, "--out",
                       str(tmp_path / "out")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert "row 6, column 'f02': non-finite value nan" in err

    @pytest.mark.parametrize("text", [
        '{"stages": {"data": {"art', "[]", "\udcff",
        '{"stages": {"data": {"stage_digest": "x"}}, "timings": {}}',
        '{"stages": {"data": {"artifacts": {}}}, "timings": {}}',
        '{"stages": {"data": "x"}, "timings": {}}',
    ], ids=["truncated", "not-a-record", "bad-utf8", "entry-without-artifacts",
            "entry-without-digest", "entry-not-a-record"])
    def test_corrupt_manifest_is_5(self, tiny_config, tmp_path, capsys,
                                   text):
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", tiny_config, "--out",
                         str(out)]) == 0
        manifest = out / cli.MANIFEST_NAME
        manifest.write_bytes(text.encode("utf-8", "surrogateescape"))
        rc = cli.main(["train-ids", "--config", tiny_config, "--out",
                       str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert str(manifest) in err
        assert "corrupt manifest" in err and "rerun" in err

    def test_class_too_small_to_split_is_5(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path, counts=(10, 10, 10, 10, 3))
        rc = cli.main(["ingest", "--config", csv_config(tmp_path, csv_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err and "class 'fdi' has 3 samples" in err

    @pytest.mark.parametrize("counts, missing", [
        ((0, 10, 10, 10, 10), "benign"), ((10, 0, 0, 0, 0), "attack")])
    def test_gan_without_benign_or_attack_rows_is_5(self, tmp_path, capsys,
                                                    counts, missing):
        csv_path = write_csv(tmp_path, counts)
        config = csv_config(tmp_path, csv_path)
        out = str(tmp_path / "out")
        for command in ("ingest", "train-ids"):
            assert cli.main([command, "--config", config, "--out", out]) == 0
        rc = cli.main(["train-gan", "--config", config, "--out", out])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err and f"no {missing} rows" in err

    def test_class_missing_from_the_csv_is_5_at_detect(self, tmp_path,
                                                       capsys):
        csv_path = write_csv(tmp_path, counts=(10, 10, 10, 10, 0))
        config = csv_config(tmp_path, csv_path)
        out = str(tmp_path / "out")
        for command in ("ingest", "train-ids", "train-gan", "train-cvae",
                        "sweep"):
            assert cli.main([command, "--config", config, "--out", out]) == 0
        rc = cli.main(["detect", "--config", config, "--out", out])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err and "class 'fdi' has 0 training rows" in err

    @pytest.mark.parametrize("sidecar, text, command, message", [
        ("models/ids.json", "{}", "detect", "missing key 'class_names'"),
        ("models/cvae.json", "latent_dim: 8", "detect", "not valid JSON"),
        ("sweep/selection.json", "[]", "detect", "expected a JSON object"),
        ("models/gen.json", '{"noise_dim": "x", "out_scale": 0.1}', "detect",
         "'noise_dim' must be of type int, got \"x\""),
        ("detect/detect_meta.json", '{"k": 3}', "report",
         "missing key 'operating_point'"),
        ("detect/detect_meta.json", '{"k": 3, "k": 50}', "report",
         "repeated key 'k'"),
    ], ids=["ids-empty", "cvae-not-json", "selection-array", "gen-mistyped",
            "detect-meta-partial", "detect-meta-repeated-key"])
    def test_corrupt_sidecar_is_5(self, pipeline, tiny_config, tmp_path,
                                  capsys, sidecar, text, command, message):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        (out / sidecar).write_text(text, encoding="utf-8")
        rc = cli.main([command, "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert str(out / sidecar) in err and message in err

    @pytest.mark.parametrize("key, value, message", [
        ("n_ref", -1, "'n_ref' must be >= 0, got -1"),
        ("epsilon", 0.0, "'epsilon' must be finite and > 0, got 0.0"),
        ("rho", -0.5, "'rho' must be finite and > 0, got -0.5"),
        ("epsilon", float("nan"), "'epsilon' must be finite and > 0, got NaN"),
        ("rho", float("inf"), "'rho' must be finite and > 0, got Infinity"),
        ("epsilon", float("-inf"),
         "'epsilon' must be finite and > 0, got -Infinity"),
    ], ids=["n_ref-negative", "epsilon-zero", "rho-negative", "epsilon-nan",
            "rho-inf", "epsilon-minus-inf"])
    def test_selected_point_out_of_range_is_5(self, pipeline, tiny_config,
                                              tmp_path, capsys, key, value,
                                              message):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / "sweep" / "selection.json"
        selection = json.loads(path.read_text(encoding="utf-8"))
        selection["selected"][key] = value
        path.write_text(json.dumps(selection), encoding="utf-8")
        rc = cli.main(["detect", "--stage-only", "--config", tiny_config,
                       "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{path}: 'selected': {message}" in err

    @pytest.mark.parametrize("key, value, message", [
        ("regret_orientation", 7, "'regret_orientation' must be -1 or 1, "
                                  "got 7"),
        ("regret_orientation", 0, "'regret_orientation' must be -1 or 1, "
                                  "got 0"),
        ("label_mode", "argmax", "label_mode must be 'ids' or 'min'"),
        ("k", -3, "k must be >= 1"),
        ("k", 0, "k must be >= 1"),
    ], ids=["orientation-7", "orientation-0", "label-mode-argmax", "k-minus-3",
            "k-zero"])
    def test_detect_meta_out_of_range_is_5(self, pipeline, tiny_config,
                                           tmp_path, capsys, key, value,
                                           message):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / "detect" / "detect_meta.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta[key] = value
        path.write_text(json.dumps(meta), encoding="utf-8")
        rc = cli.main(["report", "--stage-only", "--config", tiny_config,
                       "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{path}: {message}" in err

    @pytest.mark.parametrize("key, value", [
        ("conditional", False), ("latent_dim", 5), ("n_classes", 3)])
    def test_cvae_meta_that_disagrees_with_the_weights_is_5(
            self, pipeline, tiny_config, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        meta_path = out / "models" / "cvae.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta[key] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        rc = cli.main(["detect", "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert (f"{meta_path}: '{key}' does not match the encoder and "
                f"decoder weight files") in err

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["sample_id,tag,detector,value"] + lines[1:],
         "header ['sample_id', 'tag', 'detector', 'value'] is not"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",abc"]
         + lines[4:], "row 4: non-numeric score 'abc'"),
        (lambda lines: lines[:3] + [lines[3].rsplit(",", 1)[0] + ",inf"]
         + lines[4:], "row 4: non-finite score inf"),
        (lambda lines: lines[:3] + [lines[3].replace(",adversarial,",
                                                     ",adversarail,")]
         + lines[4:], "row 4: unknown tag 'adversarail'"),
        (lambda lines: lines[:3] + [lines[3].replace(",nll,", ",nlll,")]
         + lines[4:], "row 4: unknown detector 'nlll'"),
        (lambda lines: lines[:3] + ["abc," + lines[3].split(",", 1)[1]]
         + lines[4:], "row 4: sample_id 'abc' is not a non-negative integer"),
        (lambda lines: lines[:4] + [lines[3]] + lines[4:],
         "row 5 repeats the sample_id, tag and detector of row 4"),
    ], ids=["header", "non-numeric", "non-finite", "unknown-tag",
            "unknown-detector", "sample-id", "repeated-row"])
    def test_corrupt_scores_csv_is_5(self, pipeline, tiny_config, tmp_path,
                                     capsys, edit, message):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        scores = out / "detect" / "scores.csv"
        lines = scores.read_text(encoding="utf-8").splitlines()
        scores.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        rc = cli.main(["report", "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{scores}: {message}" in err

    def test_blank_row_in_scores_csv_is_skipped(self, pipeline, tiny_config,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        scores = out / "detect" / "scores.csv"
        lines = scores.read_text(encoding="utf-8").splitlines()
        lines[3:3] = [""]
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["report", "--config", tiny_config, "--out",
                         str(out)]) == 0
        summaries = [json.loads((run / "report" / "summary.json").read_text(
            encoding="utf-8")) for run in (pipeline["out"], out)]
        assert summaries[0]["auc"] == summaries[1]["auc"]
        # a bad row after the blank one is named by its row in the file
        lines[5] = lines[5].rsplit(",", 1)[0] + ",abc"
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["report", "--config", tiny_config, "--out",
                         str(out)]) == 5
        assert (f"{scores}: row 6: non-numeric score 'abc'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name, damage, command", [
        ("data/test.csv", lambda raw: raw + b"\xff\xfe", "sweep"),
        ("detect/scores.csv",
         lambda raw: raw.rstrip(b"\n").rsplit(b",", 1)[0] + b",\xff\n",
         "report"),
    ], ids=["test-csv", "scores-csv"])
    def test_non_utf8_data_file_is_5(self, pipeline, tiny_config, tmp_path,
                                     capsys, name, damage, command):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / name
        path.write_bytes(damage(path.read_bytes()))
        rc = cli.main([command, "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{path}: not valid UTF-8" in err

    def test_cell_over_the_csv_field_limit_is_5(self, pipeline, tiny_config,
                                                tmp_path, capsys):
        # the csv module refuses a cell of more than 131,072 characters;
        # ingest and report read their CSVs through the same reader
        huge = "1" * 131_073
        csv_path = write_csv(tmp_path, counts=(10, 10, 10, 10, 10))
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[3] = huge + lines[3]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        scores = out / "detect" / "scores.csv"
        lines = scores.read_text(encoding="utf-8").splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + huge
        scores.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for command, config, run, path, row in (
                ("ingest", csv_config(tmp_path, csv_path), tmp_path / "new",
                 csv_path, 4),
                ("report", tiny_config, out, scores, 6)):
            rc = cli.main([command, "--config", config, "--out", str(run)])
            assert rc == 5, command
            err = capsys.readouterr().err
            assert "i/o error" in err
            assert (f"{path}: row {row}: field larger than field limit "
                    f"(131072)") in err

    @pytest.mark.parametrize("noise_dim", [7, 33])
    def test_gen_meta_that_disagrees_with_the_weights_is_5(
            self, pipeline, tiny_config, tmp_path, capsys, noise_dim):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        meta_path = out / "models" / "gen.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["noise_dim"] = noise_dim
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                       "--stage-only"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{meta_path}: 'noise_dim' does not match" in err

    @pytest.mark.parametrize("value, shown", [
        (-0.1, "-0.1"), (0.0, "0.0"), (float("nan"), "NaN"),
        (float("inf"), "Infinity"), (float("-inf"), "-Infinity"),
    ], ids=["negative", "zero", "nan", "inf", "minus-inf"])
    def test_gen_meta_out_scale_out_of_range_is_5(
            self, pipeline, tiny_config, tmp_path, capsys, value, shown):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        meta_path = out / "models" / "gen.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["out_scale"] = value
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out),
                       "--stage-only"])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert (f"{meta_path}: 'out_scale' must be finite and > 0, "
                f"got {shown}") in err

    @pytest.mark.parametrize("shapes, message", [
        ([(34, 2, "relu"), (4, 30, "tanh")],
         "layer dims do not chain: 2 -> 4"),
        ([], "need at least one layer"),
    ], ids=["unchained-layers", "no-layers"])
    def test_gen_weights_that_make_no_net_are_5(
            self, pipeline, tiny_config, tmp_path, capsys, shapes, message):
        # a header of these layer shapes, and zeroed blocks of its size
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        path = out / "models" / "gen.weights"
        blob = nn.WEIGHT_MAGIC + struct.pack(
            "<II", nn.WEIGHT_FORMAT_VERSION, len(shapes))
        for fan_in, fan_out, tag in shapes:
            blob += struct.pack("<II", fan_in, fan_out) + tag.encode().ljust(
                8, b"\x00")
        blob += bytes(sum((fan_in + 1) * fan_out * 8
                          for fan_in, fan_out, _ in shapes))
        path.write_bytes(blob)
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{path}: {message}" in err

    @pytest.mark.parametrize("command", ["train-gan", "sweep", "detect"])
    @pytest.mark.parametrize("damage, name, message", [
        (cut_class_names, "ids.json", "'class_names' ['benign', 'deauth', "
         "'replay', 'eviltwin'] are not the class vocabulary"),
        (swap_in_disc_weights, "ids.weights",
         "the net maps 30 inputs to 1 outputs, not 30 features to 5 classes"),
    ], ids=["class-names-cut", "disc-weights"])
    def test_ids_artifact_that_disagrees_with_the_vocabulary_is_5(
            self, pipeline, tiny_config, tmp_path, capsys, damage, name,
            message, command):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        damage(out / "models")
        rc = cli.main([command, "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"{out / 'models' / name}: {message}" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_regret_refit_diverging_is_4(self, pipeline, tmp_path,
                                               capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        hot = dict(TINY_CONFIG, detect=dict(
            TINY_CONFIG["detect"], regret={"steps": 2, "learning_rate": 1e300}))
        path = write_config(tmp_path / "hot.json", hot)
        rc = cli.main(["detect", "--config", path, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "numeric error" in err
        assert "tag 'adversarial': every regret refit diverged" in err

    @pytest.mark.parametrize("tag", ["adversarial", "ood"])
    def test_scores_csv_missing_a_population_is_3(self, pipeline, tiny_config,
                                                  tmp_path, capsys, tag):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        scores = out / "detect" / "scores.csv"
        lines = scores.read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if f",{tag},nll," not in line]
        assert len(kept) < len(lines)
        scores.write_text("\n".join(kept) + "\n", encoding="utf-8")
        rc = cli.main(["report", "--config", tiny_config, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "dependency error" in err
        assert (f"scores.csv has no '{tag}' rows for detector 'nll'; rerun "
                f"'detect'") in err

    @pytest.mark.parametrize("keep, missing", [
        (lambda labels: labels == 0, "attack"),
        (lambda labels: labels > 0, "benign")],
        ids=["no-attack", "no-benign"])
    def test_sweep_without_attack_or_benign_test_rows_is_5(
            self, pipeline, tiny_config, tmp_path, capsys, keep, missing):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        test_csv = out / "data" / "test.csv"
        test = data.load_csv(test_csv)
        data.save_csv(test_csv, test.subset(np.flatnonzero(keep(test.labels))))
        rc = cli.main(["sweep", "--config", tiny_config, "--out", str(out)])
        assert rc == 5
        err = capsys.readouterr().err
        assert "i/o error" in err
        assert f"test split has no {missing} rows" in err

    def test_missing_csv_file_is_5(self, tmp_path, capsys):
        path = write_config(tmp_path / "csv.json", {
            "schema_version": 1,
            "dataset": {"source": "csv",
                        "csv_path": str(tmp_path / "nope.csv")}})
        rc = cli.main(["ingest", "--config", path, "--out",
                       str(tmp_path / "out")])
        assert rc == 5

    def test_source_command_mismatch_is_2(self, tmp_path, capsys):
        rc = cli.main(["ingest", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "ingest requires" in capsys.readouterr().err
        path = write_config(tmp_path / "csv.json", {
            "schema_version": 1,
            "dataset": {"source": "csv", "csv_path": "x.csv"}})
        rc = cli.main(["synth", "--config", path, "--out",
                       str(tmp_path / "out")])
        assert rc == 2


class TestBenchmarkHarness:
    def test_names_the_benchmark_reaches_by_name_resolve(self):
        # perfbench wraps methods and functions named in spantrace's METHODS
        # and INFO and rebinds selftest's REBOUND; a refactor that drops one
        # fails here, not only in the benchmark
        bench = ROOT / "perfbench"
        script = (
            "import functools, runpy, sys\n"
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(bench)!r}]\n"
            "import stealthlab, stealthlab.cli\n"
            f"trace = runpy.run_path({str(bench / 'spantrace.py')!r})\n"
            f"selftest = runpy.run_path({str(bench / 'selftest.py')!r})\n"
            "names = [f'{m}.{c}.{a}' for (m, c), attrs in "
            "trace['METHODS'].items() for a in attrs] + list(trace['INFO'])\n"
            "for name in names:\n"
            "    functools.reduce(getattr, name.split('.'), stealthlab)\n"
            "selftest['check_rebinding']()\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("workload", [
        w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))["workloads"]])
    def test_traced_tiny_run_is_correct(self, workload):
        # the tracer reads detector arguments by position and results by
        # attribute (spantrace.INFO); a reader that raises fails the stage
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", "0", "--seconds", "1",
             "--trace", "1", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        assert lines, proc.stderr
        assert json.loads(lines[-1])["correct"] is True, proc.stderr


class TestManifest:
    @pytest.mark.parametrize("target", ["manifest", "scaler", "weights",
                                        "csv"])
    def test_failed_write_keeps_the_previous_file(self, tiny_config, tmp_path,
                                                  monkeypatch, target):
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", tiny_config, "--out",
                         str(out)]) == 0
        path = {"manifest": out / cli.MANIFEST_NAME,
                "scaler": out / "data" / "scaler.json",
                "weights": tmp_path / "net.weights",
                "csv": out / "data" / "train.csv"}[target]
        if target == "weights":
            nn.save_mlp(path, nn.build_mlp([3, 2], ["linear"],
                                           np.random.default_rng(0)))
        before = path.read_bytes()
        files = sorted(tmp_path.rglob("*"))
        other_net = nn.build_mlp([3, 2], ["linear"], np.random.default_rng(1))
        other_rows = data.synth_generate(
            data.DatasetConfig(samples_per_class=2), 1)

        def dump_then_fail(payload, fh, **kwargs):
            fh.write('{"stages": {"ids": ')
            raise OSError("disk full")

        def pack_fails(*args):
            raise OSError("disk full")

        class WriterThatFails:
            def __init__(self, fh, lineterminator):
                self.fh = fh

            def writerow(self, row):
                self.fh.write(",".join(str(cell) for cell in row)[:7])
                raise OSError("disk full")

        manifest = cli.Manifest(out)
        monkeypatch.setattr(cli.json, "dump", dump_then_fail)
        monkeypatch.setattr(nn, "struct", types.SimpleNamespace(
            pack=pack_fails))
        monkeypatch.setattr(data, "csv", types.SimpleNamespace(
            writer=WriterThatFails))
        with pytest.raises(OSError, match="disk full"):
            if target == "manifest":
                manifest.record("ids", "0" * 64, [], {}, 1.0, out)
            elif target == "scaler":
                data.save_scaler(path, data.ScalerParams(["f00"], [0.0],
                                                         [1.0]))
            elif target == "weights":
                nn.save_mlp(path, other_net)
            else:
                data.save_csv(path, other_rows)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(tmp_path.rglob("*")) == files
        assert list(cli.Manifest(out).payload["stages"]) == ["data"]
        assert sorted(p.name for p in out.iterdir()) == ["data",
                                                         cli.MANIFEST_NAME]
        assert sorted(p.name for p in (out / "data").iterdir()) == [
            "scaler.json", "test.csv", "train.csv"]


class TestCommandSurface:
    def test_module_entry_lists_all_subcommands(self):
        proc = subprocess.run([sys.executable, "-m", "stealthlab", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for command in ["ingest", "synth", "train-ids", "train-gan",
                        "train-cvae", "sweep", "detect", "report"]:
            assert command in proc.stdout

    def test_success_prints_stage_summary(self, tiny_config, tmp_path,
                                          capsys):
        rc = cli.main(["synth", "--config", tiny_config, "--out",
                       str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().out.startswith("[synth] done:")


class TestIngest:
    def test_real_csv_round_trip(self, tmp_path):
        ds = data.synth_generate(data.DatasetConfig(
            samples_per_class=10, separation=0.3, std=0.05), 3)
        csv_path = tmp_path / "telemetry.csv"
        data.save_csv(csv_path, ds)
        config = write_config(tmp_path / "cfg.json", {
            "schema_version": 1,
            "dataset": {"source": "csv", "csv_path": str(csv_path)}})
        out = tmp_path / "out"
        assert cli.main(["ingest", "--config", config, "--out",
                         str(out)]) == 0
        with open(out / cli.MANIFEST_NAME, encoding="utf-8") as fh:
            manifest = json.load(fh)
        meta = manifest["stages"]["data"]["meta"]
        assert meta["source"] == "csv"
        assert meta["n_samples"] == 50
        for rel in ("data/train.csv", "data/test.csv", "data/scaler.json"):
            assert (out / rel).exists()


class TestPipelineArtifacts:
    def test_all_stages_recorded_with_hashes(self, pipeline):
        manifest = pipeline["manifest"]
        stages = ["data", "ids", "gan", "cvae", "sweep", "detect", "report"]
        assert sorted(manifest["stages"]) == sorted(stages)
        for stage in stages:
            entry = manifest["stages"][stage]
            assert entry["artifacts"], f"stage '{stage}' wrote nothing"
            for rel, digest in entry["artifacts"].items():
                assert (pipeline["out"] / rel).exists()
                assert len(digest) == 64
            assert manifest["timings"][stage] >= 0.0

    def test_synth_writes_scaled_five_class_split(self, pipeline):
        train = data.load_csv(pipeline["out"] / "data" / "train.csv")
        assert sorted(set(train.labels.tolist())) == [0, 1, 2, 3, 4]
        assert train.features.min() >= 0.0
        assert train.features.max() <= 1.0

    def test_gan_stage_records_the_generator_and_its_curve(self, pipeline):
        # the discriminator only trains the generator; nothing saves it
        assert sorted(pipeline["manifest"]["stages"]["gan"]["artifacts"]) == [
            "curves/gan_curve.csv", "models/gen.json", "models/gen.weights"]
        assert not (pipeline["out"] / "models" / "disc.weights").exists()

    def test_cvae_stage_trains_plain_vae_baseline(self, pipeline):
        meta = pipeline["manifest"]["stages"]["cvae"]["meta"]
        assert "cvae" in meta and "vae" in meta
        assert (pipeline["out"] / "models" / "vae_encoder.weights").exists()
        assert (pipeline["out"] / "curves" / "vae_curve.csv").exists()

    def test_selection_echoes_the_success_constraint(self, pipeline):
        with open(pipeline["out"] / "sweep" / "selection.json",
                  encoding="utf-8") as fh:
            selection = json.load(fh)
        assert selection["feasible"] is True
        assert selection["selected"]["succ_adv"] >= selection["eta_max"]

    def test_summary_lists_exactly_three_detectors(self, pipeline):
        with open(pipeline["out"] / "report" / "summary.json",
                  encoding="utf-8") as fh:
            summary = json.load(fh)
        assert sorted(summary["auc"]) == ["mahalanobis", "nll", "regret"]
        for value in summary["auc"].values():
            assert 0.0 <= value <= 1.0
        assert summary["config_digest"] == pipeline["manifest"]["config_digest"]

    def test_roc_csvs_are_monotone(self, pipeline):
        for name in ("nll", "mahalanobis", "regret"):
            path = pipeline["out"] / "report" / f"roc_{name}.csv"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            fpr = np.array([float(r["fpr"]) for r in rows])
            tpr = np.array([float(r["tpr"]) for r in rows])
            assert np.all(np.diff(fpr) >= 0.0)
            assert np.all(np.diff(tpr) >= 0.0)

    def test_nll_scores_csv_schema(self, pipeline):
        path = pipeline["out"] / "detect" / "nll_scores.csv"
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["sample_id", "source_tag", "label_used", "k", "nll"]
        assert rows
        for sid, tag, label, k, nll in rows:
            assert tag in ("adversarial", "ood", "benign")
            assert 0 <= int(label) < 5
            assert int(k) == TINY_CONFIG["detect"]["k"]
            float(nll)

    def test_detect_refines_only_the_rows_it_scores(self, pipeline,
                                                    tiny_config, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(pipeline["out"], out)
        real, refined = attack.generate_perturbation, []

        def counting(gen, noise, labels):
            refined.append(len(noise))
            return real(gen, noise, labels)

        monkeypatch.setattr(attack, "generate_perturbation", counting)
        assert cli.main(["detect", "--config", tiny_config, "--out",
                         str(out)]) == 0
        meta = json.loads((out / "detect" / "detect_meta.json").read_text(
            encoding="utf-8"))
        n_keep = TINY_CONFIG["detect"]["max_samples_per_tag"]
        n_ref = TINY_CONFIG["sweep"]["n_ref_grid"][0]
        assert (meta["n_per_tag"], meta["operating_point"]["n_ref"]) == (
            n_keep, n_ref)
        assert refined == [n_keep] * n_ref


class TestDeterminism:
    def test_manifests_match_hash_for_hash(self, pipeline, pipeline_twin):
        a = pipeline["manifest"]
        b = pipeline_twin["manifest"]
        assert a["config_digest"] == b["config_digest"]
        assert a["stages"] == b["stages"]

    def test_compare_manifests_names_each_differing_artifact(
            self, pipeline, pipeline_twin, tmp_path):
        script = ROOT / "scripts" / "compare_manifests.py"

        def compare(run_a, run_b):
            return subprocess.run(
                [sys.executable, str(script), str(run_a), str(run_b)],
                capture_output=True, text=True, timeout=60)

        same = compare(pipeline["out"], pipeline_twin["out"])
        assert same.returncode == 0, same.stdout + same.stderr
        n = sum(len(entry["artifacts"])
                for entry in pipeline["manifest"]["stages"].values())
        assert same.stdout == f"0 of {n} artifacts differ\n"
        edited = json.loads(json.dumps(pipeline_twin["manifest"]))
        artifacts = edited["stages"]["detect"]["artifacts"]
        want = artifacts["detect/scores.csv"]
        artifacts["detect/scores.csv"] = "0" * 64
        manifest = tmp_path / cli.MANIFEST_NAME
        manifest.write_text(json.dumps(edited), encoding="utf-8")
        differ = compare(pipeline["out"], manifest)
        assert differ.returncode == 1
        assert differ.stdout == (f"detect: detect/scores.csv: {want} != "
                                 f"{'0' * 64}\n1 of {n} artifacts differ\n")
        # an artifact that one run did not record at all
        artifacts["detect/scores.csv"] = want
        gone = edited["stages"]["gan"]["artifacts"].pop("models/gen.json")
        manifest.write_text(json.dumps(edited), encoding="utf-8")
        missing = compare(pipeline["out"], manifest)
        assert missing.returncode == 1
        assert missing.stdout == (f"gan: models/gen.json: {gone} != missing\n"
                                  f"1 of {n} artifacts differ\n")
        assert compare(pipeline["out"], tmp_path / "nowhere").returncode == 2


class TestStageRebuild:
    def test_deleted_artifacts_rebuild_bit_exactly(self, tiny_config,
                                                   pipeline):
        out = pipeline["out"]
        for stage, command in (("sweep", "sweep"), ("report", "report")):
            before = pipeline["manifest"]["stages"][stage]["artifacts"]
            for rel in before:
                (out / rel).unlink()
            assert cli.main([command, "--config", tiny_config, "--out",
                             str(out)]) == 0
            with open(out / cli.MANIFEST_NAME, encoding="utf-8") as fh:
                rebuilt = json.load(fh)["stages"][stage]["artifacts"]
            assert rebuilt == before


class TestStaleUpstream:
    def test_digest_mismatch_blocks_unless_stage_only(self, pipeline_twin,
                                                      tmp_path, capsys):
        out = pipeline_twin["out"]
        changed = dict(TINY_CONFIG)
        changed["gan"] = dict(TINY_CONFIG["gan"], epochs=5)
        path = write_config(tmp_path / "changed.json", changed)
        rc = cli.main(["sweep", "--config", path, "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "different configuration" in err
        assert "train-gan" in err
        rc = cli.main(["sweep", "--config", path, "--out", str(out),
                       "--stage-only"])
        assert rc == 0
