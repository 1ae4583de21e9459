import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from stealthlab import cli, data
from stealthlab.errors import ConfigError

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


def write_config(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def run_pipeline(config_path, out_dir):
    for command in PIPELINE_COMMANDS:
        rc = cli.main([command, "--config", config_path, "--out",
                       str(out_dir)])
        assert rc == 0, f"'{command}' failed"
    with open(out_dir / cli.MANIFEST_NAME, encoding="utf-8") as fh:
        return json.load(fh)


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

    def test_digest_ignores_out_dir_but_not_seed(self):
        base = cli.RunConfig()
        moved = cli.RunConfig(out_dir="somewhere/else")
        reseeded = cli.RunConfig(seed=1)
        assert cli.config_digest(base) == cli.config_digest(moved)
        assert cli.config_digest(base) != cli.config_digest(reseeded)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path / "bad.json",
                            {"schema_version": 1, "whoops": True})
        rc = cli.main(["synth", "--config", path, "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
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
        ds = data.synth_generate(data.SyntheticSpec(
            samples_per_class=10, separation=0.3, std=0.05, seed=3))
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

    @pytest.mark.parametrize("text", ['{"stages": {"data": {"art', "[]",
                                      "\udcff"],
                             ids=["truncated", "not-a-record", "bad-utf8"])
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
        ds = data.synth_generate(data.SyntheticSpec(
            samples_per_class=10, separation=0.3, std=0.05, seed=3))
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


class TestDeterminism:
    def test_manifests_match_hash_for_hash(self, pipeline, pipeline_twin):
        a = pipeline["manifest"]
        b = pipeline_twin["manifest"]
        assert a["config_digest"] == b["config_digest"]
        assert a["stages"] == b["stages"]


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
