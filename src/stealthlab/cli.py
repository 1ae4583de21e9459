"""Pipeline driver: strict JSON config, stage commands, artifact manifest.

Stages form a chain (data -> ids -> gan -> sweep; data -> cvae; sweep + cvae
-> detect -> report), described by the one table STAGES. Each command runs
exactly one stage, fails with a dependency error when upstream artifacts are
missing, and records every file it wrote (with a sha256) in
<out>/manifest.json. Every config section is a library config, checked
against its field types and its declared bounds when the config is parsed.
Stage seeds derive from the global seed plus the stage tag, so reruns are
bit-identical. How a sweep grid point's batches are seeded is attack's
business (`attack.operating_point`), and the score table is detect's
(`detect.score_table`), down to the label each row's regret is conditioned
on: the detect stage draws the (tag, rows, sample ids) populations and
writes the table.

Exit codes: 0 success, 2 config error, 3 missing dependency, 4 numeric
failure, 5 I/O or data-file problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
import typing
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable

import numpy as np

from . import attack, cgan, cvae, data, detect, ids
from .errors import ConfigError, DependencyError, NumericError, ParseError
from .rng import derive_rng, derive_seed

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    out_dir: str = "runs/out"
    dataset: data.DatasetConfig = field(default_factory=data.DatasetConfig)
    ids: ids.IdsTrainConfig = field(default_factory=ids.IdsTrainConfig)
    gan: cgan.GanConfig = field(default_factory=cgan.GanConfig)
    cvae: cvae.CvaeTrainConfig = field(default_factory=cvae.CvaeTrainConfig)
    sweep: attack.SweepConfig = field(default_factory=attack.SweepConfig)
    detect: detect.DetectConfig = field(
        default_factory=detect.DetectConfig)


def _build_section(cls, payload: dict, where: str):
    """cls(**payload), recursing into dataclass-typed fields; unknown keys,
    values of the wrong type, non-finite floats (JSON's NaN and Infinity) and
    values the section's checks reject are ConfigErrors."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in payload.items():
        name = f"{where}.{key}" if where else key
        if key not in hints:
            raise ConfigError(f"unknown key '{name}'")
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = _build_section(hint, value, name)
        elif not data.has_type(value, hint):
            raise ConfigError(
                f"'{name}' must be of type "
                f"{hint.__name__ if isinstance(hint, type) else hint}, "
                f"got {json.dumps(value)}")
        elif any(isinstance(v, float) and not np.isfinite(v)
                 for v in (value if isinstance(value, list) else [value])):
            raise ConfigError(f"'{name}' must be finite, "
                              f"got {json.dumps(value)}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in '{where or 'config'}': {exc}") from exc


def parse_config(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    if "schema_version" not in payload:
        raise ConfigError("config is missing required key 'schema_version'")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {payload['schema_version']!r}, "
            f"expected {SCHEMA_VERSION}")
    return _build_section(RunConfig, payload, "")


def load_config(path: str | None, out_override: str | None = None,
                seed_override: int | None = None) -> RunConfig:
    if path is None:
        config = RunConfig()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh, object_pairs_hook=data.unique_keys)
            except ValueError as exc:   # invalid JSON, bad UTF-8, repeated key
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        config = parse_config(payload)
    if out_override is not None:
        config.out_dir = out_override
    if seed_override is not None:
        config.seed = int(seed_override)
    return config


def _sha256_json(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def config_digest(config: RunConfig) -> str:
    payload = dataclasses.asdict(config)
    del payload["out_dir"]      # location, not a semantic input
    return _sha256_json(payload)


def _digest_sections(stage: str) -> set[str]:
    """The config sections whose change invalidates a stage: its own plus
    those of every stage upstream of it."""
    entry = STAGES[stage]
    sections = {entry.section} if entry.section else set()
    return sections.union(*map(_digest_sections, entry.requires))


def stage_digest(config: RunConfig, stage: str) -> str:
    full = dataclasses.asdict(config)
    payload = {section: full[section] for section in _digest_sections(stage)}
    payload["seed"] = config.seed
    return _sha256_json(payload)


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    def __init__(self, out_dir: Path):
        self.path = Path(out_dir) / MANIFEST_NAME
        self.payload = {"config_digest": None, "stages": {}, "timings": {}}
        if self.path.exists():
            try:
                self.payload = data.read_json(self.path, {"stages": dict,
                                                          "timings": dict})
                for stage, entry in self.payload["stages"].items():
                    data.check_keys(entry, {"stage_digest": str,
                                            "artifacts": dict},
                                    f"{self.path}: stage '{stage}'")
            except ParseError as exc:
                raise ParseError(
                    f"{exc}; corrupt manifest: delete it and rerun the "
                    f"stages from '{STAGES['data'].command}'") from None

    def record(self, stage: str, digest: str, artifacts: list[Path],
               meta: dict, wall_clock: float, out_dir: Path) -> None:
        entry = {
            "stage_digest": digest,
            "artifacts": {
                str(p.relative_to(out_dir)): _sha256_file(p) for p in artifacts
            },
            "meta": meta,
        }
        self.payload["stages"][stage] = entry
        self.payload["timings"][stage] = round(wall_clock, 3)
        data.write_json(self.path, self.payload)

    def check_requirements(self, stage: str, config: RunConfig,
                           out_dir: Path, stage_only: bool) -> None:
        for dep in STAGES[stage].requires:
            entry = self.payload["stages"].get(dep)
            command = STAGES[dep].command
            if entry is None:
                raise DependencyError(
                    f"stage '{dep}' has not run; run '{command}' first")
            for rel in entry["artifacts"]:
                if not (out_dir / rel).exists():
                    raise DependencyError(
                        f"stage '{dep}' artifact '{rel}' is missing; rerun "
                        f"'{command}'")
            if not stage_only and entry["stage_digest"] != stage_digest(config,
                                                                        dep):
                raise DependencyError(
                    f"stage '{dep}' was built from a different configuration; "
                    f"rerun '{command}' (or pass --stage-only to use it "
                    f"anyway)")


# ---------------------------------------------------------------------------
# shared artifact paths and loading helpers
# ---------------------------------------------------------------------------

def _paths(out_dir: Path) -> dict:
    return {
        "train_csv": out_dir / "data" / "train.csv",
        "test_csv": out_dir / "data" / "test.csv",
        "scaler": out_dir / "data" / "scaler.json",
        "models": out_dir / "models",
        "ids_curve": out_dir / "curves" / "ids_curve.csv",
        "gan_curve": out_dir / "curves" / "gan_curve.csv",
        "cvae_curve": out_dir / "curves" / "cvae_curve.csv",
        "vae_curve": out_dir / "curves" / "vae_curve.csv",
        "sweep_csv": out_dir / "sweep" / "sweep.csv",
        "selection": out_dir / "sweep" / "selection.json",
        "scores_csv": out_dir / "detect" / "scores.csv",
        "nll_scores_csv": out_dir / "detect" / "nll_scores.csv",
        "detect_meta": out_dir / "detect" / "detect_meta.json",
        "report_dir": out_dir / "report",
        "summary": out_dir / "report" / "summary.json",
    }


def _selected_operating_point(paths: dict) -> dict:
    """The selected point in selection.json; DependencyError if none, and a
    ParseError naming the key if epsilon or rho is not finite and > 0 or
    n_ref is negative."""
    selection = data.read_json(paths["selection"], {"feasible": bool,
                                                    "selected": dict | None})
    if not selection["feasible"] or selection["selected"] is None:
        raise DependencyError(
            "sweep found no feasible operating point; adjust the sweep "
            "grids or eta_max and rerun 'sweep'")
    where = f"{paths['selection']}: 'selected'"
    point = data.check_keys(selection["selected"],
                            {"epsilon": float, "rho": float, "n_ref": int},
                            where)
    for key in ("epsilon", "rho"):
        if not 0.0 < point[key] < np.inf:       # json reads NaN and Infinity
            raise ParseError(f"{where}: '{key}' must be finite and > 0, "
                             f"got {json.dumps(point[key])}")
    if point["n_ref"] < 0:
        raise ParseError(f"{where}: 'n_ref' must be >= 0, "
                         f"got {point['n_ref']}")
    return point


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_data(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    section = config.dataset
    if section.source == "csv":
        raw = data.load_csv(section.csv_path)
    else:
        raw = data.synth_generate(section, derive_seed(config.seed, "synth"))
    train, test = data.stratified_split(raw, section.train_fraction,
                                        seed=derive_seed(config.seed, "split"))
    scaler = data.fit_minmax(train)
    train_scaled = data.apply_minmax(train, scaler)
    test_scaled = data.apply_minmax(test, scaler)
    paths = _paths(out_dir)
    data.save_csv(paths["train_csv"], train_scaled)
    data.save_csv(paths["test_csv"], test_scaled)
    data.save_scaler(paths["scaler"], scaler)
    meta = {"n_samples": raw.n, "n_train": train.n, "n_test": test.n,
            "source": section.source}
    return [paths["train_csv"], paths["test_csv"], paths["scaler"]], meta


def stage_ids(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    test = data.load_csv(paths["test_csv"])
    net, curve = ids.train_ids(train, config.ids,
                               derive_seed(config.seed, "ids"))
    metrics = {
        "train_accuracy": ids.accuracy(net, train),
        "test_accuracy": ids.accuracy(net, test),
        "epochs_run": len(curve),
    }
    artifacts = ids.save_ids(net, paths["models"], extra_meta={
        "scaler_ref": str(paths["scaler"].relative_to(out_dir)),
        "metrics": metrics, "config": dataclasses.asdict(config.ids)})
    columns = ["epoch", "loss", "train_accuracy"]
    data.write_csv(paths["ids_curve"], columns,
                   map(itemgetter(*columns), curve), "\n")
    return artifacts + [paths["ids_curve"]], metrics


def stage_gan(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    ids_net = ids.load_ids(paths["models"])
    before = [p.copy() for p in ids_net.params()]
    generator, curve = cgan.train_cgan(
        ids_net, train, config.gan, derive_seed(config.seed, "gan"))
    frozen = all((a == b).all() for a, b in zip(before, ids_net.params()))
    if not frozen:
        raise NumericError("intrusion detector weights changed during GAN "
                           "training; the frozen-oracle contract is broken")
    artifacts = cgan.save_generator(generator, paths["models"])
    columns = ["epoch", "d_loss", "g_cls", "g_stealth", "g_gan"]
    data.write_csv(paths["gan_curve"], columns,
                   map(itemgetter(*columns), curve), "\n")
    meta = {"epochs_run": len(curve),
            "final": {k: curve[-1][k] for k in columns[1:]} if curve else {}}
    return artifacts + [paths["gan_curve"]], meta


def stage_cvae(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    artifacts: list[Path] = []
    meta: dict = {}

    def fit(conditional: bool, name: str, curve_path: Path) -> None:
        model, curve = cvae.train_cvae(train, config.cvae,
                                       derive_seed(config.seed, "cvae"),
                                       conditional)
        artifacts.extend(cvae.save_cvae(model, paths["models"], name=name))
        columns = ["epoch", "loss", "recon", "kl"]
        data.write_csv(curve_path, columns, map(itemgetter(*columns), curve),
                       "\n")
        artifacts.append(curve_path)
        meta[name] = {f"final_{k}": curve[-1][k]
                      for k in columns[1:]} if curve else {}

    fit(True, "cvae", paths["cvae_curve"])
    if config.cvae.train_baseline_vae:
        fit(False, "vae", paths["vae_curve"])
    return artifacts, meta


def _attack_rows(test: data.Dataset) -> np.ndarray:
    rows = np.flatnonzero(test.labels > 0)
    if rows.size == 0:
        raise ParseError("test split has no attack rows to perturb")
    return rows


def stage_sweep(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    test = data.load_csv(paths["test_csv"])
    ids_net = ids.load_ids(paths["models"])
    generator = cgan.load_generator(paths["models"])
    rows = _attack_rows(test)
    x_att = test.features[rows]
    labels = test.labels[rows]
    benign_rows = test.class_rows(0)
    if benign_rows.size == 0:
        raise ParseError("test split has no benign rows to measure against")
    result = attack.sweep(generator, ids_net, x_att, labels, config.sweep,
                          derive_seed(config.seed, "sweep"),
                          test.features[benign_rows])
    attack.sweep_to_csv(result, paths["sweep_csv"])
    feasible = result.selection is not None
    selection_payload = {"feasible": feasible,
                         "eta_max": config.sweep.eta_max, "selected": None}
    if feasible:
        sel = result.selection
        selection_payload["selected"] = {
            "epsilon": sel.epsilon, "rho": sel.rho, "n_ref": sel.n_ref,
            "w_adv_att": sel.w_adv_att, "w_ood_att": sel.w_ood_att,
            "objective": sel.objective, "succ_adv": sel.succ_adv,
            "succ_ood": sel.succ_ood,
        }
    data.write_json(paths["selection"], selection_payload)
    meta = {"n_grid_points": len(result.reports), "feasible": feasible}
    return [paths["sweep_csv"], paths["selection"]], meta


def stage_detect(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    test = data.load_csv(paths["test_csv"])
    ids_net = ids.load_ids(paths["models"])
    generator = cgan.load_generator(paths["models"])
    cvae_model = cvae.load_cvae(paths["models"])
    point = _selected_operating_point(paths)
    section = config.detect

    rows = _attack_rows(test)
    n_keep = min(section.max_samples_per_tag, rows.size)
    keep = np.sort(derive_rng(config.seed, "detect-subset").choice(
        rows.size, size=n_keep, replace=False))
    x_adv, x_ood = attack.operating_point(
        generator, test.features[rows], test.labels[rows], point["epsilon"],
        point["rho"], point["n_ref"], derive_seed(config.seed, "sweep"), keep)
    adv_ids = rows[keep]

    benign_rows = train.class_rows(0)
    n_cal = min(section.benign_calibration, benign_rows.size)
    cal_rows = np.sort(derive_rng(config.seed, "detect-benign").choice(
        benign_rows, size=n_cal, replace=False))

    table = detect.score_table([
        (detect.TAG_ADVERSARIAL, x_adv, adv_ids),
        (detect.TAG_OOD, x_ood, adv_ids),
        (detect.TAG_BENIGN, train.features[cal_rows], cal_rows),
    ], cvae_model, ids_net, train, section, config.seed,
        kl_weight=config.cvae.kl_weight)
    detect.scores_to_csv(paths["scores_csv"], table.sample_ids, table.tags,
                         table.scores)
    detect.nll_scores_to_csv(paths["nll_scores_csv"], table, section.k)
    meta = {
        "regret_orientation": table.regret_orientation,
        "label_mode": section.label_mode,
        "k": section.k,
        "n_per_tag": int(n_keep),
        "n_benign_calibration": int(n_cal),
        "n_regret_invalid": table.n_regret_invalid,
        "operating_point": point,
    }
    data.write_json(paths["detect_meta"], meta)
    return [paths["scores_csv"], paths["nll_scores_csv"],
            paths["detect_meta"]], meta


def stage_report(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    by_detector = detect.scores_from_csv(paths["scores_csv"])
    detect_meta = data.read_json(paths["detect_meta"], {
        "operating_point": dict, "regret_orientation": int,
        "label_mode": str, "k": int, "n_per_tag": int})
    orientation = detect_meta["regret_orientation"]
    if orientation not in (-1, 1):
        raise ParseError(f"{paths['detect_meta']}: 'regret_orientation' must "
                         f"be -1 or 1, got {orientation}")
    try:        # the bounds detect held k and label_mode to
        detect.DetectConfig(k=detect_meta["k"],
                            label_mode=detect_meta["label_mode"])
    except ValueError as exc:
        raise ParseError(f"{paths['detect_meta']}: {exc}") from None
    report_dir = paths["report_dir"]
    artifacts = []
    aucs = {}
    for name in detect.DETECTORS:
        if name not in by_detector:
            raise DependencyError(f"scores.csv has no rows for detector "
                                  f"'{name}'; rerun 'detect'")
        tags, scores = by_detector[name]
        for tag in (detect.TAG_ADVERSARIAL, detect.TAG_OOD):
            if not (tags == tag).any():
                raise DependencyError(f"scores.csv has no '{tag}' rows for "
                                      f"detector '{name}'; rerun 'detect'")
        adv_ood = tags != detect.TAG_BENIGN
        curve = detect.roc_auc(scores[adv_ood],
                               tags[adv_ood] == detect.TAG_ADVERSARIAL)
        aucs[name] = curve.auc
        roc_path = report_dir / f"roc_{name}.csv"
        data.write_csv(roc_path, ["threshold", "fpr", "tpr"],
                       zip(curve.thresholds, curve.fpr, curve.tpr))
        hist_path = report_dir / f"hist_{name}.csv"
        detect.histograms_to_csv(
            detect.export_histograms(scores, tags,
                                     config.detect.histogram_bins),
            hist_path)
        artifacts.extend([roc_path, hist_path])
    summary = {
        "auc": aucs,
        "operating_point": detect_meta["operating_point"],
        "config_digest": config_digest(config),
        "regret_orientation": detect_meta["regret_orientation"],
        "label_mode": detect_meta["label_mode"],
        "k": detect_meta["k"],
        "n_per_tag": detect_meta["n_per_tag"],
    }
    data.write_json(paths["summary"], summary)
    artifacts.append(paths["summary"])
    return artifacts, {"auc": aucs}


@dataclass(frozen=True)
class Stage:
    name: str
    commands: tuple[tuple[str, str], ...]   # (command, help), canonical first
    section: str | None                     # its own RunConfig section
    requires: tuple[str, ...]               # upstream stages
    run: Callable[[RunConfig, Path], tuple[list[Path], dict]]

    @property
    def command(self) -> str:
        """How messages name the command to run, e.g. 'synth (or ingest)'."""
        first, *others = (command for command, _ in self.commands)
        return first + "".join(f" (or {other})" for other in others)


STAGES = {stage.name: stage for stage in (
    Stage("data", (("synth", "generate the synthetic dataset, split, scale"),
                   ("ingest", "load a telemetry CSV, split, scale, write "
                              "data artifacts")),
          "dataset", (), stage_data),
    Stage("ids", (("train-ids", "train the intrusion detector"),),
          "ids", ("data",), stage_ids),
    Stage("gan", (("train-gan", "train the perturbation generator and "
                                "discriminator"),),
          "gan", ("data", "ids"), stage_gan),
    Stage("cvae", (("train-cvae", "train the CVAE (and the plain-VAE "
                                  "baseline)"),),
          "cvae", ("data",), stage_cvae),
    Stage("sweep", (("sweep", "scan the stealth grid and select an operating "
                              "point"),),
          "sweep", ("data", "ids", "gan"), stage_sweep),
    Stage("detect", (("detect", "score adversarial/ood/benign batches with "
                                "all detectors"),),
          "detect", ("data", "ids", "gan", "cvae", "sweep"), stage_detect),
    Stage("report", (("report", "compute ROC curves, histograms and the AUC "
                                "summary"),),
          None, ("detect",), stage_report),
)}


def run_stage(stage: str, config: RunConfig, stage_only: bool = False) -> dict:
    out_dir = Path(config.out_dir)
    manifest = Manifest(out_dir)
    manifest.check_requirements(stage, config, out_dir, stage_only)
    started = time.perf_counter()
    artifacts, meta = STAGES[stage].run(config, out_dir)
    wall = time.perf_counter() - started
    manifest.payload["config_digest"] = config_digest(config)
    manifest.record(stage, stage_digest(config, stage), artifacts, meta, wall,
                    out_dir)
    return meta


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthlab",
        description="UAV telemetry evasion lab: train, attack, detect.")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        for command, help_text in stage.commands:
            cmd = sub.add_parser(command, help=help_text)
            cmd.set_defaults(stage=stage.name)
            cmd.add_argument("--config", default=None,
                             help="JSON run configuration (defaults apply if "
                                  "omitted)")
            cmd.add_argument("--out", default=None,
                             help="output directory (overrides the config)")
            cmd.add_argument("--seed", type=int, default=None,
                             help="global seed (overrides the config)")
            cmd.add_argument("--stage-only", action="store_true",
                             help="trust existing upstream artifacts even if "
                                  "the current config no longer matches them")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.out, args.seed)
        if args.command == "ingest" and config.dataset.source != "csv":
            raise ConfigError("ingest requires dataset.source='csv'")
        if args.command == "synth" and config.dataset.source != "synthetic":
            raise ConfigError("synth requires dataset.source='synthetic'")
        meta = run_stage(args.stage, config, args.stage_only)
        print(f"[{args.command}] done: "
              + json.dumps(meta, sort_keys=True, default=str))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except (ParseError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
