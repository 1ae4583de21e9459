"""Pipeline driver: strict JSON config, stage commands, artifact manifest.

Stages form a chain (data -> ids -> gan -> sweep; data -> cvae; sweep + cvae
-> detect -> report). Each command runs exactly one stage, fails with a
dependency error when upstream artifacts are missing, and records every file
it wrote (with a sha256) in <out>/manifest.json. Stage seeds derive from the
global seed plus the stage tag, so reruns are bit-identical.

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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import attack, cgan, cvae, data, detect, ids
from .errors import (ConfigError, DependencyError, LabelError, NumericError,
                     ParseError, SchemaError)
from .rng import derive_seed

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class DatasetSection:
    source: str = "synthetic"          # "synthetic" or "csv"
    csv_path: str | None = None
    train_fraction: float = 0.8
    samples_per_class: int = 600
    separation: float = 0.08
    std: float = 0.10

    def __post_init__(self):
        if self.source not in ("synthetic", "csv"):
            raise ConfigError("dataset.source must be 'synthetic' or 'csv'")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("dataset.csv_path is required when source='csv'")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("dataset.train_fraction must be in (0, 1)")


@dataclass
class IdsSection:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.001


@dataclass
class GanSection:
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 0.001
    lambda_cls: float = 1.0
    lambda_stealth: float = 10.0
    lambda_gan: float = 0.1
    noise_dim: int = 32
    out_scale: float = 0.1
    label_smoothing: float = 0.01


@dataclass
class CvaeSection:
    epochs: int = 120
    batch_size: int = 64
    learning_rate: float = 0.001
    latent_dim: int = 200
    # the synthetic clusters are conditionally featureless, so a plain ELBO
    # collapses the posterior; a small KL weight keeps the latent space live
    kl_weight: float = 0.02
    train_baseline_vae: bool = True   # also fit the unconditional baseline


@dataclass
class SweepSection:
    epsilon_grid: list[float] = field(
        default_factory=lambda: list(attack.DEFAULT_EPSILON_GRID))
    rho_grid: list[float] = field(
        default_factory=lambda: list(attack.DEFAULT_RHO_GRID))
    n_ref_grid: list[int] = field(
        default_factory=lambda: list(attack.DEFAULT_N_REF_GRID))
    eta_max: float = attack.DEFAULT_ETA_MAX

    def __post_init__(self):
        if not self.epsilon_grid or not self.rho_grid or not self.n_ref_grid:
            raise ConfigError("sweep grids must be non-empty")
        if not 0.0 <= self.eta_max <= 1.0:
            raise ConfigError("sweep.eta_max must be in [0, 1]")


@dataclass
class RegretSection:
    steps: int = 100
    learning_rate: float = 0.001


@dataclass
class DetectSection:
    k: int = 50
    label_mode: str = "ids"            # "ids" or "min"
    max_samples_per_tag: int = 192
    benign_calibration: int = 64
    shrinkage: float = 0.1
    histogram_bins: int = 40
    regret: RegretSection = field(default_factory=RegretSection)

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("detect.k must be >= 1")
        if self.label_mode not in ("ids", "min"):
            raise ConfigError("detect.label_mode must be 'ids' or 'min'")
        if self.max_samples_per_tag < 2:
            raise ConfigError("detect.max_samples_per_tag must be >= 2")
        if self.benign_calibration < 2:
            raise ConfigError("detect.benign_calibration must be >= 2")


@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 0
    out_dir: str = "runs/out"
    dataset: DatasetSection = field(default_factory=DatasetSection)
    ids: IdsSection = field(default_factory=IdsSection)
    gan: GanSection = field(default_factory=GanSection)
    cvae: CvaeSection = field(default_factory=CvaeSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    detect: DetectSection = field(default_factory=DetectSection)


_NESTED_SECTIONS = {"regret": RegretSection}


def _build_section(cls, payload: dict, where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        if key not in known:
            raise ConfigError(f"unknown key '{where + '.' if where else ''}{key}'")
        if key in _NESTED_SECTIONS:
            kwargs[key] = _build_section(_NESTED_SECTIONS[key], value,
                                         f"{where}.{key}" if where else key)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in '{where or 'config'}': {exc}") from exc


_SECTION_TYPES = {
    "dataset": DatasetSection,
    "ids": IdsSection,
    "gan": GanSection,
    "cvae": CvaeSection,
    "sweep": SweepSection,
    "detect": DetectSection,
}


def parse_config(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    if "schema_version" not in payload:
        raise ConfigError("config is missing required key 'schema_version'")
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {payload['schema_version']!r}, "
            f"expected {SCHEMA_VERSION}")
    kwargs = {}
    for key, value in payload.items():
        if key in _SECTION_TYPES:
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        elif key in ("schema_version", "seed", "out_dir"):
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown key '{key}'")
    try:
        return RunConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in config: {exc}") from exc


def load_config(path: str | None, out_override: str | None = None,
                seed_override: int | None = None) -> RunConfig:
    if path is None:
        config = RunConfig()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        config = parse_config(payload)
    if out_override is not None:
        config.out_dir = out_override
    if seed_override is not None:
        config.seed = int(seed_override)
    return config


def config_to_dict(config: RunConfig) -> dict:
    return dataclasses.asdict(config)


def config_digest(config: RunConfig) -> str:
    payload = config_to_dict(config)
    del payload["out_dir"]      # location, not a semantic input
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def default_synth_config(out_dir: str = "runs/synth",
                         seed: int = 0) -> RunConfig:
    """The stock synthetic end-to-end run used by scripts and the test gate."""
    return RunConfig(seed=seed, out_dir=out_dir)


# stage -> config sections whose change invalidates it (chained upstream)
_STAGE_SECTIONS = {
    "data": ["dataset"],
    "ids": ["dataset", "ids"],
    "gan": ["dataset", "ids", "gan"],
    "cvae": ["dataset", "cvae"],
    "sweep": ["dataset", "ids", "gan", "sweep"],
    "detect": ["dataset", "ids", "gan", "cvae", "sweep", "detect"],
    "report": ["dataset", "ids", "gan", "cvae", "sweep", "detect"],
}

STAGE_REQUIRES = {
    "data": [],
    "ids": ["data"],
    "gan": ["data", "ids"],
    "cvae": ["data"],
    "sweep": ["data", "ids", "gan"],
    "detect": ["data", "ids", "gan", "cvae", "sweep"],
    "report": ["detect"],
}

_STAGE_COMMAND = {
    "data": "synth (or ingest)",
    "ids": "train-ids",
    "gan": "train-gan",
    "cvae": "train-cvae",
    "sweep": "sweep",
    "detect": "detect",
    "report": "report",
}


def stage_digest(config: RunConfig, stage: str) -> str:
    payload = {"seed": config.seed}
    full = config_to_dict(config)
    for section in _STAGE_SECTIONS[stage]:
        payload[section] = full[section]
    canon = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
                with open(self.path, "r", encoding="utf-8") as fh:
                    payload = json.load(fh)
            except ValueError:          # truncated JSON or bad UTF-8
                payload = None
            if not (isinstance(payload, dict)
                    and isinstance(payload.get("stages"), dict)
                    and isinstance(payload.get("timings"), dict)):
                raise ParseError(
                    f"{self.path}: corrupt manifest; delete it and rerun the "
                    f"stages from '{_STAGE_COMMAND['data']}'")
            self.payload = payload

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
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def check_requirements(self, stage: str, config: RunConfig,
                           out_dir: Path, stage_only: bool) -> None:
        for dep in STAGE_REQUIRES[stage]:
            entry = self.payload["stages"].get(dep)
            if entry is None:
                raise DependencyError(
                    f"stage '{dep}' has not run; run '{_STAGE_COMMAND[dep]}' "
                    f"first")
            for rel in entry["artifacts"]:
                if not (out_dir / rel).exists():
                    raise DependencyError(
                        f"stage '{dep}' artifact '{rel}' is missing; rerun "
                        f"'{_STAGE_COMMAND[dep]}'")
            if not stage_only and entry["stage_digest"] != stage_digest(config,
                                                                        dep):
                raise DependencyError(
                    f"stage '{dep}' was built from a different configuration; "
                    f"rerun '{_STAGE_COMMAND[dep]}' (or pass --stage-only to "
                    f"use it anyway)")


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


def _write_curve_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                value = row[col]
                cells.append(str(value) if isinstance(value, int)
                             else repr(float(value)))
            fh.write(",".join(cells) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _selected_operating_point(paths: dict) -> dict:
    with open(paths["selection"], "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_data(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    section = config.dataset
    if section.source == "csv":
        raw = data.load_csv(section.csv_path)
    else:
        spec = data.SyntheticSpec(
            samples_per_class=section.samples_per_class,
            separation=section.separation, std=section.std,
            seed=derive_seed(config.seed, "synth"))
        raw = data.synth_generate(spec)
    train, test = data.stratified_split(raw, section.train_fraction,
                                        seed=derive_seed(config.seed, "split"))
    scaler = data.fit_minmax(train)
    train_scaled = data.apply_minmax(train, scaler)
    test_scaled = data.apply_minmax(test, scaler)
    paths = _paths(out_dir)
    paths["train_csv"].parent.mkdir(parents=True, exist_ok=True)
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
    train_config = ids.IdsTrainConfig(
        epochs=config.ids.epochs, batch_size=config.ids.batch_size,
        learning_rate=config.ids.learning_rate,
        seed=derive_seed(config.seed, "ids"))
    model, curve = ids.train_ids(train, train_config)
    model.scaler_ref = str(paths["scaler"].relative_to(out_dir))
    metrics = {
        "train_accuracy": ids.accuracy(model, train),
        "test_accuracy": ids.accuracy(model, test),
        "epochs_run": len(curve),
    }
    paths["models"].mkdir(parents=True, exist_ok=True)
    written = ids.save_ids(model, paths["models"], extra_meta={
        "metrics": metrics, "config": dataclasses.asdict(config.ids)})
    _write_curve_csv(paths["ids_curve"], curve,
                     ["epoch", "loss", "train_accuracy"])
    artifacts = [Path(written["weights"]), Path(written["meta"]),
                 paths["ids_curve"]]
    return artifacts, metrics


def stage_gan(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    ids_model = ids.load_ids(paths["models"])
    section = config.gan
    gan_config = cgan.GanConfig(
        lambda_cls=section.lambda_cls, lambda_stealth=section.lambda_stealth,
        lambda_gan=section.lambda_gan, learning_rate=section.learning_rate,
        epochs=section.epochs, batch_size=section.batch_size,
        noise_dim=section.noise_dim, out_scale=section.out_scale,
        label_smoothing=section.label_smoothing,
        seed=derive_seed(config.seed, "gan"))
    before = [p.copy() for p in ids_model.net.params()]
    generator, discriminator, curve = cgan.train_cgan(ids_model, train,
                                                      gan_config)
    frozen = all((a == b).all() for a, b in zip(before,
                                                ids_model.net.params()))
    if not frozen:
        raise NumericError("intrusion detector weights changed during GAN "
                           "training; the frozen-oracle contract is broken")
    gen_files = cgan.save_generator(generator, paths["models"])
    disc_files = cgan.save_discriminator(discriminator, paths["models"])
    _write_curve_csv(paths["gan_curve"], curve,
                     ["epoch", "d_loss", "g_cls", "g_stealth", "g_gan"])
    meta = {"epochs_run": len(curve),
            "final": {k: curve[-1][k] for k in
                      ("d_loss", "g_cls", "g_stealth", "g_gan")}
            if curve else {}}
    artifacts = [Path(gen_files["weights"]), Path(gen_files["meta"]),
                 Path(disc_files["weights"]), paths["gan_curve"]]
    return artifacts, meta


def stage_cvae(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    section = config.cvae
    artifacts: list[Path] = []
    meta: dict = {}

    def fit(conditional: bool, name: str, curve_path: Path) -> None:
        train_config = cvae.CvaeTrainConfig(
            epochs=section.epochs, batch_size=section.batch_size,
            learning_rate=section.learning_rate, kl_weight=section.kl_weight,
            conditional=conditional, latent_dim=section.latent_dim,
            seed=derive_seed(config.seed, "cvae"))
        model, curve = cvae.train_cvae(train, train_config)
        written = cvae.save_cvae(model, paths["models"], name=name)
        _write_curve_csv(curve_path, curve, ["epoch", "loss", "recon", "kl"])
        artifacts.extend([Path(written["encoder"]), Path(written["decoder"]),
                          Path(written["meta"]), curve_path])
        meta[name] = {"final_loss": curve[-1]["loss"],
                      "final_recon": curve[-1]["recon"],
                      "final_kl": curve[-1]["kl"]} if curve else {}

    paths["models"].mkdir(parents=True, exist_ok=True)
    fit(True, "cvae", paths["cvae_curve"])
    if section.train_baseline_vae:
        fit(False, "vae", paths["vae_curve"])
    return artifacts, meta


def _attack_rows(test: data.Dataset) -> np.ndarray:
    rows = np.flatnonzero(test.labels > 0)
    if rows.size == 0:
        raise NumericError("test split has no attack rows to perturb")
    return rows


def stage_sweep(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    test = data.load_csv(paths["test_csv"])
    ids_model = ids.load_ids(paths["models"])
    generator = cgan.load_generator(paths["models"])
    rows = _attack_rows(test)
    x_att = test.features[rows]
    labels = test.labels[rows]
    benign_rows = np.flatnonzero(test.labels == 0)
    x_benign = test.features[benign_rows] if benign_rows.size else None
    section = config.sweep
    result = attack.sweep(
        generator, ids_model, x_att, labels,
        epsilon_grid=section.epsilon_grid, rho_grid=section.rho_grid,
        n_ref_grid=section.n_ref_grid, eta_max=section.eta_max,
        seed=derive_seed(config.seed, "sweep"), x_benign=x_benign)
    paths["sweep_csv"].parent.mkdir(parents=True, exist_ok=True)
    attack.sweep_to_csv(result, paths["sweep_csv"])
    selection_payload = {"feasible": result.feasible,
                         "eta_max": result.eta_max, "selected": None}
    if result.selection is not None:
        sel = result.selection
        selection_payload["selected"] = {
            "epsilon": sel.epsilon, "rho": sel.rho, "n_ref": sel.n_ref,
            "w_adv_att": sel.w_adv_att, "w_ood_att": sel.w_ood_att,
            "objective": sel.objective, "succ_adv": sel.succ_adv,
            "succ_ood": sel.succ_ood,
        }
    _write_json(paths["selection"], selection_payload)
    meta = {"n_grid_points": len(result.reports),
            "feasible": result.feasible}
    return [paths["sweep_csv"], paths["selection"]], meta


def stage_detect(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    train = data.load_csv(paths["train_csv"])
    test = data.load_csv(paths["test_csv"])
    ids_model = ids.load_ids(paths["models"])
    generator = cgan.load_generator(paths["models"])
    cvae_model = cvae.load_cvae(paths["models"])
    selection = _selected_operating_point(paths)
    if not selection["feasible"] or selection["selected"] is None:
        raise DependencyError(
            "sweep found no feasible operating point; adjust the sweep "
            "grids or eta_max and rerun 'sweep'")
    point = selection["selected"]
    section = config.detect
    sweep_seed = derive_seed(config.seed, "sweep")

    rows = _attack_rows(test)
    x_att = test.features[rows]
    att_labels = test.labels[rows]
    # reproduce the sweep's batches bit for bit: same trajectory seed, same
    # prefix property, same noise draw for the OOD baseline
    snapshots, _ = attack.refine_trajectory(
        generator, x_att, att_labels, point["epsilon"], [point["n_ref"]],
        derive_seed(sweep_seed, "sweep-refine", point["epsilon"]))
    x_adv_full = snapshots[point["n_ref"]]
    x_ood_full = attack.gen_ood(x_att, attack.OodConfig(
        point["rho"], derive_seed(sweep_seed, "sweep-ood", point["rho"])))

    subset_rng = np.random.default_rng(
        derive_seed(config.seed, "detect-subset"))
    n_keep = min(section.max_samples_per_tag, rows.size)
    keep = np.sort(subset_rng.choice(rows.size, size=n_keep, replace=False))
    x_adv = x_adv_full[keep]
    x_ood = x_ood_full[keep]
    adv_ids = rows[keep]

    benign_rows = train.class_rows(0)
    n_cal = min(section.benign_calibration, benign_rows.size)
    cal_rows = np.sort(np.random.default_rng(
        derive_seed(config.seed, "detect-benign")).choice(
            benign_rows, size=n_cal, replace=False))
    x_benign = train.features[cal_rows]
    benign_labels = np.zeros(n_cal, dtype=np.int64)

    nll_seed = derive_seed(config.seed, "detect-nll")
    nll_parts = [
        detect.score_nll(cvae_model, ids_model, x_adv, section.k,
                         detect.TAG_ADVERSARIAL, nll_seed, section.label_mode,
                         sample_ids=adv_ids),
        detect.score_nll(cvae_model, ids_model, x_ood, section.k,
                         detect.TAG_OOD, nll_seed, section.label_mode,
                         sample_ids=adv_ids),
        detect.score_nll(cvae_model, ids_model, x_benign, section.k,
                         detect.TAG_BENIGN, nll_seed, section.label_mode,
                         sample_ids=cal_rows),
    ]
    gaussians = detect.fit_gaussians(cvae_model, train, section.shrinkage)
    mahal_parts = [
        detect.score_mahalanobis(gaussians, cvae_model, x_adv,
                                 detect.TAG_ADVERSARIAL, adv_ids),
        detect.score_mahalanobis(gaussians, cvae_model, x_ood,
                                 detect.TAG_OOD, adv_ids),
        detect.score_mahalanobis(gaussians, cvae_model, x_benign,
                                 detect.TAG_BENIGN, cal_rows),
    ]
    regret_config = detect.RegretConfig(
        steps=section.regret.steps,
        learning_rate=section.regret.learning_rate,
        seed=derive_seed(config.seed, "detect-regret"))
    adv_cond = predict_labels_for_regret(ids_model, x_adv, cvae_model)
    ood_cond = predict_labels_for_regret(ids_model, x_ood, cvae_model)
    regret_parts = [
        detect.score_regret(cvae_model, x_adv, adv_cond, regret_config,
                            detect.TAG_ADVERSARIAL, adv_ids),
        detect.score_regret(cvae_model, x_ood, ood_cond, regret_config,
                            detect.TAG_OOD, adv_ids),
        detect.score_regret(cvae_model, x_benign,
                            benign_labels if cvae_model.conditional else None,
                            regret_config, detect.TAG_BENIGN, cal_rows),
    ]
    regret_all = detect.concat_scores(regret_parts)
    scored_mask = regret_all.tags != detect.TAG_BENIGN
    orientation = detect.choose_orientation(
        regret_all.scores[scored_mask], regret_all.for_tag(detect.TAG_BENIGN))
    regret_all = detect.orient_scores(regret_all, orientation)

    paths["scores_csv"].parent.mkdir(parents=True, exist_ok=True)
    nll_all = detect.concat_scores(nll_parts)
    mahal_all = detect.concat_scores(mahal_parts)
    detect.scores_to_csv([nll_all, mahal_all, regret_all],
                         paths["scores_csv"])
    _write_nll_csv(paths["nll_scores_csv"], nll_all, section.k)
    meta = {
        "regret_orientation": orientation,
        "label_mode": section.label_mode,
        "k": section.k,
        "n_per_tag": int(n_keep),
        "n_benign_calibration": int(n_cal),
        "n_regret_invalid": regret_all.n_invalid,
        "operating_point": point,
    }
    _write_json(paths["detect_meta"], meta)
    return [paths["scores_csv"], paths["nll_scores_csv"],
            paths["detect_meta"]], meta


def predict_labels_for_regret(ids_model: ids.IdsModel, batch: np.ndarray,
                              cvae_model: cvae.CvaeModel) -> np.ndarray | None:
    if not cvae_model.conditional:
        return None
    return ids.predict_label(ids_model, batch)


def _write_nll_csv(path: Path, scores: detect.ScoreSet, k: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("sample_id,source_tag,label_used,k,nll\n")
        labels = scores.labels_used
        for i in range(scores.n):
            label = int(labels[i]) if labels is not None else -1
            fh.write(f"{int(scores.sample_ids[i])},{scores.tags[i]},"
                     f"{label},{k},{repr(float(scores.scores[i]))}\n")


def stage_report(config: RunConfig, out_dir: Path) -> tuple[list[Path], dict]:
    paths = _paths(out_dir)
    by_detector = detect.scores_from_csv(paths["scores_csv"])
    with open(paths["detect_meta"], "r", encoding="utf-8") as fh:
        detect_meta = json.load(fh)
    report_dir = paths["report_dir"]
    report_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    aucs = {}
    for name in detect.DETECTORS:
        if name not in by_detector:
            raise DependencyError(f"scores.csv has no rows for detector "
                                  f"'{name}'; rerun 'detect'")
        scores = by_detector[name]
        adv_ood = _drop_tag(scores, detect.TAG_BENIGN)
        curve = detect.roc_auc(adv_ood, detect.TAG_ADVERSARIAL)
        aucs[name] = curve.auc
        roc_path = report_dir / f"roc_{name}.csv"
        detect.roc_to_csv(curve, roc_path)
        hist_path = report_dir / f"hist_{name}.csv"
        detect.histograms_to_csv(
            detect.export_histograms(scores, config.detect.histogram_bins),
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
    _write_json(paths["summary"], summary)
    artifacts.append(paths["summary"])
    return artifacts, {"auc": aucs}


def _drop_tag(scores: detect.ScoreSet, tag: str) -> detect.ScoreSet:
    keep = scores.tags != tag
    return detect.ScoreSet(scores.detector, scores.sample_ids[keep],
                           scores.tags[keep], scores.scores[keep],
                           None if scores.labels_used is None
                           else scores.labels_used[keep])


_STAGE_FUNCTIONS = {
    "data": stage_data,
    "ids": stage_ids,
    "gan": stage_gan,
    "cvae": stage_cvae,
    "sweep": stage_sweep,
    "detect": stage_detect,
    "report": stage_report,
}


def run_stage(stage: str, config: RunConfig, stage_only: bool = False) -> dict:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir)
    manifest.check_requirements(stage, config, out_dir, stage_only)
    started = time.perf_counter()
    artifacts, meta = _STAGE_FUNCTIONS[stage](config, out_dir)
    wall = time.perf_counter() - started
    manifest.payload["config_digest"] = config_digest(config)
    manifest.record(stage, stage_digest(config, stage), artifacts, meta, wall,
                    out_dir)
    return meta


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

_COMMAND_STAGE = {
    "ingest": "data",
    "synth": "data",
    "train-ids": "ids",
    "train-gan": "gan",
    "train-cvae": "cvae",
    "sweep": "sweep",
    "detect": "detect",
    "report": "report",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stealthlab",
        description="UAV telemetry evasion lab: train, attack, detect.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in [
        ("ingest", "load a telemetry CSV, split, scale, write data artifacts"),
        ("synth", "generate the synthetic dataset, split, scale"),
        ("train-ids", "train the intrusion detector"),
        ("train-gan", "train the perturbation generator and discriminator"),
        ("train-cvae", "train the CVAE (and the plain-VAE baseline)"),
        ("sweep", "scan the stealth grid and select an operating point"),
        ("detect", "score adversarial/ood/benign batches with all detectors"),
        ("report", "compute ROC curves, histograms and the AUC summary"),
    ]:
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument("--config", default=None,
                         help="JSON run configuration (defaults apply if "
                              "omitted)")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="global seed (overrides the config)")
        cmd.add_argument("--stage-only", action="store_true",
                         help="trust existing upstream artifacts even if the "
                              "current config no longer matches them")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.out, args.seed)
        if args.command == "ingest" and config.dataset.source != "csv":
            raise ConfigError("ingest requires dataset.source='csv'")
        if args.command == "synth" and config.dataset.source != "synthetic":
            raise ConfigError("synth requires dataset.source='synthetic'")
        stage = _COMMAND_STAGE[args.command]
        meta = run_stage(stage, config, args.stage_only)
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
    except (SchemaError, ParseError, LabelError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
