"""Telemetry dataset handling: CSV in/out, scaling, splits, synthetic data.

A dataset is a float64 feature matrix plus integer labels over the fixed
class vocabulary below (index 0 is always benign). The synthetic generator
builds five Gaussian clusters in the unit hypercube so the whole pipeline
runs, and is exercised in CI, without the recorded telemetry CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import LabelError, ParseError, SchemaError, ShapeError
from .rng import derive_rng

CLASS_NAMES = ["benign", "deauth", "replay", "eviltwin", "fdi"]
N_CLASSES = len(CLASS_NAMES)
N_FEATURES = 30
LABEL_COLUMN = "label"


def one_hot(labels: np.ndarray, n_classes: int = N_CLASSES) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise LabelError(f"label out of range [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass
class Dataset:
    features: np.ndarray                # (n, N_FEATURES) float64
    labels: np.ndarray                  # (n,) int64 indices into class_names
    feature_names: list[str]
    class_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ShapeError("features must be 2-d")
        if self.labels.shape != (self.features.shape[0],):
            raise ShapeError("labels must be 1-d, one per row")
        if len(self.feature_names) != self.features.shape[1]:
            raise ShapeError("one feature name per column required")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= len(self.class_names)):
            raise LabelError("label index outside class vocabulary")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def class_rows(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)

    def subset(self, rows: np.ndarray) -> "Dataset":
        return Dataset(self.features[rows].copy(), self.labels[rows].copy(),
                       list(self.feature_names), list(self.class_names))


def default_feature_names(n: int = N_FEATURES) -> list[str]:
    return [f"f{i:02d}" for i in range(n)]


# ---------------------------------------------------------------------------
# CSV in/out
# ---------------------------------------------------------------------------
# Schema: UTF-8, comma separated, one header row naming N_FEATURES feature
# columns plus a label column called "label" (any position, case-insensitive).
# Label cells hold class names or integer class indices.

def load_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        label_idx = None
        for i, name in enumerate(header):
            if name.lower() == LABEL_COLUMN:
                label_idx = i
                break
        if label_idx is None:
            raise SchemaError(f"{path}: missing column '{LABEL_COLUMN}'")
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        if len(feature_names) != N_FEATURES:
            raise SchemaError(
                f"{path}: expected {N_FEATURES} feature columns, "
                f"found {len(feature_names)}")
        name_to_id = {n.lower(): i for i, n in enumerate(CLASS_NAMES)}
        features = []
        labels = []
        blank_rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                blank_rows.append(row_no)
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {row_no} has {len(row)} cells, "
                    f"expected {len(header)}")
            feats = np.empty(N_FEATURES)
            col = 0
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    feats[col] = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {row_no}, column '{header[i]}': "
                        f"non-numeric cell '{cell.strip()}'") from None
                col += 1
            raw_label = row[label_idx].strip()
            if raw_label.lower() in name_to_id:
                labels.append(name_to_id[raw_label.lower()])
            else:
                try:
                    as_int = int(raw_label)
                except ValueError:
                    raise LabelError(
                        f"{path}: row {row_no}: unknown label '{raw_label}'"
                    ) from None
                if not 0 <= as_int < N_CLASSES:
                    raise LabelError(
                        f"{path}: row {row_no}: label index {as_int} out of range")
                labels.append(as_int)
            features.append(feats)
    if not features:
        raise SchemaError(f"{path}: no data rows")
    features = np.vstack(features)
    # float() accepts "nan" and "inf": one check on the whole matrix, and the
    # cell is located only when it fails
    if not np.isfinite(features).all():
        index, col = np.argwhere(~np.isfinite(features))[0]
        row_no = int(index) + 2
        for blank in blank_rows:        # skipped blank rows shift the count
            row_no += blank <= row_no
        raise ParseError(
            f"{path}: row {row_no}, column '{feature_names[col]}': "
            f"non-finite value {float(features[index, col])}")
    return Dataset(features, np.asarray(labels, dtype=np.int64),
                   feature_names, list(CLASS_NAMES))


def save_csv(path, dataset: Dataset) -> None:
    """Write a dataset in the same schema load_csv reads (labels as names).

    Floats are serialised with repr so a load round-trips bit exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + [LABEL_COLUMN])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row]
                            + [dataset.class_names[label]])


# ---------------------------------------------------------------------------
# min-max scaling
# ---------------------------------------------------------------------------

@dataclass
class ScalerParams:
    feature_names: list[str]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.maxs = np.asarray(self.maxs, dtype=np.float64)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1:
            raise ShapeError("mins/maxs must be matching 1-d arrays")
        if len(self.feature_names) != self.mins.shape[0]:
            raise ShapeError("one feature name per column required")
        if (self.maxs < self.mins).any():
            raise ValueError("max < min for some feature")


def fit_minmax(dataset: Dataset) -> ScalerParams:
    return ScalerParams(list(dataset.feature_names),
                        dataset.features.min(axis=0),
                        dataset.features.max(axis=0))


def apply_minmax(dataset: Dataset, params: ScalerParams) -> Dataset:
    """Map features into [0, 1]; constant columns go to 0, out-of-range clips."""
    if dataset.features.shape[1] != params.mins.shape[0]:
        raise ShapeError("scaler was fit on a different number of features")
    span = params.maxs - params.mins
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = (dataset.features - params.mins) / span
    scaled = np.where(span > 0.0, scaled, 0.0)
    scaled = np.clip(scaled, 0.0, 1.0)
    return Dataset(scaled, dataset.labels.copy(), list(dataset.feature_names),
                   list(dataset.class_names))


def invert_minmax(dataset: Dataset, params: ScalerParams) -> Dataset:
    """Undo apply_minmax for in-range values (constant columns return min)."""
    if dataset.features.shape[1] != params.mins.shape[0]:
        raise ShapeError("scaler was fit on a different number of features")
    span = params.maxs - params.mins
    raw = dataset.features * span + params.mins
    return Dataset(raw, dataset.labels.copy(), list(dataset.feature_names),
                   list(dataset.class_names))


def save_scaler(path, params: ScalerParams) -> None:
    payload = {
        name: {"min": float(lo), "max": float(hi)}
        for name, lo, hi in zip(params.feature_names, params.mins, params.maxs)
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scaler(path) -> ScalerParams:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    names = sorted(payload)
    return ScalerParams(names,
                        np.array([payload[n]["min"] for n in names]),
                        np.array([payload[n]["max"] for n in names]))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def stratified_split(dataset: Dataset, train_fraction: float = 0.8,
                     seed: int = 0) -> tuple[Dataset, Dataset]:
    """Per-class shuffled split; every class lands in both halves."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = derive_rng(seed, "stratified-split")
    train_rows = []
    test_rows = []
    for class_id in range(len(dataset.class_names)):
        rows = dataset.class_rows(class_id)
        if rows.size == 0:
            continue
        if rows.size < 5:
            raise ValueError(
                f"class '{dataset.class_names[class_id]}' has {rows.size} "
                f"samples, need at least 5 to split")
        perm = rng.permutation(rows)
        n_train = int(round(rows.size * train_fraction))
        n_train = min(max(n_train, 1), rows.size - 1)
        train_rows.append(perm[:n_train])
        test_rows.append(perm[n_train:])
    train_idx = np.sort(np.concatenate(train_rows))
    test_idx = np.sort(np.concatenate(test_rows))
    return dataset.subset(train_idx), dataset.subset(test_idx)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

@dataclass
class SyntheticSpec:
    samples_per_class: int = 600
    separation: float = 0.08   # benign/attack mean gap on the contrast block
    std: float = 0.10          # within-class standard deviation, every axis
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.separation <= 0.0:
            raise ValueError("separation must be > 0")
        if self.std <= 0.0:
            raise ValueError("std must be > 0")


# benign-vs-attack contrast lives on the first block of features, the
# attack-family fingerprints on the rest at triple amplitude
CONTRAST_FEATURES = 20
FINGERPRINT_GAIN = 3.0


def synthetic_class_means(separation: float) -> np.ndarray:
    """Class means around 0.5: a shared benign/attack contrast plus
    per-attack-class fingerprints.

    The first CONTRAST_FEATURES coordinates put benign at 0.5 - separation/2
    and every attack class at 0.5 + separation/2. The remaining coordinates
    keep benign centred and give each attack class a distinct sign pattern
    at FINGERPRINT_GAIN/2 times the separation, so attack families stay far
    apart from each other while the benign boundary remains the nearest one.
    Any two means end up at least ~sqrt(20)*separation apart, hence linearly
    separable clusters whenever separation/std >= 6.
    """
    means = np.full((N_CLASSES, N_FEATURES), 0.5)
    means[0, :CONTRAST_FEATURES] -= 0.5 * separation
    means[1:, :CONTRAST_FEATURES] += 0.5 * separation
    tail = np.arange(N_FEATURES - CONTRAST_FEATURES)
    for class_id in range(1, N_CLASSES):
        signs = 1.0 - 2.0 * ((tail >> (class_id - 1)) & 1)
        means[class_id, CONTRAST_FEATURES:] += \
            0.5 * FINGERPRINT_GAIN * separation * signs
    return means


def synth_generate(spec: SyntheticSpec) -> Dataset:
    """Five isotropic Gaussian clusters clipped into the unit hypercube."""
    rng = derive_rng(spec.seed, "synthetic-data")
    means = synthetic_class_means(spec.separation)
    labels = np.repeat(np.arange(N_CLASSES), spec.samples_per_class)
    noise = rng.standard_normal((labels.size, N_FEATURES))
    features = np.clip(means[labels] + spec.std * noise, 0.0, 1.0)
    return Dataset(features, labels, default_feature_names(), list(CLASS_NAMES))
