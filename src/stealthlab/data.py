"""Telemetry dataset handling: CSV in/out, scaling, splits, synthetic data.

A dataset is a float64 feature matrix plus integer labels over the fixed
class vocabulary below (index 0 is always benign). CLASS_NAMES is its only
copy: every module, and every sidecar that records it, reads it from here.
The synthetic generator builds five Gaussian clusters in the unit hypercube
so the whole pipeline runs, and is exercised in CI, without the recorded
telemetry CSV.

`DatasetConfig` is the run config's `dataset` section: where the rows come
from, the train fraction and the synthetic generator's shape. The seed is an
argument, `synth_generate(config, seed)`. `write_json` is the package's one
JSON artifact writer and `read_json` its one reader: a file that is not a
JSON object with the keys and types its reader names, or that names a key
twice in one object, is a ParseError.
`write_csv` is the one CSV artifact writer and `read_csv` the one CSV
reader: the modules that own a CSV format decide its header and rows, and
this one how a cell and a line are written and how a file splits into rows.
Beside `check_keys` and `has_type` sits the one bound rule of the config
sections: a field declares its limits beside its default (`bound`), and
`check_bounds` holds the section to them, NaN and +-inf outside every
limit.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import types
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError
from .rng import derive_rng

CLASS_NAMES = ["benign", "deauth", "replay", "eviltwin", "fdi"]
N_CLASSES = len(CLASS_NAMES)
N_FEATURES = 30
LABEL_COLUMN = "label"


def one_hot(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= N_CLASSES):
        raise ParseError(f"label out of range [0, {N_CLASSES})")
    out = np.zeros((labels.shape[0], N_CLASSES))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


@dataclass
class Dataset:
    features: np.ndarray                # (n, N_FEATURES) float64
    labels: np.ndarray                  # (n,) int64 indices into CLASS_NAMES
    feature_names: list[str]

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
                                 or self.labels.max() >= N_CLASSES):
            raise ParseError("label index outside class vocabulary")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def class_rows(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id)

    def subset(self, rows: np.ndarray) -> "Dataset":
        """The rows at `rows`, an index array, so the result is a copy."""
        return Dataset(self.features[rows], self.labels[rows],
                       list(self.feature_names))


def default_feature_names(n: int = N_FEATURES) -> list[str]:
    return [f"f{i:02d}" for i in range(n)]


# ---------------------------------------------------------------------------
# CSV in/out
# ---------------------------------------------------------------------------
# Schema: UTF-8, comma separated, one header row naming N_FEATURES feature
# columns plus a label column called "label" (any position, case-insensitive),
# each name once.
# Label cells hold class names or integer class indices.

def read_csv(path):
    """Yield `path`'s header cells (None for an empty file), then (row
    number, cells) for each row after it; a blank row is skipped but counted.
    A leading UTF-8 byte-order mark is dropped. Bytes that are not UTF-8, a
    row the csv module cannot split (such as a cell over its field size
    limit) or a row of another width than the header are a ParseError naming
    the file."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            yield header
            for row_no, cells in enumerate(reader, start=2):
                if not cells:
                    continue
                if len(cells) != len(header):
                    raise ParseError(
                        f"{path}: row {row_no} has {len(cells)} cells, "
                        f"expected {len(header)}")
                yield row_no, cells
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {reader.line_num}: {exc}") from None


def load_csv(path) -> Dataset:
    rows = read_csv(path)
    header = next(rows)
    if header is None:
        raise ParseError(f"{path}: empty file, header row required")
    header = [h.strip() for h in header]
    label_idx = next((i for i, name in enumerate(header)
                      if name.lower() == LABEL_COLUMN), None)
    if label_idx is None:
        raise ParseError(f"{path}: missing column '{LABEL_COLUMN}'")
    feature_names = header[:label_idx] + header[label_idx + 1:]
    repeated = [name for i, name in enumerate(feature_names)
                if name in feature_names[:i] or name.lower() == LABEL_COLUMN]
    if repeated:
        raise ParseError(f"{path}: repeated column '{repeated[0]}'")
    if len(feature_names) != N_FEATURES:
        raise ParseError(
            f"{path}: expected {N_FEATURES} feature columns, "
            f"found {len(feature_names)}")
    name_to_id = {n.lower(): i for i, n in enumerate(CLASS_NAMES)}
    features, labels = [], []
    for row_no, cells in rows:
        raw_label = cells.pop(label_idx).strip()
        # one parse per row, float()'s bits; a cell is located only when
        # the row fails
        try:
            feats = np.array(cells, dtype=np.float64)
        except ValueError:
            feats = None
        if feats is None or not np.isfinite(feats).all():
            raise _bad_cell(f"{path}: row {row_no}", feature_names, cells)
        label = name_to_id.get(raw_label.lower())
        if label is None:
            try:
                label = int(raw_label)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}: unknown label '{raw_label}'"
                ) from None
            if not 0 <= label < N_CLASSES:
                raise ParseError(
                    f"{path}: row {row_no}: label index {label} out of range")
        features.append(feats)
        labels.append(label)
    if not features:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.vstack(features), np.asarray(labels, dtype=np.int64),
                   feature_names)


def _bad_cell(where: str, names: list[str], cells: list[str]) -> ParseError:
    """The error for a row's first cell that is not a finite number."""
    for name, cell in zip(names, cells):
        try:
            value = float(cell)
        except ValueError:
            return ParseError(f"{where}, column '{name}': "
                              f"non-numeric cell '{cell.strip()}'")
        if not np.isfinite(value):
            return ParseError(f"{where}, column '{name}': "
                              f"non-finite value {value}")
    raise AssertionError("unreachable: the row holds no bad cell")


def save_csv(path, dataset: Dataset) -> None:
    """Write a dataset in the same schema load_csv reads (labels as names)."""
    # row by row: the whole matrix as Python floats raises peak memory by MiBs
    write_csv(path, list(dataset.feature_names) + [LABEL_COLUMN],
              (row.tolist() + [CLASS_NAMES[label]] for row, label in
               zip(dataset.features, dataset.labels)))


def write_csv(path, header: list[str], rows, lineterminator="\r\n") -> None:
    """`header`, then a line per row, through `atomic_write`: a bool cell is
    `true`/`false`, an integer (numpy's too) bare, a string as it is, and
    any other number the repr of its float, so it loads back bit for bit."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        for row in rows:
            # most cells are floats: one type test, no call, for those
            writer.writerow([repr(v) if type(v) is float else _cell(v)
                             for v in row])


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return value if isinstance(value, str) else repr(float(value))


# ---------------------------------------------------------------------------
# min-max scaling
# ---------------------------------------------------------------------------

@dataclass
class ScalerParams:
    feature_names: list[str]
    mins: np.ndarray
    maxs: np.ndarray


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
    return Dataset(scaled, dataset.labels.copy(), list(dataset.feature_names))


def save_scaler(path, params: ScalerParams) -> None:
    write_json(path, {
        name: {"min": float(lo), "max": float(hi)}
        for name, lo, hi in zip(params.feature_names, params.mins, params.maxs)
    })


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temp file beside `path` ("w" for UTF-8 text with untranslated
    newlines, "wb" for bytes) and swap it in with os.replace when the block
    ends, so a failed write leaves any previous file whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    text = {"encoding": "utf-8", "newline": ""} if "b" not in mode else {}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, payload: dict) -> None:
    """Sorted, indented JSON, written through `atomic_write`."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, keys: dict | None = None) -> dict:
    """The JSON object in `path`, with the `keys` ({key: type hint}) that
    `check_keys` checks; anything else is a ParseError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=unique_keys)
    except ValueError as exc:   # invalid JSON, bad UTF-8 or a repeated key
        raise ParseError(f"{path}: not valid JSON ({exc})") from None
    return check_keys(payload, keys or {}, str(path))


def unique_keys(pairs: list[tuple]) -> dict:
    """`json.load`'s object_pairs_hook: the object as a dict, a ValueError
    if it names a key twice (`json.load` alone keeps the last value)."""
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f"repeated key '{key}'")
        payload[key] = value
    return payload


def check_keys(payload, keys: dict, where: str) -> dict:
    """`payload` if it is a dict holding every key in `keys` with a value of
    the key's type (`has_type`); otherwise a ParseError naming `where`."""
    if not isinstance(payload, dict):
        raise ParseError(f"{where}: expected a JSON object, got "
                         f"{json.dumps(payload)[:60]}")
    for key, hint in keys.items():
        if key not in payload:
            raise ParseError(f"{where}: missing key '{key}'")
        if not has_type(payload[key], hint):
            raise ParseError(
                f"{where}: '{key}' must be of type "
                f"{hint.__name__ if isinstance(hint, type) else hint}, "
                f"got {json.dumps(payload[key])[:60]}")
    return payload


def has_type(value, hint) -> bool:
    """isinstance against a type hint: a bool is not an int, an int passes
    for a float (unconverted, so digests do not move), list elements and
    `X | None` unions are checked too."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return isinstance(value, list) and all(has_type(v, args[0])
                                               for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(has_type(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


# each limit's test, its sign alone and its bracket as one end of a range
_LIMITS = {"min": (operator.ge, ">=", "["), "gt": (operator.gt, ">", "("),
           "max": (operator.le, "<=", "]"), "lt": (operator.lt, "<", ")")}


def bound(default, **limits):
    """A dataclass field with `default` (a list is copied for each instance)
    and the `limits` that `check_bounds` holds each of its values to:
    inclusive `min`/`max`, exclusive `gt`/`lt`, or `choices`."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=limits)
    return field(default=default, metadata=limits)


def check_bounds(config) -> None:
    """ValueError naming the first field of the dataclass `config`, in
    declaration order, with a value (or, for a list, an element) outside its
    `bound` limits. NaN and +-inf are outside every limit."""
    for spec in fields(config):
        value, limits = getattr(config, spec.name), spec.metadata
        values = value if isinstance(value, list) else [value]
        ends = [(key, limits[key]) for key in _LIMITS if key in limits]
        if "choices" in limits:
            if value in limits["choices"]:
                continue
            rule = " or ".join(map(repr, limits["choices"]))
        elif all(-np.inf < v < np.inf and _LIMITS[key][0](v, limit)
                 for v in values for key, limit in ends):
            continue
        elif len(ends) == 1:
            (key, limit), = ends
            rule = f"{_LIMITS[key][1]} {limit:.3g}"
        else:
            (lo, low), (hi, high) = ends
            rule = f"in {_LIMITS[lo][2]}{low:.3g}, {high:.3g}{_LIMITS[hi][2]}"
        subject = spec.name + (" values" if isinstance(value, list) else "")
        raise ValueError(f"{subject} must be {rule}")


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def stratified_split(dataset: Dataset, train_fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Per-class shuffled split; every class lands in both halves."""
    rng = derive_rng(seed, "stratified-split")
    train_rows = []
    test_rows = []
    for class_id in range(N_CLASSES):
        rows = dataset.class_rows(class_id)
        if rows.size == 0:
            continue
        if rows.size < 5:
            raise ParseError(
                f"class '{CLASS_NAMES[class_id]}' has {rows.size} "
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
class DatasetConfig:
    source: str = bound("synthetic", choices=("synthetic", "csv"))
    csv_path: str | None = None
    train_fraction: float = bound(0.8, gt=0.0, lt=1.0)
    samples_per_class: int = bound(600, min=1)
    separation: float = bound(0.08, gt=0.0)  # benign/attack mean contrast gap
    std: float = bound(0.10, gt=0.0)  # within-class std dev on every axis

    def __post_init__(self):
        check_bounds(self)
        if self.source == "csv" and not self.csv_path:
            raise ValueError("csv_path is required when source='csv'")


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


def synth_generate(config: DatasetConfig, seed: int) -> Dataset:
    """Five isotropic Gaussian clusters clipped into the unit hypercube."""
    rng = derive_rng(seed, "synthetic-data")
    means = synthetic_class_means(config.separation)
    labels = np.repeat(np.arange(N_CLASSES), config.samples_per_class)
    noise = rng.standard_normal((labels.size, N_FEATURES))
    features = np.clip(means[labels] + config.std * noise, 0.0, 1.0)
    return Dataset(features, labels, default_feature_names())
