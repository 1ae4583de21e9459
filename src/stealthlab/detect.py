"""Detectors that separate crafted evasions from ordinary out-of-distribution
noise, plus ROC tooling: `roc_auc` takes the curve and its AUC from one
sorted pass over finite scores.

Three scores, all oriented so that higher means "more likely adversarial":

* nll          importance-weighted negative log-likelihood under the CVAE,
               conditioned on the intrusion detector's predicted label
               (or the minimum over all labels);
* mahalanobis  minimum over classes of the Mahalanobis distance between the
               encoder mean and a per-class Gaussian fit on training data;
* regret       ELBO improvement from a short Adam refit of the row's
               posterior (mu, log-variance) with the decoder and the
               encoder frozen: the amortization gap of the encoder, under
               the KL weight the CVAE was trained with; its sign is
               calibrated once against benign reference scores. A
               population's posteriors are refit together, as one array
               with one decoder batch per step, each row with its own
               gradient; a population whose refit diverges is rescored row
               by row. Scores move at the 1e-14 relative level between
               batch sizes, since BLAS picks its kernels by batch size.

Each detector scores a batch and returns one value per row, in row order.
Every call into `cvae` passes labels, one per row, whether the model is a
CVAE or a plain VAE: `cvae` alone knows that a plain VAE ignores them, and
`cvae.label_key` keys a row's regret noise as it keys its NLL draws.
This module owns the score table and the regret sign: `score_table` scores
each (tag, rows, sample ids) population it is given, runs the IDS once per
population, conditions the NLL on its prediction and the regret refits on
it too (benign rows on benign, whatever the IDS says of them), names the
tag when a detector fails, joins the parts in population order and picks
the regret sign by the table's benign rows. `DetectConfig` is the run config's
`detect` section. This module also owns both score file formats: `scores.csv`
(finite scores of a known tag and detector under its own header) and
`nll_scores.csv`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .cvae import CvaeModel, elbo_loss, encode, iwae_batch, label_key
from .data import (CLASS_NAMES, N_CLASSES, Dataset, bound, check_bounds,
                   read_csv, write_csv)
from .errors import NumericError, ParseError, ShapeError
from .ids import predict_label
from .rng import derive_seed, stable_hash

log = logging.getLogger(__name__)

TAG_ADVERSARIAL = "adversarial"
TAG_OOD = "ood"
TAG_BENIGN = "benign"
TAGS = (TAG_ADVERSARIAL, TAG_OOD, TAG_BENIGN)
DETECTORS = ("nll", "mahalanobis", "regret")


@dataclass
class RegretConfig:
    steps: int = bound(100, min=1)
    learning_rate: float = bound(0.05, gt=0.0)   # posterior Adam step size

    __post_init__ = check_bounds


@dataclass
class DetectConfig:
    k: int = bound(50, min=1)
    label_mode: str = bound("ids", choices=("ids", "min"))
    max_samples_per_tag: int = bound(192, min=2)
    benign_calibration: int = bound(64, min=2)
    shrinkage: float = bound(0.1, min=0.0, max=1.0)
    histogram_bins: int = bound(40, min=2)
    regret: RegretConfig = field(default_factory=RegretConfig)

    __post_init__ = check_bounds


@dataclass
class ScoreTable:
    """One row per (population, row), in population order."""
    tags: np.ndarray
    sample_ids: np.ndarray
    scores: dict[str, np.ndarray]   # {detector: scores}, in DETECTORS order
    nll_labels: np.ndarray          # the label each nll score is under
    regret_orientation: int
    n_regret_invalid: int


def score_table(populations: list[tuple], model: CvaeModel, ids_net: nn.Mlp,
                train: Dataset, config: DetectConfig, seed: int, *,
                kl_weight: float) -> ScoreTable:
    """Every detector over every (tag, rows, sample ids) population, the IDS
    run once on each: nll conditioned on its prediction, regret on benign (0)
    for benign rows and on the prediction for the rest; a NumericError, or a
    population whose every regret refit diverged, names the tag. The regret
    sign is `choose_orientation`'s."""
    gaussians = fit_gaussians(model, train, config.shrinkage)
    nll_seed = derive_seed(seed, "detect-nll")
    regret_seed = derive_seed(seed, "detect-regret")
    parts, n_invalid = [], 0
    for tag, x, sid in populations:
        try:
            predicted = predict_label(ids_net, x)
            labels = (np.zeros(len(x), dtype=np.int64) if tag == TAG_BENIGN
                      else predicted)
            nll, labels_used = score_nll(model, x, predicted, config.k,
                                         nll_seed, config.label_mode)
            mahal = score_mahalanobis(gaussians, model, x)
            regret = score_regret(model, x, labels, config.regret,
                                  regret_seed, kl_weight=kl_weight)
            if not np.isfinite(regret.scores).any():
                raise NumericError("every regret refit diverged")
        except NumericError as exc:
            raise NumericError(
                f"scoring failed for tag '{tag}': {exc}") from exc
        parts.append((np.full(x.shape[0], tag, dtype=object), sid,
                      labels_used, nll, mahal, regret.scores))
        n_invalid += regret.n_invalid
    tags, sample_ids, labels_used, nll, mahal, regret = map(np.concatenate,
                                                            zip(*parts))
    valid = np.isfinite(regret)
    orientation = choose_orientation(regret[valid & (tags != TAG_BENIGN)],
                                     regret[valid & (tags == TAG_BENIGN)])
    scores = dict(zip(DETECTORS, (nll, mahal, orientation * regret)))
    return ScoreTable(tags, sample_ids, scores, labels_used, orientation,
                      n_invalid)


# ---------------------------------------------------------------------------
# NLL detector
# ---------------------------------------------------------------------------

def score_nll(model: CvaeModel, batch: np.ndarray, labels: np.ndarray,
              k: int, seed: int,
              label_mode: str) -> tuple[np.ndarray, np.ndarray]:
    """(importance-weighted NLL, label conditioned on) per row, the least
    over the candidate labels: the rows' `labels` ("ids" `label_mode`, or a
    plain VAE; `score_table` passes the intrusion detector's prediction) or,
    in "min" mode, every label. Labels of another count than the rows are a
    ShapeError."""
    if len(labels) != len(batch):
        raise ShapeError(f"{len(labels)} labels for {len(batch)} rows")
    if label_mode == "ids" or not model.conditional:
        candidates = labels[None, :]
    else:
        candidates = np.arange(N_CLASSES)[:, None].repeat(batch.shape[0], 1)
    per_label = -np.stack([iwae_batch(model, batch, candidate, k, seed)
                           for candidate in candidates])
    return per_label.min(axis=0), np.choose(per_label.argmin(axis=0),
                                            candidates)


# ---------------------------------------------------------------------------
# Mahalanobis detector
# ---------------------------------------------------------------------------

@dataclass
class GaussianClassModel:
    means: np.ndarray        # (N_CLASSES, latent_dim)
    choleskys: np.ndarray    # (N_CLASSES, latent_dim, latent_dim), lower


def fit_gaussians(model: CvaeModel, train: Dataset,
                  shrinkage: float) -> GaussianClassModel:
    """Per-class Gaussian over encoder means, with diagonal shrinkage
    cov <- (1 - lambda) cov + lambda diag(cov) to keep it invertible."""
    latent = model.latent_dim
    means = np.empty((N_CLASSES, latent))
    chols = np.empty((N_CLASSES, latent, latent))
    for class_id in range(N_CLASSES):
        rows = train.class_rows(class_id)
        if rows.size < 2:
            raise ParseError(
                f"class '{CLASS_NAMES[class_id]}' has {rows.size} "
                f"training rows, need at least 2 to fit a covariance")
        # for the stage's peak memory, one (rows x latent) array per class:
        # a copy of the encoder means, so the encoder output and the
        # log-variance go at once, centred in place, dropped before the
        # shrinkage
        centered = encode(model, train.features[rows],
                          train.labels[rows])[0].copy()
        means[class_id] = centered.mean(axis=0)
        centered -= means[class_id]
        cov = centered.T @ centered / (rows.size - 1)
        del centered
        cov = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
        try:
            chols[class_id] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NumericError(
                f"covariance for class '{CLASS_NAMES[class_id]}' is "
                f"not positive definite after shrinkage") from None
    return GaussianClassModel(means, chols)


def score_mahalanobis(gaussians: GaussianClassModel, model: CvaeModel,
                      batch: np.ndarray) -> np.ndarray:
    """Min over classes of sqrt((u - mean_c)^T cov_c^-1 (u - mean_c)), where
    u is the encoder mean of the row under that class's label."""
    n_classes = gaussians.means.shape[0]
    distances = np.empty((n_classes, batch.shape[0]))
    for class_id in range(n_classes):
        labels = np.full(batch.shape[0], class_id, dtype=np.int64)
        latents, _ = encode(model, batch, labels)
        diff = latents - gaussians.means[class_id]
        # solve L y = diff^T, then dist^2 = sum y^2 (cov = L L^T)
        y = np.linalg.solve(gaussians.choleskys[class_id], diff.T)
        distances[class_id] = np.sqrt((y * y).sum(axis=0))
    return distances.min(axis=0)


# ---------------------------------------------------------------------------
# likelihood-regret detector
# ---------------------------------------------------------------------------

@dataclass
class RegretScores:
    scores: np.ndarray      # one per row, NaN where the refit diverged
    n_invalid: int


def score_regret(model: CvaeModel, batch: np.ndarray, labels: np.ndarray,
                 config: RegretConfig, seed: int, *,
                 kl_weight: float) -> RegretScores:
    """Best ELBO improvement from `steps` Adam steps on each sample's
    posterior (likelihood regret, Xiao, Yan & Amit 2020).

    The batch is refit together: the rows' posteriors [mu | log-variance]
    start at the encoder's output as one (n, 2 * latent_dim) array, and one
    optimiser steps it through `elbo_loss(..., posterior=)` under
    `kl_weight`, which should be the weight the model was trained with.
    The posterior gradient is scaled by n, which turns the batch-mean
    gradient into each row's own, so each row follows its own refit; each
    row's best is kept from `ElboResult.rows`. The reparameterization draw
    is frozen and seeded from the sample's content and `label_key`, and the
    reported regret is best-minus-initial, so it is never negative. Only the
    posteriors and their optimiser change; nothing is written to the model.

    A row's score does not depend on the other rows, but BLAS picks its
    kernels by batch size, so scores move at the 1e-14 relative level
    between a batch and its rows scored alone. If the batch refit diverges,
    each row is refit alone; a sample whose own refit diverges scores NaN
    and is counted in n_invalid. Labels of another count than the rows are
    a ShapeError.
    """
    if len(labels) != len(batch):
        raise ShapeError(f"{len(labels)} labels for {len(batch)} rows")
    noise = np.empty((len(batch), model.latent_dim))
    for row, label, draw in zip(batch, labels, noise):
        np.random.default_rng(stable_hash(
            seed, "regret", row.tobytes(), label_key(model, label))
        ).standard_normal(out=draw)
    try:
        scores = _refit(model, batch, labels, noise, config, kl_weight)
    except NumericError:
        scores = np.full(len(batch), np.nan)
        for i in range(len(batch)):
            try:
                scores[i:i + 1] = _refit(model, batch[i:i + 1],
                                         labels[i:i + 1], noise[i:i + 1],
                                         config, kl_weight)
            except NumericError:
                pass
    n_invalid = int(np.isnan(scores).sum())
    if n_invalid:
        log.warning("regret scoring dropped %d diverged sample(s)", n_invalid)
    return RegretScores(scores, n_invalid)


def _refit(model: CvaeModel, x: np.ndarray, labels: np.ndarray,
           noise: np.ndarray, config: RegretConfig,
           kl_weight: float) -> np.ndarray:
    """Each row's best-minus-initial negative loss over `config.steps` Adam
    steps on the rows' posteriors, stepped as one array."""
    post = np.hstack(encode(model, x, labels))
    optimiser = nn.adam_init([post], config.learning_rate)
    result = elbo_loss(model, x, labels, noise=noise, kl_weight=kl_weight,
                       posterior=post)
    initial = best = -result.rows
    for step in range(1, config.steps + 1):
        result.grads[0] *= len(x)     # each row's own gradient
        nn.adam_step(optimiser, [post], result.grads)
        result = elbo_loss(model, x, labels, noise=noise,
                           kl_weight=kl_weight,
                           with_grads=step < config.steps, posterior=post)
        best = np.maximum(best, -result.rows)
    return best - initial


def choose_orientation(scored: np.ndarray, benign_reference: np.ndarray) -> int:
    """+1 if the scored population already sits above the benign reference
    median (higher = adversarial holds as-is), else -1 to flip it."""
    if scored.size == 0 or benign_reference.size == 0:
        raise ValueError("need both scored and benign reference values")
    return 1 if np.median(scored) >= np.median(benign_reference) else -1


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    thresholds: np.ndarray   # descending, +inf first for the (0, 0) point
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_auc(scores: np.ndarray, positive: np.ndarray) -> RocCurve:
    """Threshold sweep over the distinct scores in one sorted pass; classify
    as positive when score >= threshold. `positive` marks the positive rows.
    The AUC is a doubled integer pair count divided once, so ties contribute
    exactly one half. A non-finite score, or a mask whose shape is not the
    scores', is a ValueError.
    """
    # an int mask under ~ below would count false positives wrongly
    positive = np.asarray(positive, dtype=bool)
    if positive.shape != scores.shape:
        raise ValueError(f"positive mask has shape {positive.shape}, "
                         f"scores have {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n_pos = int(positive.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("scores must contain at least one positive and one "
                         "negative row")
    order = np.argsort(-scores, kind="stable")
    ranked, hits = scores[order], positive[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    ends = np.r_[starts[1:], ranked.size] - 1
    tp = np.r_[0, np.cumsum(hits)[ends]]
    fp = np.r_[0, np.cumsum(~hits)[ends]]
    area2 = int((np.diff(fp) * (tp[1:] + tp[:-1])).sum())
    return RocCurve(np.r_[np.inf, ranked[starts]], fp / n_neg, tp / n_pos,
                    area2 / (2 * n_pos * n_neg))


# ---------------------------------------------------------------------------
# histograms and CSV export
# ---------------------------------------------------------------------------

def export_histograms(scores: np.ndarray, tags: np.ndarray,
                      bins: int) -> dict:
    """Per-tag counts over shared bin edges spanning all scores."""
    if scores.size == 0:
        raise ValueError("no scores to histogram")
    lo = float(scores.min())
    hi = float(scores.max())
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = {}
    for tag in sorted(set(tags.tolist())):
        counts[tag], _ = np.histogram(scores[tags == tag], bins=edges)
    return {"edges": edges, "counts": counts}


SCORES_CSV_COLUMNS = ["sample_id", "tag", "detector", "score"]


def scores_to_csv(path, sample_ids: np.ndarray, tags: np.ndarray,
                  scores: dict[str, np.ndarray]) -> None:
    """One row per (detector, row) with a finite score, detectors in the
    order of `scores`, rows in table order."""
    write_csv(path, SCORES_CSV_COLUMNS, [
        (sid, tag, detector, score) for detector, values in scores.items()
        for sid, tag, score in zip(sample_ids, tags, values)
        if np.isfinite(score)])


def scores_from_csv(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """{detector: (tags, scores)} from a scores.csv. A header other than
    SCORES_CSV_COLUMNS, a row of another width, a sample id that is not a
    non-negative integer or repeats with its tag and detector, a tag outside
    TAGS, a detector outside DETECTORS, a non-finite or non-numeric score, or
    non-UTF-8 bytes are a ParseError naming the file (and row); a blank row
    is skipped, as `read_csv` skips it."""
    by_detector: dict[str, tuple[list, list]] = {}
    first_row: dict[tuple, int] = {}    # (sample id, tag, detector) -> row
    rows = read_csv(path)
    header = next(rows)
    if header != SCORES_CSV_COLUMNS:
        raise ParseError(f"{path}: header {header} is not "
                         f"{SCORES_CSV_COLUMNS}")
    for row_no, (sid, tag, detector, cell) in rows:
        if not (sid.isascii() and sid.isdigit()):
            raise ParseError(f"{path}: row {row_no}: sample_id '{sid}' "
                             f"is not a non-negative integer")
        if tag not in TAGS:
            raise ParseError(f"{path}: row {row_no}: unknown tag '{tag}', "
                             f"expected one of {list(TAGS)}")
        if detector not in DETECTORS:
            raise ParseError(f"{path}: row {row_no}: unknown detector "
                             f"'{detector}', expected one of "
                             f"{list(DETECTORS)}")
        earlier = first_row.setdefault((int(sid), tag, detector), row_no)
        if earlier != row_no:
            raise ParseError(f"{path}: row {row_no} repeats the sample_id,"
                             f" tag and detector of row {earlier}")
        try:
            score = float(cell)
        except ValueError:
            raise ParseError(f"{path}: row {row_no}: non-numeric score "
                             f"'{cell}'") from None
        if not np.isfinite(score):
            raise ParseError(f"{path}: row {row_no}: non-finite score "
                             f"{score}")
        tags, scores = by_detector.setdefault(detector, ([], []))
        tags.append(tag)
        scores.append(score)
    return {detector: (np.array(tags, dtype=object), np.array(scores))
            for detector, (tags, scores) in by_detector.items()}


def nll_scores_to_csv(path, table: ScoreTable, k: int) -> None:
    write_csv(path, ["sample_id", "source_tag", "label_used", "k", "nll"],
              zip(table.sample_ids, table.tags, table.nll_labels,
                  [k] * len(table.tags), table.scores["nll"]), "\n")


def histograms_to_csv(hist: dict, path) -> None:
    edges = hist["edges"]
    write_csv(path, ["tag", "bin_lo", "bin_hi", "count"], [
        (tag, lo, hi, count) for tag in sorted(hist["counts"])
        for lo, hi, count in zip(edges[:-1], edges[1:], hist["counts"][tag])])
