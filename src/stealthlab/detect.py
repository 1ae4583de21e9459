"""Detectors that separate crafted evasions from ordinary out-of-distribution
noise, plus ROC tooling.

Three scores, all oriented so that higher means "more likely adversarial":

* nll          importance-weighted negative log-likelihood under the CVAE,
               conditioned on the intrusion detector's predicted label
               (or the minimum over all labels);
* mahalanobis  minimum over classes of the Mahalanobis distance between the
               encoder mean and a per-class Gaussian fit on training data;
* regret       ELBO improvement from a short per-sample encoder-only refit;
               its sign is calibrated once against benign reference scores.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from . import nn
from .cvae import CvaeModel, elbo_loss, encode, iwae_batch
from .data import Dataset
from .errors import NumericError, ShapeError
from .ids import IdsModel, predict_label
from .rng import stable_hash

log = logging.getLogger(__name__)

TAG_ADVERSARIAL = "adversarial"
TAG_OOD = "ood"
TAG_BENIGN = "benign"
DETECTORS = ("nll", "mahalanobis", "regret")


@dataclass
class RegretConfig:
    steps: int = 100
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class ScoreSet:
    detector: str
    sample_ids: np.ndarray       # int ids, unique within a tag
    tags: np.ndarray             # source tag per row
    scores: np.ndarray
    labels_used: np.ndarray | None = None   # conditioning label, where defined
    n_invalid: int = 0

    def __post_init__(self):
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        self.tags = np.asarray(self.tags, dtype=object)
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not (self.sample_ids.shape == self.tags.shape
                == self.scores.shape):
            raise ShapeError("sample_ids, tags and scores must align")

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    def for_tag(self, tag: str) -> np.ndarray:
        return self.scores[self.tags == tag]


def concat_scores(parts: list[ScoreSet]) -> ScoreSet:
    if not parts:
        raise ValueError("nothing to concatenate")
    detector = parts[0].detector
    if any(p.detector != detector for p in parts):
        raise ValueError("cannot concatenate different detectors")
    labels = None
    if all(p.labels_used is not None for p in parts):
        labels = np.concatenate([p.labels_used for p in parts])
    return ScoreSet(detector,
                    np.concatenate([p.sample_ids for p in parts]),
                    np.concatenate([p.tags for p in parts]),
                    np.concatenate([p.scores for p in parts]),
                    labels, sum(p.n_invalid for p in parts))


# ---------------------------------------------------------------------------
# NLL detector
# ---------------------------------------------------------------------------

def score_nll(model: CvaeModel, ids_model: IdsModel, batch: np.ndarray,
              k: int = 50, tag: str = TAG_ADVERSARIAL, seed: int = 0,
              label_mode: str = "ids",
              sample_ids: np.ndarray | None = None) -> ScoreSet:
    """Importance-weighted NLL per row, conditioned per `label_mode`:
    "ids" uses the intrusion detector's predicted label, "min" scores under
    every label and keeps the smallest NLL."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if sample_ids is None:
        sample_ids = np.arange(batch.shape[0])
    if label_mode not in ("ids", "min"):
        raise ValueError("label_mode must be 'ids' or 'min'")
    try:
        if label_mode == "ids" or not model.conditional:
            labels = predict_label(ids_model, batch)
            est = iwae_batch(model, batch,
                             labels if model.conditional else None, k, seed)
            scores = est.nll
        else:
            per_label = np.stack([
                iwae_batch(model, batch,
                           np.full(batch.shape[0], c, dtype=np.int64),
                           k, seed).nll
                for c in range(model.n_classes)
            ])
            scores = per_label.min(axis=0)
            labels = per_label.argmin(axis=0)
    except NumericError as exc:
        raise NumericError(f"nll scoring failed for tag '{tag}': {exc}") from exc
    return ScoreSet("nll", np.asarray(sample_ids),
                    np.full(batch.shape[0], tag, dtype=object), scores,
                    labels_used=np.asarray(labels, dtype=np.int64))


# ---------------------------------------------------------------------------
# Mahalanobis detector
# ---------------------------------------------------------------------------

@dataclass
class GaussianClassModel:
    means: np.ndarray        # (n_classes, latent_dim)
    choleskys: np.ndarray    # (n_classes, latent_dim, latent_dim), lower
    shrinkage: float


def fit_gaussians(model: CvaeModel, train: Dataset,
                  shrinkage: float = 0.1) -> GaussianClassModel:
    """Per-class Gaussian over encoder means, with diagonal shrinkage
    cov <- (1 - lambda) cov + lambda diag(cov) to keep it invertible."""
    if not 0.0 <= shrinkage <= 1.0:
        raise ValueError("shrinkage must be in [0, 1]")
    n_classes = len(train.class_names)
    latent = model.latent_dim
    means = np.empty((n_classes, latent))
    chols = np.empty((n_classes, latent, latent))
    for class_id in range(n_classes):
        rows = train.class_rows(class_id)
        if rows.size < 2:
            raise ValueError(
                f"class '{train.class_names[class_id]}' has {rows.size} "
                f"rows, need at least 2 to fit a covariance")
        latents, _ = encode(model, train.features[rows],
                            train.labels[rows] if model.conditional else None)
        means[class_id] = latents.mean(axis=0)
        centered = latents - means[class_id]
        cov = centered.T @ centered / (rows.size - 1)
        cov = (1.0 - shrinkage) * cov + shrinkage * np.diag(np.diag(cov))
        try:
            chols[class_id] = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NumericError(
                f"covariance for class '{train.class_names[class_id]}' is "
                f"not positive definite after shrinkage") from None
    return GaussianClassModel(means, chols, shrinkage)


def score_mahalanobis(gaussians: GaussianClassModel, model: CvaeModel,
                      batch: np.ndarray, tag: str = TAG_ADVERSARIAL,
                      sample_ids: np.ndarray | None = None) -> ScoreSet:
    """Min over classes of sqrt((u - mean_c)^T cov_c^-1 (u - mean_c)), where
    u is the encoder mean of the row under that class's label."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if sample_ids is None:
        sample_ids = np.arange(batch.shape[0])
    n_classes = gaussians.means.shape[0]
    distances = np.empty((n_classes, batch.shape[0]))
    for class_id in range(n_classes):
        labels = np.full(batch.shape[0], class_id, dtype=np.int64)
        latents, _ = encode(model, batch,
                            labels if model.conditional else None)
        diff = latents - gaussians.means[class_id]
        # solve L y = diff^T, then dist^2 = sum y^2 (cov = L L^T)
        y = np.linalg.solve(gaussians.choleskys[class_id], diff.T)
        distances[class_id] = np.sqrt((y * y).sum(axis=0))
    scores = distances.min(axis=0)
    return ScoreSet("mahalanobis", np.asarray(sample_ids),
                    np.full(batch.shape[0], tag, dtype=object), scores)


# ---------------------------------------------------------------------------
# likelihood-regret detector
# ---------------------------------------------------------------------------

def score_regret(model: CvaeModel, batch: np.ndarray,
                 labels: np.ndarray | None, config: RegretConfig,
                 tag: str = TAG_ADVERSARIAL,
                 sample_ids: np.ndarray | None = None) -> ScoreSet:
    """Best ELBO improvement from `steps` encoder-only Adam refits per sample.

    Each sample gets a frozen reparameterization draw seeded from its
    content, and the reported regret is best-minus-initial, so it is never
    negative. One work copy of the encoder and one Adam state serve every
    sample: before each refit the copy gets the trained weights back and
    the optimiser its initial state. Each step backpropagates the decoder
    for its input gradient only. Samples whose refit diverges are dropped
    and counted in n_invalid.
    """
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if sample_ids is None:
        sample_ids = np.arange(batch.shape[0])
    sample_ids = np.asarray(sample_ids, dtype=np.int64)
    kept_ids, kept_tags, kept_scores, kept_labels = [], [], [], []
    n_invalid = 0
    work = CvaeModel(model.encoder.copy(), model.decoder, model.latent_dim,
                     model.conditional, model.n_classes)
    trained, refit = model.encoder.params(), work.encoder.params()
    optimiser = nn.adam_init(refit, config.learning_rate)
    for i, row in enumerate(batch):
        label = None if labels is None else int(labels[i])
        row_seed = stable_hash(config.seed, "regret", row.tobytes(),
                               -1 if label is None else label)
        noise = np.random.default_rng(row_seed).standard_normal(
            (1, model.latent_dim))
        for dst, src in zip(refit, trained):
            np.copyto(dst, src)
        optimiser.reset()
        row_labels = None if label is None else np.array([label])
        try:
            result = elbo_loss(work, row[None, :], row_labels, noise=noise,
                               encoder_only=True)
            initial = -result.loss
            best = initial
            for _ in range(config.steps):
                nn.adam_step(optimiser, refit, result.grads)
                result = elbo_loss(work, row[None, :], row_labels,
                                   noise=noise, encoder_only=True)
                best = max(best, -result.loss)
        except NumericError:
            n_invalid += 1
            continue
        kept_ids.append(sample_ids[i])
        kept_tags.append(tag)
        kept_scores.append(best - initial)
        if label is not None:
            kept_labels.append(label)
    if n_invalid:
        log.warning("regret scoring dropped %d diverged sample(s) for tag %s",
                    n_invalid, tag)
    model.decoder.clear_cache()
    labels_used = (np.asarray(kept_labels, dtype=np.int64)
                   if labels is not None else None)
    return ScoreSet("regret", np.asarray(kept_ids, dtype=np.int64),
                    np.asarray(kept_tags, dtype=object),
                    np.asarray(kept_scores), labels_used, n_invalid)


def choose_orientation(scored: np.ndarray, benign_reference: np.ndarray) -> int:
    """+1 if the scored population already sits above the benign reference
    median (higher = adversarial holds as-is), else -1 to flip it."""
    scored = np.asarray(scored, dtype=np.float64)
    benign_reference = np.asarray(benign_reference, dtype=np.float64)
    if scored.size == 0 or benign_reference.size == 0:
        raise ValueError("need both scored and benign reference values")
    return 1 if np.median(scored) >= np.median(benign_reference) else -1


def orient_scores(scores: ScoreSet, orientation: int) -> ScoreSet:
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    return ScoreSet(scores.detector, scores.sample_ids.copy(),
                    scores.tags.copy(), orientation * scores.scores,
                    None if scores.labels_used is None
                    else scores.labels_used.copy(), scores.n_invalid)


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    thresholds: np.ndarray   # descending, +inf first for the (0, 0) point
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_auc(scores: ScoreSet, positive_tag: str = TAG_ADVERSARIAL) -> RocCurve:
    """Threshold sweep over the distinct scores; classify as positive when
    score >= threshold. The AUC accumulates in integer pair counts before a
    single division, so ties contribute exactly one half.
    """
    tags = set(scores.tags.tolist())
    if positive_tag not in tags or len(tags) < 2:
        raise ValueError("scores must contain the positive tag and at least "
                         "one other tag")
    positive = scores.tags == positive_tag
    values = scores.scores
    n_pos = int(positive.sum())
    n_neg = int(values.size - n_pos)
    order = np.argsort(-values, kind="stable")
    thresholds = [np.inf]
    fpr_counts = [0]
    tpr_counts = [0]
    area2 = 0   # doubled area in count units
    cum_tp = 0
    cum_fp = 0
    idx = 0
    while idx < values.size:
        score = values[order[idx]]
        tp_inc = 0
        fp_inc = 0
        while idx < values.size and values[order[idx]] == score:
            if positive[order[idx]]:
                tp_inc += 1
            else:
                fp_inc += 1
            idx += 1
        area2 += fp_inc * (2 * cum_tp + tp_inc)
        cum_tp += tp_inc
        cum_fp += fp_inc
        thresholds.append(score)
        tpr_counts.append(cum_tp)
        fpr_counts.append(cum_fp)
    return RocCurve(np.asarray(thresholds, dtype=np.float64),
                    np.asarray(fpr_counts, dtype=np.float64) / n_neg,
                    np.asarray(tpr_counts, dtype=np.float64) / n_pos,
                    area2 / (2 * n_pos * n_neg))


# ---------------------------------------------------------------------------
# histograms and CSV export
# ---------------------------------------------------------------------------

def export_histograms(scores: ScoreSet, bins: int = 40) -> dict:
    """Per-tag counts over shared bin edges spanning all scores."""
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if scores.n == 0:
        raise ValueError("no scores to histogram")
    lo = float(scores.scores.min())
    hi = float(scores.scores.max())
    if lo == hi:
        lo -= 0.5
        hi += 0.5
    edges = np.linspace(lo, hi, bins + 1)
    counts = {}
    for tag in sorted(set(scores.tags.tolist())):
        counts[tag], _ = np.histogram(scores.for_tag(tag), bins=edges)
    return {"edges": edges, "counts": counts}


SCORES_CSV_COLUMNS = ["sample_id", "tag", "detector", "score"]


def scores_to_csv(parts: list[ScoreSet], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCORES_CSV_COLUMNS)
        for part in parts:
            for sid, tag, score in zip(part.sample_ids, part.tags, part.scores):
                writer.writerow([int(sid), tag, part.detector,
                                 repr(float(score))])


def scores_from_csv(path) -> dict[str, ScoreSet]:
    by_detector: dict[str, list] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            by_detector.setdefault(row["detector"], []).append(
                (int(row["sample_id"]), row["tag"], float(row["score"])))
    out = {}
    for detector, rows in by_detector.items():
        out[detector] = ScoreSet(
            detector,
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=object),
            np.array([r[2] for r in rows]))
    return out


def roc_to_csv(curve: RocCurve, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fpr", "tpr"])
        for thr, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr):
            writer.writerow([repr(float(thr)), repr(float(fpr)),
                             repr(float(tpr))])


def histograms_to_csv(hist: dict, path) -> None:
    edges = hist["edges"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tag", "bin_lo", "bin_hi", "count"])
        for tag in sorted(hist["counts"]):
            for i, count in enumerate(hist["counts"][tag]):
                writer.writerow([tag, repr(float(edges[i])),
                                 repr(float(edges[i + 1])), int(count)])
