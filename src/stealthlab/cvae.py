"""Conditional VAE with importance-weighted likelihood bounds.

The encoder maps (x, class one-hot) to a diagonal Gaussian over a latent
space; the decoder maps (z, class one-hot) back to Bernoulli parameters over
the scaled features. Training maximises the single-sample ELBO

    log p(x|z,c) - KL(q(z|x,c) || N(0, I))

written as a loss: full binary cross-entropy reconstruction (both the x and
1-x terms, summed over features) plus the closed-form Gaussian KL
0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2), averaged over the batch.

Scoring uses the importance-weighted bound: with z_i ~ q(z|x,c),

    w_i = log p(x|z_i,c) + log p(z_i) - log q(z_i|x,c)
    L_k = log(1/k sum_i exp(w_i))    (computed with max-shift)
    NLL = -L_k

With conditional=False the class input is ignored everywhere and the model
is a plain VAE; both variants train through the same routine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import Dataset, N_CLASSES, N_FEATURES, one_hot
from .errors import NumericError, ShapeError
from .rng import derive_rng, stable_hash

HIDDEN_WIDTHS = (256, 256)
LATENT_DIM = 200
LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
DIVERGENCE_LIMIT = 1e6
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class CvaeTrainConfig:
    epochs: int = 120
    batch_size: int = 64
    learning_rate: float = 0.001
    kl_weight: float = 1.0      # constant weight on the KL term
    conditional: bool = True    # False trains the plain-VAE baseline
    latent_dim: int = LATENT_DIM
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.kl_weight < 0.0:
            raise ValueError("kl_weight must be >= 0")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")


@dataclass
class CvaeModel:
    encoder: nn.Mlp    # (x [, onehot]) -> [mu | log-variance], linear head
    decoder: nn.Mlp    # (z [, onehot]) -> feature probabilities, sigmoid head
    latent_dim: int
    conditional: bool
    n_classes: int = N_CLASSES

    @property
    def input_dim(self) -> int:
        extra = self.n_classes if self.conditional else 0
        return self.encoder.in_dim - extra

    def copy(self) -> "CvaeModel":
        return CvaeModel(self.encoder.copy(), self.decoder.copy(),
                         self.latent_dim, self.conditional, self.n_classes)

    def params(self) -> list[np.ndarray]:
        return self.encoder.params() + self.decoder.params()


def build_cvae(rng: np.random.Generator, input_dim: int = N_FEATURES,
               n_classes: int = N_CLASSES, latent_dim: int = LATENT_DIM,
               conditional: bool = True,
               hidden: tuple[int, ...] = HIDDEN_WIDTHS) -> CvaeModel:
    extra = n_classes if conditional else 0
    enc_dims = [input_dim + extra, *hidden, 2 * latent_dim]
    dec_dims = [latent_dim + extra, *hidden, input_dim]
    encoder = nn.build_mlp(enc_dims, ["relu"] * len(hidden) + ["linear"], rng)
    decoder = nn.build_mlp(dec_dims, ["relu"] * len(hidden) + ["sigmoid"], rng)
    return CvaeModel(encoder, decoder, latent_dim, conditional, n_classes)


def _conditioned(model: CvaeModel, x: np.ndarray,
                 labels: np.ndarray | None) -> np.ndarray:
    if not model.conditional:
        return x
    if labels is None:
        raise ValueError("conditional model needs labels")
    return np.hstack([x, one_hot(np.asarray(labels), model.n_classes)])


def encode(model: CvaeModel, x: np.ndarray, labels: np.ndarray | None = None,
           keep_cache: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Posterior parameters (mu, log-variance), the latter clamped to +-10."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = model.encoder.forward(_conditioned(model, x, labels),
                                keep_cache=keep_cache)
    mu = out[:, :model.latent_dim]
    logvar = np.clip(out[:, model.latent_dim:], LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


def reparameterize(mu: np.ndarray, logvar: np.ndarray,
                   noise: np.ndarray) -> np.ndarray:
    """z = mu + sigma * noise for standard-normal noise of matching shape."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if mu.shape != logvar.shape or noise.shape != mu.shape:
        raise ShapeError("mu, logvar and noise must share one shape")
    return mu + np.exp(0.5 * logvar) * noise


def decode(model: CvaeModel, z: np.ndarray,
           labels: np.ndarray | None = None,
           keep_cache: bool = False) -> np.ndarray:
    """Feature probabilities, clamped strictly inside (0, 1) for the logs."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[1] != model.latent_dim:
        raise ShapeError(f"z must have {model.latent_dim} columns")
    out = model.decoder.forward(_conditioned(model, z, labels),
                                keep_cache=keep_cache)
    return np.clip(out, nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP)


def bernoulli_log_likelihood(x: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-row sum of x log p + (1 - x) log(1 - p); probs already clamped."""
    return (x * np.log(probs) + (1.0 - x) * np.log(1.0 - probs)).sum(axis=1)


def gaussian_kl(mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """Per-row KL(q || N(0, I)) = 0.5 * sum(mu^2 + sigma^2 - 1 - log sigma^2)."""
    return 0.5 * (mu * mu + np.exp(logvar) - 1.0 - logvar).sum(axis=1)


@dataclass
class ElboResult:
    loss: float          # recon + kl_weight * kl, meaned over the batch
    recon: float         # mean per-sample reconstruction NLL
    kl: float            # mean per-sample posterior KL
    # encoder params then decoder params; encoder params only when the loss
    # was taken with encoder_only; None without with_grads
    grads: list[np.ndarray] | None


def elbo_loss(model: CvaeModel, x: np.ndarray,
              labels: np.ndarray | None = None,
              rng: np.random.Generator | None = None,
              noise: np.ndarray | None = None, kl_weight: float = 1.0,
              with_grads: bool = True,
              encoder_only: bool = False) -> ElboResult:
    """Single-draw negative ELBO and its gradients for every parameter.

    Pass `noise` to freeze the reparameterization draw (gradient checks,
    per-sample refits); otherwise it is drawn from `rng`. With
    `encoder_only` the decoder is backpropagated for its input gradient
    alone and `grads` holds only the encoder gradients, bitwise equal to
    the encoder prefix of the full list.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    enc_in = _conditioned(model, x, labels)
    enc_out = model.encoder.forward(enc_in, keep_cache=with_grads)
    mu = enc_out[:, :model.latent_dim]
    raw_logvar = enc_out[:, model.latent_dim:]
    logvar = np.clip(raw_logvar, LOGVAR_MIN, LOGVAR_MAX)
    if noise is None:
        if rng is None:
            raise ValueError("need rng or frozen noise")
        noise = rng.standard_normal(mu.shape)
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != mu.shape:
        raise ShapeError("noise shape must match (n, latent_dim)")
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * noise

    dec_in = _conditioned(model, z, labels)
    dec_out = model.decoder.forward(dec_in, keep_cache=with_grads)
    probs = np.clip(dec_out, nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP)
    recon_rows = -bernoulli_log_likelihood(x, probs)
    kl_rows = gaussian_kl(mu, logvar)
    recon = float(recon_rows.mean())
    kl = float(kl_rows.mean())
    if not np.isfinite(recon):
        raise NumericError("ELBO reconstruction term is non-finite")
    if not np.isfinite(kl):
        raise NumericError("ELBO KL term is non-finite")
    loss = recon + kl_weight * kl
    if not with_grads:
        return ElboResult(loss, recon, kl, None)

    # reconstruction gradient through the (rarely active) output clamp
    clamp_open = (dec_out > nn.PROB_CLAMP) & (dec_out < 1.0 - nn.PROB_CLAMP)
    d_probs = np.where(clamp_open,
                       (probs - x) / (probs * (1.0 - probs) * n), 0.0)
    dec_grads, d_dec_in = model.decoder.backward(
        d_probs, param_grads=not encoder_only)
    dz = d_dec_in[:, :model.latent_dim]

    d_mu = dz + kl_weight * mu / n
    d_logvar = dz * (0.5 * sigma * noise) \
        + kl_weight * (np.exp(logvar) - 1.0) / (2.0 * n)
    logvar_open = (raw_logvar > LOGVAR_MIN) & (raw_logvar < LOGVAR_MAX)
    enc_upstream = np.hstack([d_mu, np.where(logvar_open, d_logvar, 0.0)])
    enc_grads, _ = model.encoder.backward(enc_upstream)
    if encoder_only:
        return ElboResult(loss, recon, kl, enc_grads)
    return ElboResult(loss, recon, kl, enc_grads + dec_grads)


def train_cvae(train: Dataset,
               config: CvaeTrainConfig) -> tuple[CvaeModel, list[dict]]:
    """Minibatch Adam on the ELBO loss.

    Curve rows: {epoch, loss, recon, kl}; the reconstruction column is what
    the conditional-vs-plain comparison reads.
    """
    rng = derive_rng(config.seed, "cvae-train")
    model = build_cvae(rng, input_dim=train.features.shape[1],
                       n_classes=len(train.class_names),
                       latent_dim=config.latent_dim,
                       conditional=config.conditional)
    optimiser = nn.adam_init(model.params(), config.learning_rate)
    curve: list[dict] = []
    for epoch in range(config.epochs):
        order = rng.permutation(train.n)
        sums = {"loss": 0.0, "recon": 0.0, "kl": 0.0}
        for start in range(0, train.n, config.batch_size):
            rows = order[start:start + config.batch_size]
            result = elbo_loss(model, train.features[rows],
                               train.labels[rows] if config.conditional else None,
                               rng=rng, kl_weight=config.kl_weight)
            nn.adam_step(optimiser, model.params(), result.grads)
            sums["loss"] += result.loss * rows.size
            sums["recon"] += result.recon * rows.size
            sums["kl"] += result.kl * rows.size
        row = {"epoch": epoch}
        row.update({k: v / train.n for k, v in sums.items()})
        if not np.isfinite(row["loss"]) or abs(row["loss"]) > DIVERGENCE_LIMIT:
            raise NumericError(f"CVAE training diverged at epoch {epoch}")
        curve.append(row)
    model.encoder.clear_cache()
    model.decoder.clear_cache()
    return model, curve


# ---------------------------------------------------------------------------
# importance-weighted bounds
# ---------------------------------------------------------------------------

def importance_weights(model: CvaeModel, x: np.ndarray,
                       label: int | None, z: np.ndarray) -> np.ndarray:
    """Log importance weights for one sample and k latent draws from q.

    w_i = log p(x|z_i,c) + log p(z_i) - log q(z_i|x,c) with a standard-normal
    prior and the diagonal-Gaussian posterior returned by encode().
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[1] != model.latent_dim:
        raise ShapeError(f"z must have {model.latent_dim} columns")
    labels = None if label is None else np.full(1, label, dtype=np.int64)
    mu, logvar = encode(model, x[None, :], labels)
    z_labels = None if label is None else np.full(z.shape[0], label,
                                                  dtype=np.int64)
    probs = decode(model, z, z_labels)
    log_px = bernoulli_log_likelihood(np.broadcast_to(x, probs.shape), probs)
    log_prior = -0.5 * (z * z + LOG_2PI).sum(axis=1)
    var = np.exp(logvar)
    log_post = -0.5 * ((z - mu) ** 2 / var + LOG_2PI + logvar).sum(axis=1)
    for name, term in (("log p(x|z,c)", log_px), ("log p(z)", log_prior),
                       ("log q(z|x,c)", log_post)):
        if not np.isfinite(term).all():
            raise NumericError(f"importance weight term {name} is non-finite")
    return log_px + log_prior - log_post


def log_mean_exp(weights: np.ndarray) -> float:
    """log(1/k sum exp(w_i)) with max-shift so large |w| cannot overflow."""
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.size == 0:
        raise ValueError("need at least one weight")
    shift = weights.max()
    return float(np.log(np.exp(weights - shift).mean()) + shift)


def nll_from_log_weights(weights: np.ndarray) -> float:
    return -log_mean_exp(weights)


def iwae_bound(model: CvaeModel, x: np.ndarray, label: int | None, k: int,
               rng: np.random.Generator) -> float:
    """k-sample importance-weighted lower bound on log p(x [, c])."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.asarray(x, dtype=np.float64).ravel()
    labels = None if label is None else np.full(1, label, dtype=np.int64)
    mu, logvar = encode(model, x[None, :], labels)
    noise = rng.standard_normal((k, model.latent_dim))
    z = reparameterize(np.broadcast_to(mu, noise.shape),
                       np.broadcast_to(logvar, noise.shape), noise)
    return log_mean_exp(importance_weights(model, x, label, z))


def nll(model: CvaeModel, x: np.ndarray, label: int | None, k: int,
        rng: np.random.Generator) -> float:
    """Importance-weighted negative log-likelihood: exactly -iwae_bound."""
    return -iwae_bound(model, x, label, k, rng)


@dataclass
class IwaeEstimate:
    k: int
    bounds: np.ndarray   # per-sample L_k
    nll: np.ndarray      # per-sample -L_k


def iwae_batch(model: CvaeModel, batch: np.ndarray, labels: np.ndarray | None,
               k: int, seed: int = 0) -> IwaeEstimate:
    """Score a batch; each row's draws are seeded from its content and label,
    so duplicated rows score identically and order never matters."""
    batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    bounds = np.empty(batch.shape[0])
    for i, row in enumerate(batch):
        label = None if labels is None else int(labels[i])
        row_seed = stable_hash(seed, "iwae", row.tobytes(),
                               -1 if label is None else label)
        bounds[i] = iwae_bound(model, row, label, k,
                               np.random.default_rng(row_seed))
    return IwaeEstimate(k, bounds, -bounds)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_cvae(model: CvaeModel, directory, name: str = "cvae") -> dict:
    directory = Path(directory)
    enc_path = directory / f"{name}_encoder.weights"
    dec_path = directory / f"{name}_decoder.weights"
    meta_path = directory / f"{name}.json"
    nn.save_mlp(enc_path, model.encoder)
    nn.save_mlp(dec_path, model.decoder)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"latent_dim": model.latent_dim,
                   "conditional": model.conditional,
                   "n_classes": model.n_classes}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"encoder": str(enc_path), "decoder": str(dec_path),
            "meta": str(meta_path)}


def load_cvae(directory, name: str = "cvae") -> CvaeModel:
    directory = Path(directory)
    with open(directory / f"{name}.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return CvaeModel(nn.load_mlp(directory / f"{name}_encoder.weights"),
                     nn.load_mlp(directory / f"{name}_decoder.weights"),
                     int(meta["latent_dim"]), bool(meta["conditional"]),
                     int(meta["n_classes"]))
