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

The bound of one row has two halves. The q side, `iwae_proposal`, encodes
the row, forms the k z_i in the left columns of the row's decoder input
[z | class one-hot] and computes log p(z_i) and log q(z_i|x,c); the p side,
`iwae_bound`, decodes that input as one k-row batch and weighs it into L_k.
`iwae_batch` returns the per-row bounds, which the NLL detector negates, and
runs its jobs, one per row, through `lanes.run`.

`elbo_loss(..., posterior=...)` takes the ELBO and its gradient at a given
posterior [mu | log-variance] instead of the encoder's; the likelihood-regret
detector refits a population's posteriors through it at once, each row's
loss read from `ElboResult.rows`. `elbo_loss` tapes the
encoder and decoder passes it backpropagates in local lists, so no call
here leaves state on the model.

With conditional=False the model is a plain VAE. Every function here takes
the class labels either way, one int per row: only `_conditioned` knows
that a plain VAE ignores them, and `label_key` keys its draws -1 whatever
the label. Both variants train through the same routine,
`train_cvae(train, config, seed, conditional)`. The seed and the variant are
arguments: `CvaeTrainConfig` holds the hyperparameters only and is the run
config's `cvae` section. `save_cvae` returns the paths it wrote, and
`load_cvae` checks cvae.json's sizes against the weight files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import lanes, nn
from .data import (Dataset, N_CLASSES, bound, check_bounds, one_hot, read_json,
                   write_json)
from .errors import NumericError, ParseError, ShapeError
from .rng import derive_rng, stable_hash

HIDDEN_WIDTHS = (256, 256)
LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0
LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class CvaeTrainConfig:
    epochs: int = bound(120, min=0)
    batch_size: int = bound(64, min=1)
    learning_rate: float = bound(0.001, gt=0.0)
    latent_dim: int = bound(200, min=1)
    # constant weight on the KL term; the synthetic clusters are
    # conditionally featureless, so a plain ELBO collapses the posterior and
    # a small weight keeps the latent space live
    kl_weight: float = bound(0.02, min=0.0)
    train_baseline_vae: bool = True   # the pipeline also fits a plain VAE

    __post_init__ = check_bounds


@dataclass
class CvaeModel:
    encoder: nn.Mlp    # (x [, onehot]) -> [mu | log-variance], linear head
    decoder: nn.Mlp    # (z [, onehot]) -> feature probabilities, sigmoid head
    latent_dim: int
    conditional: bool

    def params(self) -> list[np.ndarray]:
        return self.encoder.params() + self.decoder.params()


def build_cvae(rng: np.random.Generator, input_dim: int, latent_dim: int,
               conditional: bool) -> CvaeModel:
    extra = N_CLASSES if conditional else 0
    enc_dims = [input_dim + extra, *HIDDEN_WIDTHS, 2 * latent_dim]
    dec_dims = [latent_dim + extra, *HIDDEN_WIDTHS, input_dim]
    relus = ["relu"] * len(HIDDEN_WIDTHS)
    encoder = nn.build_mlp(enc_dims, relus + ["linear"], rng)
    decoder = nn.build_mlp(dec_dims, relus + ["sigmoid"], rng)
    return CvaeModel(encoder, decoder, latent_dim, conditional)


def _conditioned(model: CvaeModel, x: np.ndarray,
                 labels: np.ndarray) -> np.ndarray:
    if not model.conditional:
        return x
    return np.hstack([x, one_hot(labels)])


def label_key(model: CvaeModel, label: int) -> int:
    """The seed key of a row's draws under `label`: -1 for a plain VAE."""
    return int(label) if model.conditional else -1


def encode(model: CvaeModel, x: np.ndarray,
           labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior parameters (mu, log-variance), the latter clamped to +-10."""
    out = model.encoder.forward(_conditioned(model, x, labels))
    mu = out[:, :model.latent_dim]
    logvar = np.clip(out[:, model.latent_dim:], LOGVAR_MIN, LOGVAR_MAX)
    return mu, logvar


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
    rows: np.ndarray     # per-row recon_i + kl_weight * kl_i; [loss] at n = 1
    # encoder params then decoder params; with `posterior`, [d posterior]
    # alone; None without with_grads
    grads: list[np.ndarray] | None


def elbo_loss(model: CvaeModel, x: np.ndarray, labels: np.ndarray, *,
              noise: np.ndarray, kl_weight: float, with_grads: bool = True,
              posterior: np.ndarray | None = None) -> ElboResult:
    """Single-draw negative ELBO and its gradients for every parameter.

    `noise` is the (n, latent_dim) standard-normal reparameterization
    draw, which the caller makes (or freezes). Pass `posterior`,
    an (n, 2 * latent_dim) array [mu | log-variance] such as the encoder's
    output, to take the ELBO at that posterior instead of the encoder's: the
    encoder does not run, the decoder is backpropagated for its input
    gradient alone, and `grads` is [dLoss/dposterior], the upstream gradient
    that `model.encoder.backward`, given the tape of the encoder pass that
    produced `posterior`, turns into the encoder's parameter gradients.
    """
    n = x.shape[0]
    enc_tape, dec_tape = ([], []) if with_grads else (None, None)
    post = posterior
    if posterior is None:
        post = model.encoder.forward(_conditioned(model, x, labels), enc_tape)
    elif post.shape != (n, 2 * model.latent_dim):
        raise ShapeError("posterior shape must be (n, 2 * latent_dim)")
    mu = post[:, :model.latent_dim]
    raw_logvar = post[:, model.latent_dim:]
    logvar = np.clip(raw_logvar, LOGVAR_MIN, LOGVAR_MAX)
    if noise.shape != mu.shape:
        raise ShapeError("noise shape must match (n, latent_dim)")
    sigma = np.exp(0.5 * logvar)
    z = mu + sigma * noise

    dec_in = _conditioned(model, z, labels)
    dec_out = model.decoder.forward(dec_in, dec_tape)
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
    rows = recon_rows + kl_weight * kl_rows
    if not with_grads:
        return ElboResult(loss, recon, kl, rows, None)

    # reconstruction gradient through the (rarely active) output clamp
    clamp_open = (dec_out > nn.PROB_CLAMP) & (dec_out < 1.0 - nn.PROB_CLAMP)
    d_probs = np.where(clamp_open,
                       (probs - x) / (probs * (1.0 - probs) * n), 0.0)
    dec_grads, d_dec_in = model.decoder.backward(
        d_probs, dec_tape, param_grads=posterior is None)
    dz = d_dec_in[:, :model.latent_dim]

    d_mu = dz + kl_weight * mu / n
    d_logvar = dz * (0.5 * sigma * noise) \
        + kl_weight * (np.exp(logvar) - 1.0) / (2.0 * n)
    logvar_open = (raw_logvar > LOGVAR_MIN) & (raw_logvar < LOGVAR_MAX)
    d_post = np.hstack([d_mu, np.where(logvar_open, d_logvar, 0.0)])
    if posterior is not None:
        return ElboResult(loss, recon, kl, rows, [d_post])
    enc_grads, _ = model.encoder.backward(d_post, enc_tape)
    return ElboResult(loss, recon, kl, rows, enc_grads + dec_grads)


def train_cvae(train: Dataset, config: CvaeTrainConfig, seed: int,
               conditional: bool) -> tuple[CvaeModel, list[dict]]:
    """Minibatch Adam on the ELBO loss; conditional=False fits a plain VAE.

    Curve rows: {epoch, loss, recon, kl}; the reconstruction column is what
    the conditional-vs-plain comparison reads. Every batch draws its noise
    into one buffer: a fresh array per batch raises the stage's peak memory."""
    rng = derive_rng(seed, "cvae-train")
    model = build_cvae(rng, train.features.shape[1], config.latent_dim,
                       conditional)
    optimiser = nn.adam_init(model.params(), config.learning_rate)
    curve: list[dict] = []
    draws = np.empty((config.batch_size, model.latent_dim))
    for epoch in range(config.epochs):
        order = rng.permutation(train.n)
        sums = {"loss": 0.0, "recon": 0.0, "kl": 0.0}
        for start in range(0, train.n, config.batch_size):
            rows = order[start:start + config.batch_size]
            noise = rng.standard_normal(out=draws[:rows.size])
            result = elbo_loss(model, train.features[rows],
                               train.labels[rows], noise=noise,
                               kl_weight=config.kl_weight)
            nn.adam_step(optimiser, model.params(), result.grads)
            sums["loss"] += result.loss * rows.size
            sums["recon"] += result.recon * rows.size
            sums["kl"] += result.kl * rows.size
        row = {"epoch": epoch}
        row.update({k: v / train.n for k, v in sums.items()})
        if (not np.isfinite(row["loss"])
                or abs(row["loss"]) > nn.DIVERGENCE_LIMIT):
            raise NumericError(f"CVAE training diverged at epoch {epoch}")
        curve.append(row)
    return model, curve


# ---------------------------------------------------------------------------
# importance-weighted bounds
# ---------------------------------------------------------------------------

def log_mean_exp(weights: np.ndarray) -> float:
    """log(1/k sum exp(w_i)) with max-shift so large |w| cannot overflow."""
    if weights.size == 0:
        raise ValueError("need at least one weight")
    shift = weights.max()
    return float(np.log(np.exp(weights - shift).mean()) + shift)


# (decoder input [z | one-hot], log p(z), log q(z|x,c)) of one row's k draws
Proposal = tuple[np.ndarray, np.ndarray, np.ndarray]


def iwae_proposal(model: CvaeModel, x: np.ndarray, label: int, k: int,
                  rng: np.random.Generator) -> Proposal:
    """The q side of the k-sample bound for one row: the decoder input
    [z | one-hot] (z alone for a plain VAE), log p(z) and log q(z|x,c) for
    z_i = mu + sigma * noise_i, from one encoder pass and k draws from `rng`.
    z and the k-row terms are formed in place, bitwise the plain expressions,
    and the draws are never written: the rng may hand out an array it keeps."""
    mu, logvar = encode(model, x[None, :], np.array([label]))
    dec_in = np.empty((k, model.decoder.in_dim))
    # the label columns: the one-hot, or none for a plain VAE's decoder
    dec_in[:, model.latent_dim:] = _conditioned(model, np.empty((1, 0)),
                                                np.array([label]))
    z = dec_in[:, :model.latent_dim]
    np.multiply(np.exp(0.5 * logvar), rng.standard_normal(z.shape), out=z)
    z += mu
    # log p(z) = -0.5 * sum(z^2 + log 2pi) and
    # log q(z|x,c) = -0.5 * sum((z - mu)^2 / sigma^2 + log 2pi + logvar),
    # term by term in one contiguous scratch array
    scratch = np.multiply(z, z)
    scratch += LOG_2PI
    log_prior = -0.5 * scratch.sum(axis=1)
    np.subtract(z, mu, out=scratch)
    np.square(scratch, out=scratch)
    scratch /= np.exp(logvar)
    scratch += LOG_2PI
    scratch += logvar
    log_post = -0.5 * scratch.sum(axis=1)
    return dec_in, log_prior, log_post


def iwae_bound(model: CvaeModel, x: np.ndarray, proposal: Proposal) -> float:
    """The p side: the k-sample importance-weighted lower bound on
    log p(x [, c]) from `iwae_proposal`'s proposal for the same row, through
    one k-row decoder batch clamped strictly inside (0, 1) for the logs."""
    dec_in, log_prior, log_post = proposal
    probs = model.decoder.forward(dec_in)
    np.clip(probs, nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP, out=probs)
    log_px = bernoulli_log_likelihood(np.broadcast_to(x, probs.shape), probs)
    for name, term in (("log p(x|z,c)", log_px), ("log p(z)", log_prior),
                       ("log q(z|x,c)", log_post)):
        if not np.isfinite(term).all():
            raise NumericError(f"importance weight term {name} is non-finite")
    return log_mean_exp(log_px + log_prior - log_post)


def _row_bound(model: CvaeModel, row: np.ndarray, label: int, k: int,
               seed: int) -> float:
    row_seed = stable_hash(seed, "iwae", row.tobytes(),
                           label_key(model, label))
    return iwae_bound(model, row, iwae_proposal(
        model, row, label, k, np.random.default_rng(row_seed)))


def iwae_batch(model: CvaeModel, batch: np.ndarray, labels: np.ndarray,
               k: int, seed: int) -> np.ndarray:
    """The bound of each row under its label, its draws seeded from its
    content and `label_key`: duplicated rows score identically and order
    never matters. Labels of another count than the rows are a ShapeError.
    Runs its jobs, each row's q side then its p side, through `lanes.run`.
    """
    if len(labels) != len(batch):
        raise ShapeError(f"{len(labels)} labels for {len(batch)} rows")
    jobs = [partial(_row_bound, model, row, int(label), k, seed)
            for row, label in zip(batch, labels)]
    return np.array(lanes.run(jobs), dtype=float)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_cvae(model: CvaeModel, directory, name: str = "cvae") -> list[Path]:
    """Write <name>_encoder.weights, <name>_decoder.weights and <name>.json;
    returns their paths in that order."""
    directory = Path(directory)
    paths = [directory / f"{name}_encoder.weights",
             directory / f"{name}_decoder.weights", directory / f"{name}.json"]
    nn.save_mlp(paths[0], model.encoder)
    nn.save_mlp(paths[1], model.decoder)
    write_json(paths[2], {"latent_dim": model.latent_dim,
                          "conditional": model.conditional,
                          "n_classes": N_CLASSES})
    return paths


def load_cvae(directory) -> CvaeModel:
    """The model save_cvae wrote; a cvae.json whose n_classes is not
    N_CLASSES, or whose sizes disagree with the weight files, is a
    ParseError naming the file and the key."""
    directory = Path(directory)
    meta_path = directory / "cvae.json"
    meta = read_json(meta_path, {
        "latent_dim": int, "conditional": bool, "n_classes": int})
    model = CvaeModel(nn.load_mlp(directory / "cvae_encoder.weights"),
                      nn.load_mlp(directory / "cvae_decoder.weights"),
                      meta["latent_dim"], meta["conditional"])
    enc, dec = model.encoder, model.decoder
    extra = N_CLASSES if model.conditional else 0
    for key, ok in (
            ("n_classes", meta["n_classes"] == N_CLASSES),
            ("latent_dim", enc.layers[-1].fan_out == 2 * model.latent_dim),
            ("conditional", dec.in_dim == model.latent_dim + extra
             and enc.in_dim == dec.layers[-1].fan_out + extra)):
        if not ok:
            raise ParseError(f"{meta_path}: '{key}' does not match the "
                             f"encoder and decoder weight files")
    return model
