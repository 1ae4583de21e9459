"""Conditional GAN that learns bounded perturbations of attack telemetry.

The generator maps (noise, attack-class one-hot) to a perturbation in
[-out_scale, out_scale]^30 via a tanh head. Its loss has three parts,
reported separately and combined as

    lambda_cls * KL(ids(x_adv) || benign_target)
  + lambda_stealth * mean ||x_adv - x_benign||^2
  + lambda_gan * (-mean log D(x_adv))

where x_adv = clip(x_att + delta, 0, 1) and benign_target is the smoothed
benign one-hot; the KL (0 * log 0 = 0) is written beside its gradient, and
both are finite for every smoothing `GanConfig` accepts. The discriminator
is a bare `nn.Mlp` with a sigmoid head and trains on plain BCE: benign rows
toward 1, perturbed rows toward 0. The intrusion detector, also a bare
`nn.Mlp`, is a frozen oracle that only supplies input gradients; nothing
here writes to it. Each loss keeps the tapes it backpropagates through; the
training loop tapes the generator's pass for its gradients.

`train_cgan(ids_net, train, config, seed)` takes its seed as an argument
and returns the generator and its training curve; `GanConfig` holds the
hyperparameters only and is the run config's `gan` section. `save_generator`
returns the paths it wrote. The discriminator is neither saved nor returned:
it only trains the generator, and no stage reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import (Dataset, N_CLASSES, N_FEATURES, bound, check_bounds,
                   one_hot, read_json, write_json)
from .errors import NumericError, ParseError, ShapeError
from .rng import derive_rng

GEN_HIDDEN = (256, 256)
DISC_HIDDEN = (256, 256)


@dataclass
class GanConfig:
    lambda_cls: float = bound(1.0, min=0.0)
    lambda_stealth: float = bound(10.0, min=0.0)
    lambda_gan: float = bound(0.1, min=0.0)
    learning_rate: float = bound(0.001, gt=0.0)
    epochs: int = bound(60, min=0)
    batch_size: int = bound(64, min=1)
    noise_dim: int = bound(32, min=1)
    out_scale: float = bound(0.1, gt=0.0)
    # target entries stay normal floats, so probs / target is finite
    label_smoothing: float = bound(0.01, min=N_CLASSES * np.finfo(float).tiny,
                                   lt=0.5)

    __post_init__ = check_bounds


@dataclass
class Generator:
    net: nn.Mlp          # (noise_dim + N_CLASSES) -> ... -> n_features, tanh head
    noise_dim: int
    out_scale: float


def build_generator(rng: np.random.Generator, noise_dim: int, out_scale: float,
                    hidden: tuple[int, ...] = GEN_HIDDEN) -> Generator:
    dims = [noise_dim + N_CLASSES, *hidden, N_FEATURES]
    activations = ["relu"] * len(hidden) + ["tanh"]
    return Generator(nn.build_mlp(dims, activations, rng), noise_dim, out_scale)


def build_discriminator(rng: np.random.Generator) -> nn.Mlp:
    """N_FEATURES -> ... -> 1, sigmoid head: the probability a row is real."""
    dims = [N_FEATURES, *DISC_HIDDEN, 1]
    activations = ["relu"] * len(DISC_HIDDEN) + ["sigmoid"]
    return nn.build_mlp(dims, activations, rng)


def smoothed_benign_target(label_smoothing: float) -> np.ndarray:
    """(1 - a) * onehot(benign) + a/N_CLASSES; strictly positive everywhere."""
    target = np.full(N_CLASSES, label_smoothing / N_CLASSES)
    target[0] += 1.0 - label_smoothing
    return target


def generate_perturbation(gen: Generator, noise: np.ndarray,
                          labels: np.ndarray,
                          tape: list | None = None) -> np.ndarray:
    """delta = out_scale * net(noise, onehot(class)); attack classes only,
    any other label is a ValueError."""
    if noise.ndim != 2 or noise.shape[1] != gen.noise_dim:
        raise ShapeError(f"noise must be (n, {gen.noise_dim})")
    if labels.shape != (noise.shape[0],):
        raise ShapeError("labels must be 1-d, one per noise row")
    if (labels == 0).any():
        raise ValueError("benign (class 0) is not a valid generation target")
    stacked = np.hstack([noise, one_hot(labels)])
    return gen.out_scale * gen.net.forward(stacked, tape)


@dataclass
class GeneratorLossResult:
    total: float
    cls: float        # KL(ids(x_adv) || smoothed benign target)
    stealth: float    # mean squared distance to the paired benign rows
    gan: float        # -mean log D(x_adv)
    d_delta: np.ndarray   # dTotal/dDelta, for chaining into the generator


def generator_loss(ids_net: nn.Mlp, disc: nn.Mlp,
                   x_att: np.ndarray, delta: np.ndarray,
                   x_benign: np.ndarray,
                   config: GanConfig) -> GeneratorLossResult:
    if x_att.shape != delta.shape or x_att.shape != x_benign.shape:
        raise ShapeError("x_att, delta and x_benign must share one shape")
    n = x_att.shape[0]
    raw = x_att + delta
    x_adv = np.clip(raw, 0.0, 1.0)
    clip_active = (raw > 0.0) & (raw < 1.0)

    # classification term: pull the detector's output toward "benign"
    target = smoothed_benign_target(config.label_smoothing)
    ids_tape, disc_tape = [], []
    probs = ids_net.forward(x_adv, ids_tape)
    cls = float(np.where(probs > 0.0, probs * (np.log(np.maximum(
        probs, 1e-300)) - np.log(target)), 0.0).sum(axis=1).mean())
    safe_probs = np.maximum(probs, nn.PROB_CLAMP)
    d_probs = (np.log(safe_probs / target) + 1.0) / n
    _, dx_cls = ids_net.backward(d_probs, ids_tape, param_grads=False)

    # stealth term: stay close to real benign telemetry
    diff = x_adv - x_benign
    stealth = float((diff * diff).sum() / n)
    dx_stealth = 2.0 * diff / n

    # adversarial term: look real to the discriminator
    d_out = disc.forward(x_adv, disc_tape)
    d_clamped = np.clip(d_out, nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP)
    gan = float(-np.log(d_clamped).mean())
    d_dout = np.where((d_out > nn.PROB_CLAMP) & (d_out < 1.0 - nn.PROB_CLAMP),
                      -1.0 / (d_clamped * d_out.size), 0.0)
    _, dx_gan = disc.backward(d_dout, disc_tape, param_grads=False)

    for name, value in (("cls", cls), ("stealth", stealth), ("gan", gan)):
        if not np.isfinite(value):
            raise NumericError(f"generator loss term '{name}' is non-finite")

    total = (config.lambda_cls * cls + config.lambda_stealth * stealth
             + config.lambda_gan * gan)
    dx_total = (config.lambda_cls * dx_cls + config.lambda_stealth * dx_stealth
                + config.lambda_gan * dx_gan)
    return GeneratorLossResult(total, cls, stealth, gan,
                               dx_total * clip_active)


def generator_param_grads(gen: Generator, d_delta: np.ndarray,
                          tape: list) -> list[np.ndarray]:
    """Chain dLoss/dDelta through the generator pass recorded in `tape`."""
    grads, _ = gen.net.backward(gen.out_scale * d_delta, tape)
    return grads


def discriminator_loss(disc: nn.Mlp, x_benign: np.ndarray,
                       x_adv: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """0.5 * (BCE(D(benign), 1) + BCE(D(adv), 0)) and its parameter grads."""
    ben_tape, adv_tape = [], []
    p_ben = disc.forward(x_benign, ben_tape)
    loss_ben, d_ben = nn.binary_cross_entropy(p_ben, np.ones_like(p_ben))
    grads_ben, _ = disc.backward(d_ben, ben_tape)
    p_adv = disc.forward(x_adv, adv_tape)
    loss_adv, d_adv = nn.binary_cross_entropy(p_adv, np.zeros_like(p_adv))
    grads_adv, _ = disc.backward(d_adv, adv_tape)
    loss = 0.5 * (loss_ben + loss_adv)
    grads = [0.5 * (a + b) for a, b in zip(grads_ben, grads_adv)]
    return loss, grads


def train_cgan(ids_net: nn.Mlp, train: Dataset, config: GanConfig,
               seed: int) -> tuple[Generator, list[dict]]:
    """Alternating one discriminator / one generator step per minibatch.

    Minibatches iterate over the attack rows; each step draws a fresh
    uniformly sampled benign batch for the discriminator and another for the
    stealth pairing. Curve rows: {epoch, d_loss, g_cls, g_stealth, g_gan}.
    """
    rng = derive_rng(seed, "cgan-train")
    gen = build_generator(rng, config.noise_dim, config.out_scale)
    disc = build_discriminator(rng)
    attack_rows = np.flatnonzero(train.labels > 0)
    benign_rows = np.flatnonzero(train.labels == 0)
    if benign_rows.size == 0 or attack_rows.size == 0:
        missing = "benign" if benign_rows.size == 0 else "attack"
        raise ParseError(f"training data has no {missing} rows; the GAN "
                         f"needs both benign and attack rows")
    opt_g = nn.adam_init(gen.net.params(), config.learning_rate)
    opt_d = nn.adam_init(disc.params(), config.learning_rate)
    curve: list[dict] = []
    for epoch in range(config.epochs):
        order = rng.permutation(attack_rows)
        sums = {"d_loss": 0.0, "g_cls": 0.0, "g_stealth": 0.0, "g_gan": 0.0}
        n_batches = 0
        for start in range(0, order.size, config.batch_size):
            rows = order[start:start + config.batch_size]
            x_att = train.features[rows]
            labels = train.labels[rows]

            noise = rng.standard_normal((rows.size, config.noise_dim))
            delta = generate_perturbation(gen, noise, labels)
            x_adv = np.clip(x_att + delta, 0.0, 1.0)
            x_ben = train.features[rng.choice(benign_rows, size=rows.size)]
            d_loss, d_grads = discriminator_loss(disc, x_ben, x_adv)
            nn.adam_step(opt_d, disc.params(), d_grads)

            noise = rng.standard_normal((rows.size, config.noise_dim))
            gen_tape = []
            delta = generate_perturbation(gen, noise, labels, gen_tape)
            x_pair = train.features[rng.choice(benign_rows, size=rows.size)]
            g_loss = generator_loss(ids_net, disc, x_att, delta, x_pair,
                                    config)
            nn.adam_step(opt_g, gen.net.params(),
                         generator_param_grads(gen, g_loss.d_delta, gen_tape))

            sums["d_loss"] += d_loss
            sums["g_cls"] += g_loss.cls
            sums["g_stealth"] += g_loss.stealth
            sums["g_gan"] += g_loss.gan
            n_batches += 1
        row = {"epoch": epoch}
        row.update({k: v / n_batches for k, v in sums.items()})
        checks = dict(row)
        checks["g_total"] = (config.lambda_cls * row["g_cls"]
                             + config.lambda_stealth * row["g_stealth"]
                             + config.lambda_gan * row["g_gan"])
        for key, value in checks.items():
            if key != "epoch" and (not np.isfinite(value)
                                   or abs(value) > nn.DIVERGENCE_LIMIT):
                raise NumericError(
                    f"GAN training diverged at epoch {epoch} ({key}={value})")
        curve.append(row)
    return gen, curve


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_generator(gen: Generator, directory) -> list[Path]:
    """Write gen.weights and gen.json; returns their paths in that order."""
    directory = Path(directory)
    paths = [directory / "gen.weights", directory / "gen.json"]
    nn.save_mlp(paths[0], gen.net)
    write_json(paths[1], {"noise_dim": gen.noise_dim,
                          "out_scale": gen.out_scale})
    return paths


def load_generator(directory) -> Generator:
    """The generator save_generator wrote; a gen.json whose noise_dim does
    not fit gen.weights' widths, or whose out_scale is not finite and > 0,
    is a ParseError naming the file."""
    directory = Path(directory)
    net = nn.load_mlp(directory / "gen.weights")
    meta_path = directory / "gen.json"
    meta = read_json(meta_path, {"noise_dim": int, "out_scale": float})
    if (net.in_dim - meta["noise_dim"] != N_CLASSES
            or net.layers[-1].fan_out != N_FEATURES):
        raise ParseError(f"{meta_path}: 'noise_dim' does not match the "
                         f"generator weight file")
    if not 0.0 < meta["out_scale"] < np.inf:    # json reads NaN and Infinity
        raise ParseError(f"{meta_path}: 'out_scale' must be finite and > 0, "
                         f"got {json.dumps(meta['out_scale'])}")
    return Generator(net, meta["noise_dim"], float(meta["out_scale"]))
