"""Conditional GAN that learns bounded perturbations of attack telemetry.

The generator maps (noise, attack-class one-hot) to a perturbation in
[-out_scale, out_scale]^30 via a tanh head. Its loss has three parts,
reported separately and combined as

    lambda_cls * KL(ids(x_adv) || benign_target)
  + lambda_stealth * mean ||x_adv - x_benign||^2
  + lambda_gan * (-mean log D(x_adv))

where x_adv = clip(x_att + delta, 0, 1) and benign_target is the smoothed
benign one-hot. The discriminator trains on plain BCE: benign rows toward 1,
perturbed rows toward 0. The intrusion detector is a frozen oracle; its
parameters are never updated here, it only supplies gradients to the input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import Dataset, N_CLASSES, N_FEATURES, one_hot
from .errors import NumericError, ShapeError
from .ids import IdsModel
from .rng import derive_rng

GEN_HIDDEN = (256, 256)
DISC_HIDDEN = (256, 256)
DIVERGENCE_LIMIT = 1e6


@dataclass
class GanConfig:
    lambda_cls: float = 1.0
    lambda_stealth: float = 10.0
    lambda_gan: float = 0.1
    learning_rate: float = 0.001
    epochs: int = 60
    batch_size: int = 64
    noise_dim: int = 32
    out_scale: float = 0.1
    label_smoothing: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("lambda_cls", "lambda_stealth", "lambda_gan"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.noise_dim < 1:
            raise ValueError("noise_dim must be >= 1")
        if self.out_scale <= 0.0:
            raise ValueError("out_scale must be > 0")
        if not 0.0 < self.label_smoothing < 0.5:
            raise ValueError("label_smoothing must be in (0, 0.5)")


@dataclass
class Generator:
    net: nn.Mlp          # (noise_dim + n_classes) -> ... -> n_features, tanh head
    noise_dim: int
    out_scale: float


@dataclass
class Discriminator:
    net: nn.Mlp          # n_features -> ... -> 1, sigmoid head


def build_generator(rng: np.random.Generator, noise_dim: int = 32,
                    out_scale: float = 0.1, n_features: int = N_FEATURES,
                    n_classes: int = N_CLASSES,
                    hidden: tuple[int, ...] = GEN_HIDDEN) -> Generator:
    dims = [noise_dim + n_classes, *hidden, n_features]
    activations = ["relu"] * len(hidden) + ["tanh"]
    return Generator(nn.build_mlp(dims, activations, rng), noise_dim, out_scale)


def build_discriminator(rng: np.random.Generator,
                        n_features: int = N_FEATURES,
                        hidden: tuple[int, ...] = DISC_HIDDEN) -> Discriminator:
    dims = [n_features, *hidden, 1]
    activations = ["relu"] * len(hidden) + ["sigmoid"]
    return Discriminator(nn.build_mlp(dims, activations, rng))


def smoothed_benign_target(label_smoothing: float,
                           n_classes: int = N_CLASSES) -> np.ndarray:
    """(1 - a) * onehot(benign) + a/n_classes; strictly positive everywhere."""
    target = np.full(n_classes, label_smoothing / n_classes)
    target[0] += 1.0 - label_smoothing
    return target


def generate_perturbation(gen: Generator, noise: np.ndarray,
                          labels: np.ndarray,
                          keep_cache: bool = False) -> np.ndarray:
    """delta = out_scale * net(noise, onehot(class)); attack classes only."""
    noise = np.asarray(noise, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if noise.ndim != 2 or noise.shape[1] != gen.noise_dim:
        raise ShapeError(f"noise must be (n, {gen.noise_dim})")
    if labels.shape != (noise.shape[0],):
        raise ShapeError("labels must be 1-d, one per noise row")
    n_classes = gen.net.in_dim - gen.noise_dim
    if (labels == 0).any():
        raise ValueError("benign (class 0) is not a valid generation target")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range [1, {n_classes})")
    stacked = np.hstack([noise, one_hot(labels, n_classes)])
    return gen.out_scale * gen.net.forward(stacked, keep_cache=keep_cache)


@dataclass
class GeneratorLossResult:
    total: float
    cls: float        # KL(ids(x_adv) || smoothed benign target)
    stealth: float    # mean squared distance to the paired benign rows
    gan: float        # -mean log D(x_adv)
    d_delta: np.ndarray   # dTotal/dDelta, for chaining into the generator


def generator_loss(ids_model: IdsModel, disc: Discriminator,
                   x_att: np.ndarray, delta: np.ndarray,
                   x_benign: np.ndarray,
                   config: GanConfig) -> GeneratorLossResult:
    x_att = np.asarray(x_att, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    x_benign = np.asarray(x_benign, dtype=np.float64)
    if x_att.shape != delta.shape or x_att.shape != x_benign.shape:
        raise ShapeError("x_att, delta and x_benign must share one shape")
    n = x_att.shape[0]
    raw = x_att + delta
    x_adv = np.clip(raw, 0.0, 1.0)
    clip_active = (raw > 0.0) & (raw < 1.0)

    # classification term: pull the detector's output toward "benign"
    target = smoothed_benign_target(config.label_smoothing,
                                    len(ids_model.class_names))
    probs = ids_model.net.forward(x_adv, keep_cache=True)
    cls = nn.kl_categorical(probs, target)
    safe_probs = np.maximum(probs, nn.PROB_CLAMP)
    d_probs = (np.log(safe_probs / target) + 1.0) / n
    _, dx_cls = ids_model.net.backward(d_probs, param_grads=False)

    # stealth term: stay close to real benign telemetry
    diff = x_adv - x_benign
    stealth = float((diff * diff).sum() / n)
    dx_stealth = 2.0 * diff / n

    # adversarial term: look real to the discriminator
    d_out = disc.net.forward(x_adv, keep_cache=True)
    d_clamped = np.clip(d_out, nn.PROB_CLAMP, 1.0 - nn.PROB_CLAMP)
    gan = float(-np.log(d_clamped).mean())
    d_dout = np.where((d_out > nn.PROB_CLAMP) & (d_out < 1.0 - nn.PROB_CLAMP),
                      -1.0 / (d_clamped * d_out.size), 0.0)
    _, dx_gan = disc.net.backward(d_dout, param_grads=False)

    for name, value in (("cls", cls), ("stealth", stealth), ("gan", gan)):
        if not np.isfinite(value):
            raise NumericError(f"generator loss term '{name}' is non-finite")

    total = (config.lambda_cls * cls + config.lambda_stealth * stealth
             + config.lambda_gan * gan)
    dx_total = (config.lambda_cls * dx_cls + config.lambda_stealth * dx_stealth
                + config.lambda_gan * dx_gan)
    return GeneratorLossResult(total, cls, stealth, gan,
                               dx_total * clip_active)


def generator_param_grads(gen: Generator,
                          d_delta: np.ndarray) -> list[np.ndarray]:
    """Chain dLoss/dDelta through the cached generator forward pass."""
    grads, _ = gen.net.backward(gen.out_scale * np.asarray(d_delta))
    return grads


def discriminator_loss(disc: Discriminator, x_benign: np.ndarray,
                       x_adv: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """0.5 * (BCE(D(benign), 1) + BCE(D(adv), 0)) and its parameter grads."""
    x_benign = np.asarray(x_benign, dtype=np.float64)
    x_adv = np.asarray(x_adv, dtype=np.float64)
    if x_benign.size == 0 or x_adv.size == 0:
        raise ValueError("both batches must be non-empty")
    p_ben = disc.net.forward(x_benign, keep_cache=True)
    loss_ben, d_ben = nn.binary_cross_entropy(p_ben, np.ones_like(p_ben))
    grads_ben, _ = disc.net.backward(d_ben)
    p_adv = disc.net.forward(x_adv, keep_cache=True)
    loss_adv, d_adv = nn.binary_cross_entropy(p_adv, np.zeros_like(p_adv))
    grads_adv, _ = disc.net.backward(d_adv)
    loss = 0.5 * (loss_ben + loss_adv)
    grads = [0.5 * (a + b) for a, b in zip(grads_ben, grads_adv)]
    return loss, grads


def train_cgan(ids_model: IdsModel, train: Dataset,
               config: GanConfig) -> tuple[Generator, Discriminator, list[dict]]:
    """Alternating one discriminator / one generator step per minibatch.

    Minibatches iterate over the attack rows; each step draws a fresh
    uniformly sampled benign batch for the discriminator and another for the
    stealth pairing. Curve rows: {epoch, d_loss, g_cls, g_stealth, g_gan}.
    """
    rng = derive_rng(config.seed, "cgan-train")
    gen = build_generator(rng, config.noise_dim, config.out_scale)
    disc = build_discriminator(rng)
    attack_rows = np.flatnonzero(train.labels > 0)
    benign_rows = np.flatnonzero(train.labels == 0)
    if attack_rows.size == 0 or benign_rows.size == 0:
        raise ValueError("training data needs both benign and attack rows")
    opt_g = nn.adam_init(gen.net.params(), config.learning_rate)
    opt_d = nn.adam_init(disc.net.params(), config.learning_rate)
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
            nn.adam_step(opt_d, disc.net.params(), d_grads)

            noise = rng.standard_normal((rows.size, config.noise_dim))
            delta = generate_perturbation(gen, noise, labels, keep_cache=True)
            x_pair = train.features[rng.choice(benign_rows, size=rows.size)]
            g_loss = generator_loss(ids_model, disc, x_att, delta, x_pair,
                                    config)
            nn.adam_step(opt_g, gen.net.params(),
                         generator_param_grads(gen, g_loss.d_delta))

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
                                   or abs(value) > DIVERGENCE_LIMIT):
                raise NumericError(
                    f"GAN training diverged at epoch {epoch} ({key}={value})")
        curve.append(row)
    gen.net.clear_cache()
    disc.net.clear_cache()
    ids_model.net.clear_cache()
    return gen, disc, curve


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_generator(gen: Generator, directory, name: str = "gen") -> dict:
    directory = Path(directory)
    weights_path = directory / f"{name}.weights"
    meta_path = directory / f"{name}.json"
    nn.save_mlp(weights_path, gen.net)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"noise_dim": gen.noise_dim, "out_scale": gen.out_scale},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"weights": str(weights_path), "meta": str(meta_path)}


def load_generator(directory, name: str = "gen") -> Generator:
    directory = Path(directory)
    net = nn.load_mlp(directory / f"{name}.weights")
    with open(directory / f"{name}.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    return Generator(net, int(meta["noise_dim"]), float(meta["out_scale"]))


def save_discriminator(disc: Discriminator, directory,
                       name: str = "disc") -> dict:
    directory = Path(directory)
    weights_path = directory / f"{name}.weights"
    nn.save_mlp(weights_path, disc.net)
    return {"weights": str(weights_path)}


def load_discriminator(directory, name: str = "disc") -> Discriminator:
    return Discriminator(nn.load_mlp(Path(directory) / f"{name}.weights"))
