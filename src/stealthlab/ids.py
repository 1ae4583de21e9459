"""Five-class intrusion detector: a 30-128-128-128-5 softmax classifier.

The IDS is a bare `nn.Mlp` over the classes of `data.CLASS_NAMES`:
`train_ids` and `load_ids` return the net, and `predict_label`, `accuracy`
and the attack and detect code take it. ids.json records the vocabulary
the net was trained on, and `load_ids` refuses a sidecar or a weight file
that disagrees with it.

`train_ids(train, config, seed)` takes its seed as an argument: the config
holds the hyperparameters only, so it doubles as the run config's `ids`
section, and the pipeline derives the seed from the global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import (CLASS_NAMES, Dataset, N_CLASSES, N_FEATURES, bound,
                   check_bounds, read_json, write_json)
from .errors import NumericError, ParseError
from .rng import derive_rng

HIDDEN_WIDTHS = (128, 128, 128)
# stop once training accuracy has been 1.0 for this many consecutive epochs
EARLY_STOP_PATIENCE = 5


@dataclass
class IdsTrainConfig:
    epochs: int = bound(200, min=0)
    batch_size: int = bound(64, min=1)
    learning_rate: float = bound(0.001, gt=0.0)

    __post_init__ = check_bounds


def build_ids_net(rng: np.random.Generator) -> nn.Mlp:
    dims = [N_FEATURES, *HIDDEN_WIDTHS, N_CLASSES]
    activations = ["relu"] * len(HIDDEN_WIDTHS) + ["softmax"]
    return nn.build_mlp(dims, activations, rng)


def predict_label(net: nn.Mlp, batch: np.ndarray) -> np.ndarray:
    # argmax breaks ties toward the lowest class index
    return np.argmax(net.forward(batch), axis=1)


def accuracy(net: nn.Mlp, dataset: Dataset) -> float:
    return float((predict_label(net, dataset.features)
                  == dataset.labels).mean())


def train_ids(train: Dataset, config: IdsTrainConfig,
              seed: int) -> tuple[nn.Mlp, list[dict]]:
    """Minibatch Adam on softmax cross-entropy with accuracy early stopping.

    Returns the net and one curve row per epoch:
    {epoch, loss, train_accuracy}.
    """
    rng = derive_rng(seed, "ids-train")
    net = build_ids_net(rng)
    optimiser = nn.adam_init(net.params(), config.learning_rate)
    curve: list[dict] = []
    perfect_streak = 0
    for epoch in range(config.epochs):
        order = rng.permutation(train.n)
        loss_sum = 0.0
        for start in range(0, train.n, config.batch_size):
            rows = order[start:start + config.batch_size]
            tape = []
            net.forward(train.features[rows], tape)
            loss, dlogits = nn.softmax_cross_entropy(tape[-1][1],
                                                     train.labels[rows])
            grads, _ = net.backward(dlogits, tape, from_logits=True)
            nn.adam_step(optimiser, net.params(), grads)
            loss_sum += loss * rows.size
        epoch_loss = loss_sum / train.n
        if not np.isfinite(epoch_loss):
            raise NumericError(f"training diverged at epoch {epoch}")
        train_acc = accuracy(net, train)
        curve.append({"epoch": epoch, "loss": epoch_loss,
                      "train_accuracy": train_acc})
        perfect_streak = perfect_streak + 1 if train_acc == 1.0 else 0
        if perfect_streak >= EARLY_STOP_PATIENCE:
            break
    return net, curve


# ---------------------------------------------------------------------------
# persistence: weight file plus JSON sidecar
# ---------------------------------------------------------------------------

def save_ids(net: nn.Mlp, directory,
             extra_meta: dict | None = None) -> list[Path]:
    """Write ids.weights and ids.json (CLASS_NAMES plus `extra_meta`);
    returns their paths in that order."""
    directory = Path(directory)
    paths = [directory / "ids.weights", directory / "ids.json"]
    nn.save_mlp(paths[0], net)
    write_json(paths[1], {"class_names": CLASS_NAMES, **(extra_meta or {})})
    return paths


def load_ids(directory) -> nn.Mlp:
    """The net save_ids wrote; an ids.json whose class_names are not
    CLASS_NAMES, or an ids.weights that does not map N_FEATURES inputs to
    N_CLASSES outputs, is a ParseError naming the file."""
    directory = Path(directory)
    weights_path = directory / "ids.weights"
    net = nn.load_mlp(weights_path)
    meta_path = directory / "ids.json"
    meta = read_json(meta_path, {"class_names": list[str]})
    if meta["class_names"] != CLASS_NAMES:
        raise ParseError(f"{meta_path}: 'class_names' {meta['class_names']} "
                         f"are not the class vocabulary {CLASS_NAMES}")
    if net.in_dim != N_FEATURES or net.layers[-1].fan_out != N_CLASSES:
        raise ParseError(f"{weights_path}: the net maps {net.in_dim} inputs "
                         f"to {net.layers[-1].fan_out} outputs, not "
                         f"{N_FEATURES} features to {N_CLASSES} classes")
    return net
