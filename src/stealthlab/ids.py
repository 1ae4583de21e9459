"""Five-class intrusion detector: a 30-128-128-128-5 softmax classifier.

`train_ids(train, config, seed)` takes its seed as an argument: the config
holds the hyperparameters only, so it doubles as the run config's `ids`
section, and the pipeline derives the seed from the global one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import Dataset, N_CLASSES, N_FEATURES, read_json, write_json
from .errors import NumericError, ShapeError
from .rng import derive_rng

HIDDEN_WIDTHS = (128, 128, 128)
# stop once training accuracy has been 1.0 for this many consecutive epochs
EARLY_STOP_PATIENCE = 5


@dataclass
class IdsTrainConfig:
    epochs: int = 200
    batch_size: int = 64
    learning_rate: float = 0.001

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")


@dataclass
class IdsModel:
    net: nn.Mlp
    class_names: list[str]
    scaler_ref: str | None = None   # path of the scaler the inputs must pass


def build_ids_net(rng: np.random.Generator,
                  n_features: int = N_FEATURES,
                  n_classes: int = N_CLASSES) -> nn.Mlp:
    dims = [n_features, *HIDDEN_WIDTHS, n_classes]
    activations = ["relu"] * len(HIDDEN_WIDTHS) + ["softmax"]
    return nn.build_mlp(dims, activations, rng)


def predict_proba(model: IdsModel, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != model.net.in_dim:
        raise ShapeError(
            f"batch must be (n, {model.net.in_dim}), got {batch.shape}")
    return model.net.forward(batch)


def predict_label(model: IdsModel, batch: np.ndarray) -> np.ndarray:
    # argmax breaks ties toward the lowest class index
    return np.argmax(predict_proba(model, batch), axis=1)


def accuracy(model: IdsModel, dataset: Dataset) -> float:
    return float((predict_label(model, dataset.features)
                  == dataset.labels).mean())


def train_ids(train: Dataset, config: IdsTrainConfig,
              seed: int) -> tuple[IdsModel, list[dict]]:
    """Minibatch Adam on softmax cross-entropy with accuracy early stopping.

    Returns the model and one curve row per epoch:
    {epoch, loss, train_accuracy}.
    """
    rng = derive_rng(seed, "ids-train")
    net = build_ids_net(rng)
    model = IdsModel(net, list(train.class_names))
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
        train_acc = accuracy(model, train)
        curve.append({"epoch": epoch, "loss": epoch_loss,
                      "train_accuracy": train_acc})
        perfect_streak = perfect_streak + 1 if train_acc == 1.0 else 0
        if perfect_streak >= EARLY_STOP_PATIENCE:
            break
    return model, curve


# ---------------------------------------------------------------------------
# persistence: weight file plus JSON sidecar
# ---------------------------------------------------------------------------

def save_ids(model: IdsModel, directory,
             extra_meta: dict | None = None) -> list[Path]:
    """Write ids.weights and ids.json; returns their paths in that order."""
    directory = Path(directory)
    paths = [directory / "ids.weights", directory / "ids.json"]
    nn.save_mlp(paths[0], model.net)
    write_json(paths[1], {"class_names": model.class_names,
                          "scaler_ref": model.scaler_ref,
                          **(extra_meta or {})})
    return paths


def load_ids(directory) -> IdsModel:
    directory = Path(directory)
    net = nn.load_mlp(directory / "ids.weights")
    meta = read_json(directory / "ids.json", {"class_names": list[str]})
    return IdsModel(net, meta["class_names"], meta.get("scaler_ref"))
