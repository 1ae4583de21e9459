"""Minimal dense-network engine shared by every learned model in the lab.

All math runs in float64 on row-major numpy arrays: a batch is
(n_samples, n_features), a weight matrix is (fan_in, fan_out). The engine is
deliberately small -- dense layers, five activations (one `ACTIVATIONS` entry
per name holds its forward and its backward), reverse-mode gradients and a
deterministic Adam. The reference path is single threaded; the same seed
produces the same bits every run.

Arrays are converted where they enter (`data.Dataset`, `DenseLayer`).
Functions take float64 ndarrays of their documented shapes and int labels,
check them, and convert only where a result depends on it.

A net holds only its layers: `forward(x, tape)` appends (input,
pre-activation, output) per layer to the caller's list `tape`, and
`backward(upstream, tape)` reads that pass back, whatever ran in between.
A forward without a tape keeps nothing for backward, so each layer's
activation overwrites its fresh pre-activation: the result is a fresh
array, bitwise the taped pass's output, and the input is never written.

`Mlp.backward(..., param_grads=False)` propagates only the input gradient
when the caller would throw the weight gradients away, without changing a
bit of it.

Weight files are written through `data.atomic_write`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import atomic_write
from .errors import NumericError, ParseError, ShapeError

# probabilities are pulled into [PROB_CLAMP, 1 - PROB_CLAMP] before any log
PROB_CLAMP = 1e-7
# a training epoch whose mean loss exceeds this in magnitude has diverged
DIVERGENCE_LIMIT = 1e6

WEIGHT_MAGIC = b"MLPWGTS\x00"
WEIGHT_FORMAT_VERSION = 1


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with row-max subtraction for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _sigmoid(z: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    # 1 / (1 + exp(-z)), one ufunc at a time in one buffer
    act = np.negative(z, out=out)
    np.exp(act, out=act)
    act += 1.0
    return np.divide(1.0, act, out=act)


def _softmax_backward(grad_out: np.ndarray, z: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    # full Jacobian product: dz = s * (dy - sum_j dy_j s_j), row-wise
    inner = (grad_out * out).sum(axis=1, keepdims=True)
    return out * (grad_out - inner)


# name -> (forward(z, out), backward(grad_out, z, out)); a forward given
# `out=z` overwrites z (relu, sigmoid, tanh), bitwise a fresh result's values
ACTIVATIONS = {
    "linear": (lambda z, out: z, lambda grad_out, z, out: grad_out),
    "relu": (lambda z, out: np.maximum(z, 0.0, out=out),
             lambda grad_out, z, out: grad_out * (z > 0.0)),
    "sigmoid": (_sigmoid,
                lambda grad_out, z, out: grad_out * out * (1.0 - out)),
    "tanh": (lambda z, out: np.tanh(z, out=out),
             lambda grad_out, z, out: grad_out * (1.0 - out * out)),
    "softmax": (lambda z, out: softmax(z), _softmax_backward),
}


@dataclass
class DenseLayer:
    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray     # (fan_out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("weights must be 2-d (fan_in, fan_out)")
        if self.bias.shape != (self.weights.shape[1],):
            raise ShapeError("bias length must equal fan_out")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]


class Mlp:
    """A chain of dense layers."""

    def __init__(self, layers: list[DenseLayer]):
        if not layers:
            raise ValueError("need at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if prev.fan_out != nxt.fan_in:
                raise ShapeError(
                    f"layer dims do not chain: {prev.fan_out} -> {nxt.fan_in}")
        for layer in layers[:-1]:
            if layer.activation == "softmax":
                raise ValueError("softmax is only allowed on the final layer")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].fan_in

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        if x.ndim != 2:
            raise ShapeError("batch must be 2-d (n_samples, n_features)")
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"batch has {x.shape[1]} features, net expects {self.in_dim}")
        out = x
        for layer in self.layers:
            z = out @ layer.weights
            z += layer.bias
            # z is fresh, so without a tape the activation overwrites it;
            # a tape keeps the pre-activation for backward
            act = ACTIVATIONS[layer.activation][0](
                z, z if tape is None else None)
            if tape is not None:
                tape.append((out, z, act))
            out = act
        if not np.isfinite(out).all():
            raise NumericError("forward pass produced non-finite values")
        return out

    def backward(self, upstream: np.ndarray, tape: list,
                 from_logits: bool = False, param_grads: bool = True
                 ) -> tuple[list[np.ndarray] | None, np.ndarray]:
        """Backprop `upstream` through the forward pass recorded in `tape`.

        `upstream` is dLoss/dOutput, or dLoss/dLogits when `from_logits`
        (the final activation is then skipped, for fused losses). Returns
        (parameter gradients ordered [dW0, db0, dW1, db1, ...], dLoss/dInput).
        With `param_grads=False` the db/dW products are skipped and the first
        element is None; dLoss/dInput is bitwise the same either way.
        """
        if len(tape) != len(self.layers):
            raise ShapeError(f"tape has {len(tape)} entries, net has "
                             f"{len(self.layers)} layers")
        if upstream.shape != tape[-1][2].shape:
            raise ShapeError("upstream gradient shape does not match output")
        grads: list[np.ndarray] = []
        grad = upstream
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            x_in, z, out = tape[idx]
            if idx == len(self.layers) - 1 and from_logits:
                dz = grad
            else:
                dz = ACTIVATIONS[layer.activation][1](grad, z, out)
            if param_grads:
                grads.append(dz.sum(axis=0))      # db
                grads.append(x_in.T @ dz)         # dW
            grad = dz @ layer.weights.T
        if not param_grads:
            return None, grad
        grads.reverse()
        return grads, grad

    def params(self) -> list[np.ndarray]:
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...]."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def copy(self) -> "Mlp":
        return Mlp([DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
                    for l in self.layers])


def build_mlp(dims: list[int], activations: list[str],
              rng: np.random.Generator) -> Mlp:
    """Glorot-uniform initialised network: W ~ U(+-sqrt(6/(fan_in+fan_out)))."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        layers.append(DenseLayer(weights, np.zeros(fan_out), act))
    return Mlp(layers)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray,
                          labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy from logits; gradient is (softmax - onehot)/n."""
    if logits.ndim != 2:
        raise ShapeError("logits must be 2-d")
    if labels.shape != (logits.shape[0],):
        raise ShapeError("labels must be 1-d, one per row")
    n_classes = logits.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    probs = softmax(logits)
    rows = np.arange(logits.shape[0])
    picked = np.maximum(probs[rows, labels], PROB_CLAMP)
    loss = float(-np.log(picked).mean())
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    grad /= logits.shape[0]
    return loss, grad


def binary_cross_entropy(probs: np.ndarray,
                         targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE on probabilities clamped into [PROB_CLAMP, 1 - PROB_CLAMP].

    The gradient is taken with respect to the raw probabilities and is zero
    wherever the clamp is active.
    """
    if probs.shape != targets.shape:
        raise ShapeError("probs and targets must have the same shape")
    if not np.isin(targets, (0.0, 1.0)).all():
        raise ValueError("targets must be 0 or 1")
    clamped = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = float(-(targets * np.log(clamped)
                   + (1.0 - targets) * np.log(1.0 - clamped)).mean())
    active = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    grad = np.where(
        active,
        (clamped - targets) / (clamped * (1.0 - clamped) * probs.size),
        0.0,
    )
    return loss, grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# moment decay rates and the denominator guard of every Adam update
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    learning_rate: float
    m: list
    v: list
    step_count: int = 0


def adam_init(params: list[np.ndarray], learning_rate: float) -> AdamState:
    return AdamState(learning_rate, [np.zeros_like(p) for p in params],
                     [np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> list[np.ndarray]:
    """One bias-corrected Adam update, applied to `params` in place:

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)

    with beta1, beta2 and eps the ADAM_* constants. Every shape and gradient
    is checked before anything is written, so a failed step leaves params,
    moments and step_count untouched.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeError("params/grads do not match the optimiser state")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape mismatch for parameter {i}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {i}")
    state.step_count += 1
    beta1, beta2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    correction1 = 1.0 - beta1 ** state.step_count
    correction2 = 1.0 - beta2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= state.learning_rate * (m / correction1) / (
            np.sqrt(v / correction2) + eps)
    return params


# ---------------------------------------------------------------------------
# weight persistence
# ---------------------------------------------------------------------------
# Flat binary layout: magic, format version, layer count, then per layer
# (fan_in, fan_out, 8-byte activation tag), then per layer the little-endian
# float64 weight block (row-major) followed by the bias block.

def save_mlp(path, net: Mlp) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(WEIGHT_MAGIC)
        fh.write(struct.pack("<II", WEIGHT_FORMAT_VERSION, len(net.layers)))
        for layer in net.layers:
            tag = layer.activation.encode("ascii").ljust(8, b"\x00")
            fh.write(struct.pack("<II", layer.fan_in, layer.fan_out))
            fh.write(tag)
        for layer in net.layers:
            fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def load_mlp(path) -> Mlp:
    """The net save_mlp wrote; any other file is a ParseError naming it."""
    with open(path, "rb") as fh:
        magic = fh.read(len(WEIGHT_MAGIC))
        if magic != WEIGHT_MAGIC:
            raise ParseError(f"{path}: not a weight file (bad magic)")
        try:
            version, n_layers = struct.unpack("<II", fh.read(8))
            if version != WEIGHT_FORMAT_VERSION:
                raise ParseError(f"{path}: unsupported weight format version {version}")
            shapes = []
            for _ in range(n_layers):
                fan_in, fan_out = struct.unpack("<II", fh.read(8))
                tag = fh.read(8).rstrip(b"\x00").decode("ascii", "replace")
                if tag not in ACTIVATIONS:
                    raise ParseError(f"{path}: unknown activation tag '{tag}'")
                shapes.append((fan_in, fan_out, tag))
        except struct.error:
            raise ParseError(f"{path}: truncated header") from None
        # checked before any read, so no absurd shape allocates
        declared = sum((fan_in + 1) * fan_out * 8
                       for fan_in, fan_out, _ in shapes)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != declared:
            raise ParseError(f"{path}: weight blocks hold {held} bytes, the "
                             f"header declares {declared}")
        layers = []
        for fan_in, fan_out, tag in shapes:
            weights = np.frombuffer(fh.read(fan_in * fan_out * 8),
                                    dtype="<f8").reshape(fan_in, fan_out)
            bias = np.frombuffer(fh.read(fan_out * 8), dtype="<f8")
            layers.append(DenseLayer(weights.copy(), bias.copy(), tag))
    try:
        return Mlp(layers)
    except ValueError as exc:    # no layers, or widths that do not chain
        raise ParseError(f"{path}: {exc}") from None
