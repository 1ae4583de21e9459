"""Minimal dense-network engine shared by every learned model in the lab.

All math runs in float64 on row-major numpy arrays: a batch is
(n_samples, n_features), a weight matrix is (fan_in, fan_out). The engine is
deliberately small -- dense layers, five activations, reverse-mode gradients
from a cached forward pass, and a deterministic Adam. The reference path is
single threaded; the same seed produces the same bits every run.

Two paths avoid work without changing a bit of any result: `adam_step`
updates each tensor in place, walking it in cache-sized chunks through two
preallocated scratch buffers in the textbook operation order, and
`Mlp.backward(..., param_grads=False)` propagates only the input gradient
when the caller would throw the weight gradients away.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParseError, ShapeError, StateError

# probabilities are pulled into [PROB_CLAMP, 1 - PROB_CLAMP] before any log
PROB_CLAMP = 1e-7

ACTIVATIONS = ("linear", "relu", "sigmoid", "tanh", "softmax")

WEIGHT_MAGIC = b"MLPWGTS\x00"
WEIGHT_FORMAT_VERSION = 1


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed with row-max subtraction for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def _activation_forward(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if name == "tanh":
        return np.tanh(z)
    if name == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation '{name}'")


def _activation_backward(name: str, grad_out: np.ndarray, z: np.ndarray,
                         out: np.ndarray) -> np.ndarray:
    if name == "linear":
        return grad_out
    if name == "relu":
        return grad_out * (z > 0.0)
    if name == "sigmoid":
        return grad_out * out * (1.0 - out)
    if name == "tanh":
        return grad_out * (1.0 - out * out)
    if name == "softmax":
        # full Jacobian product: dz = s * (dy - sum_j dy_j s_j), row-wise
        inner = (grad_out * out).sum(axis=1, keepdims=True)
        return out * (grad_out - inner)
    raise ValueError(f"unknown activation '{name}'")


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
    """A chain of dense layers with a forward cache for reverse mode."""

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
        self._cache = None

    @property
    def in_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def out_dim(self) -> int:
        return self.layers[-1].fan_out

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError("batch must be 2-d (n_samples, n_features)")
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"batch has {x.shape[1]} features, net expects {self.in_dim}")
        cache = [] if keep_cache else None
        out = x
        for layer in self.layers:
            z = out @ layer.weights + layer.bias
            act = _activation_forward(layer.activation, z)
            if keep_cache:
                cache.append((out, z, act))
            out = act
        if not np.isfinite(out).all():
            raise NumericError("forward pass produced non-finite values")
        if keep_cache:
            self._cache = cache
        return out

    def cached_logits(self) -> np.ndarray:
        """Pre-activation of the final layer from the last cached forward."""
        if self._cache is None:
            raise StateError("no cached forward pass")
        return self._cache[-1][1]

    def backward(self, upstream: np.ndarray, from_logits: bool = False,
                 param_grads: bool = True
                 ) -> tuple[list[np.ndarray] | None, np.ndarray]:
        """Backprop `upstream` through the cached forward pass.

        `upstream` is dLoss/dOutput, or dLoss/dLogits when `from_logits`
        (the final activation is then skipped, for fused losses). Returns
        (parameter gradients ordered [dW0, db0, dW1, db1, ...], dLoss/dInput).
        With `param_grads=False` the db/dW products are skipped and the first
        element is None; dLoss/dInput is bitwise the same either way.
        """
        if self._cache is None:
            raise StateError("backward called without a cached forward pass")
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (self._cache[-1][2].shape):
            raise ShapeError("upstream gradient shape does not match output")
        grads: list[np.ndarray] = []
        grad = upstream
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            x_in, z, out = self._cache[idx]
            if idx == len(self.layers) - 1 and from_logits:
                dz = grad
            else:
                dz = _activation_backward(layer.activation, grad, z, out)
            if param_grads:
                grads.append(dz.sum(axis=0))      # db
                grads.append(x_in.T @ dz)         # dW
            grad = dz @ layer.weights.T
        if not param_grads:
            return None, grad
        grads.reverse()
        return grads, grad

    def clear_cache(self) -> None:
        self._cache = None

    def params(self) -> list[np.ndarray]:
        """Live parameter arrays, ordered [W0, b0, W1, b1, ...]."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out

    def set_params(self, values: list[np.ndarray]) -> None:
        current = self.params()
        if len(values) != len(current):
            raise ShapeError("parameter count mismatch")
        for dst, src in zip(current, values):
            if dst.shape != src.shape:
                raise ShapeError("parameter shape mismatch")
            dst[...] = src

    def copy(self) -> "Mlp":
        return Mlp([DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
                    for l in self.layers])

    def dims(self) -> list[int]:
        return [self.in_dim] + [l.fan_out for l in self.layers]


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
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
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
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
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


def kl_categorical(p: np.ndarray, q: np.ndarray) -> float:
    """Mean row-wise KL(p || q) over categorical rows, with 0*log(0) = 0.

    q must already be smoothed away from zero (entries >= PROB_CLAMP); the
    caller owns the smoothing policy.
    """
    p = np.atleast_2d(np.asarray(p, dtype=np.float64))
    q = np.atleast_2d(np.asarray(q, dtype=np.float64))
    if p.shape[1] != q.shape[1]:
        raise ShapeError("p and q must have the same number of classes")
    if q.shape[0] not in (1, p.shape[0]):
        raise ShapeError("q must be a single row or one row per row of p")
    for name, dist in (("p", p), ("q", q)):
        sums = dist.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError(f"rows of {name} must sum to 1 within 1e-6")
    if q.min() < PROB_CLAMP:
        raise ValueError("q has entries below the smoothing floor; smooth q first")
    terms = np.where(p > 0.0, p * (np.log(np.maximum(p, 1e-300)) - np.log(q)), 0.0)
    return float(terms.sum(axis=1).mean())


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Elements per in-place Adam pass: a chunk of p, g, m, v and the two scratch
# buffers stays in L2 across all the passes over it. On a 2-core Xeon (2 MiB
# L2 per core) an encoder-sized step (177,808 elements) took the same time
# with 32k and 64k chunks, 6% more with 16k and 20% more with 8k.
ADAM_CHUNK = 32768


@dataclass
class AdamState:
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    # (2, n) float64 scratch for adam_step, n <= ADAM_CHUNK; made on first use
    scratch: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)

    def reset(self) -> None:
        """Back to the freshly initialised state: zero moments, step 0."""
        for moment in self.m + self.v:
            moment.fill(0.0)
        self.step_count = 0


def adam_init(params: list[np.ndarray], learning_rate: float = 0.001,
              beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> AdamState:
    return AdamState(
        learning_rate=learning_rate, beta1=beta1, beta2=beta2, epsilon=epsilon,
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list[np.ndarray],
              grads: list[np.ndarray]) -> list[np.ndarray]:
    """One bias-corrected Adam update, applied to `params` in place.

    Every shape, layout and gradient is checked before anything is written,
    so a failed step leaves params, moments and step_count untouched. Each
    tensor is then walked in ADAM_CHUNK-element slices; every operation
    writes through `out=` into the slice itself or into the state's two
    scratch buffers. The operations and their order are those of

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        p -= lr * (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps)

    so the result is bitwise that of the whole-tensor formula.
    """
    if len(params) != len(state.m) or len(grads) != len(params):
        raise ShapeError("params/grads do not match the optimiser state")
    for i, (p, g, m, v) in enumerate(zip(params, grads, state.m, state.v)):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape mismatch for parameter {i}")
        if not (p.flags.c_contiguous and m.flags.c_contiguous
                and v.flags.c_contiguous):
            raise ShapeError(f"parameter {i} or its moments are not "
                             f"C-contiguous; they cannot be updated in place")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter {i}")
    chunk = min(ADAM_CHUNK, max((p.size for p in params), default=0))
    if state.scratch is None or state.scratch.shape[1] < chunk:
        state.scratch = np.empty((2, chunk))
    state.step_count += 1
    beta1, beta2 = state.beta1, state.beta2
    lr, eps = state.learning_rate, state.epsilon
    correction1 = 1.0 - beta1 ** state.step_count
    correction2 = 1.0 - beta2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        p, g, m, v = (t.reshape(-1) for t in (p, g, m, v))
        for lo in range(0, p.size, ADAM_CHUNK):
            ps, gs, ms, vs = (t[lo:lo + ADAM_CHUNK] for t in (p, g, m, v))
            a, b = state.scratch[0, :ps.size], state.scratch[1, :ps.size]
            np.multiply(ms, beta1, out=ms)
            np.multiply(gs, 1.0 - beta1, out=a)
            np.add(ms, a, out=ms)
            np.multiply(vs, beta2, out=vs)
            np.multiply(gs, 1.0 - beta2, out=a)
            np.multiply(a, gs, out=a)
            np.add(vs, a, out=vs)
            np.divide(vs, correction2, out=a)
            np.sqrt(a, out=a)
            np.add(a, eps, out=a)
            np.divide(ms, correction1, out=b)
            np.multiply(b, lr, out=b)
            np.divide(b, a, out=b)
            np.subtract(ps, b, out=ps)
    return params


# ---------------------------------------------------------------------------
# weight persistence
# ---------------------------------------------------------------------------
# Flat binary layout: magic, format version, layer count, then per layer
# (fan_in, fan_out, 8-byte activation tag), then per layer the little-endian
# float64 weight block (row-major) followed by the bias block.

def save_mlp(path, net: Mlp) -> None:
    with open(path, "wb") as fh:
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
    with open(path, "rb") as fh:
        magic = fh.read(len(WEIGHT_MAGIC))
        if magic != WEIGHT_MAGIC:
            raise ParseError(f"{path}: not a weight file (bad magic)")
        version, n_layers = struct.unpack("<II", fh.read(8))
        if version != WEIGHT_FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported weight format version {version}")
        shapes = []
        for _ in range(n_layers):
            fan_in, fan_out = struct.unpack("<II", fh.read(8))
            tag = fh.read(8).rstrip(b"\x00").decode("ascii")
            if tag not in ACTIVATIONS:
                raise ParseError(f"{path}: unknown activation tag '{tag}'")
            shapes.append((fan_in, fan_out, tag))
        layers = []
        for fan_in, fan_out, tag in shapes:
            w_bytes = fh.read(fan_in * fan_out * 8)
            b_bytes = fh.read(fan_out * 8)
            if len(w_bytes) != fan_in * fan_out * 8 or len(b_bytes) != fan_out * 8:
                raise ParseError(f"{path}: truncated weight block")
            weights = np.frombuffer(w_bytes, dtype="<f8").reshape(fan_in, fan_out)
            bias = np.frombuffer(b_bytes, dtype="<f8")
            layers.append(DenseLayer(weights.copy(), bias.copy(), tag))
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after weight blocks")
    return Mlp(layers)
