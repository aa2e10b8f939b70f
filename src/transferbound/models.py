"""Tiny differentiable classifiers with hand-written reverse-mode gradients.

Everything runs on float64 numpy. Three architectures are supported --
a linear softmax classifier, an MLP with one or two hidden layers, and a
small 1-D convolutional net -- all exposed through the same flat-parameter
interface so ensembles can mix them freely.

Gradient bookkeeping: every call of a ``vjp`` pullback (and therefore
every ``input_gradient``) increments the global gradient-call counter by
exactly one.  That count is the unit in which attack query budgets are
measured.  Weight gradients used for training do not touch the counter.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ARCHITECTURES = ("linear", "mlp", "conv_tiny")
ACTIVATIONS = ("relu", "tanh")

_ARCH_TAGS = {"linear": 0, "mlp": 1, "conv_tiny": 2}
_ACT_TAGS = {"relu": 0, "tanh": 1}

CHECKPOINT_MAGIC = b"FXW1"


class CheckpointError(ValueError):
    """Raised when a weight checkpoint is malformed."""


# ---------------------------------------------------------------------------
# gradient-call accounting
# ---------------------------------------------------------------------------


class GradCallCounter:
    """Thread-safe counter of input-gradient computations.

    ``add`` is associative, so concurrent gradient computations may be
    accumulated from any number of threads.  Callers that need a private
    tally (e.g. one attack run) open a ``scope()``; increments made by the
    current thread are mirrored into every scope active on that thread.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0
        self._scopes = threading.local()

    def _stack(self):
        if not hasattr(self._scopes, "stack"):
            self._scopes.stack = []
        return self._scopes.stack

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._total += n
        for tally in self._stack():
            tally.count += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._total

    def scope(self):
        return _CounterScope(self)


class _Tally:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _CounterScope:
    def __init__(self, counter: GradCallCounter):
        self._counter = counter
        self._tally = _Tally()

    def __enter__(self) -> _Tally:
        self._counter._stack().append(self._tally)
        return self._tally

    def __exit__(self, *exc):
        self._counter._stack().remove(self._tally)
        return False


GRAD_CALLS = GradCallCounter()


# ---------------------------------------------------------------------------
# model specification and parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; the flat parameter layout is a pure
    function of this spec."""

    arch: str
    input_dim: int
    num_classes: int
    hidden: tuple = ()
    channels: int = 0
    activation: str = "relu"

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.arch == "mlp":
            if not 1 <= len(self.hidden) <= 2:
                raise ValueError("mlp takes one or two hidden layers")
            if any(h < 1 for h in self.hidden):
                raise ValueError("hidden sizes must be positive")
        elif self.hidden:
            raise ValueError(f"{self.arch} takes no hidden sizes")
        if self.arch == "conv_tiny":
            if self.channels < 1:
                raise ValueError("conv_tiny needs channels >= 1")
        elif self.channels:
            raise ValueError(f"{self.arch} takes no channels")

    @property
    def kernel_size(self) -> int:
        return min(3, self.input_dim)


def param_count(spec: ModelSpec) -> int:
    d, k = spec.input_dim, spec.num_classes
    if spec.arch == "linear":
        return k * d + k
    if spec.arch == "mlp":
        total, fan_in = 0, d
        for h in spec.hidden:
            total += h * fan_in + h
            fan_in = h
        return total + k * fan_in + k
    c = spec.channels
    return c * spec.kernel_size + c + k * c + k


@dataclass(frozen=True)
class Weights:
    """A flat float64 parameter vector bound to its spec."""

    spec: ModelSpec
    params: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.params, dtype=np.float64)
        expected = param_count(self.spec)
        if p.ndim != 1 or p.shape[0] != expected:
            raise ValueError(
                f"parameter vector has length {p.size}, spec requires {expected}"
            )
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "params", p)


def init_weights(spec: ModelSpec, rng: np.random.Generator) -> Weights:
    """Random initialization; He-style scaling for relu, Xavier for tanh."""
    chunks = []

    def dense(fan_out, fan_in):
        if spec.activation == "relu":
            scale = np.sqrt(2.0 / fan_in)
        else:
            scale = np.sqrt(1.0 / fan_in)
        chunks.append(rng.normal(0.0, scale, size=fan_out * fan_in))
        chunks.append(np.zeros(fan_out))

    if spec.arch == "linear":
        dense(spec.num_classes, spec.input_dim)
    elif spec.arch == "mlp":
        fan_in = spec.input_dim
        for h in spec.hidden:
            dense(h, fan_in)
            fan_in = h
        dense(spec.num_classes, fan_in)
    else:
        dense(spec.channels, spec.kernel_size)
        dense(spec.num_classes, spec.channels)
    return Weights(spec, np.concatenate(chunks))


def _unpack(spec: ModelSpec, params: np.ndarray):
    """Split the flat vector into (weight, bias) pairs per layer."""
    layers = []
    off = 0

    def take(fan_out, fan_in):
        nonlocal off
        w = params[off : off + fan_out * fan_in].reshape(fan_out, fan_in)
        off += fan_out * fan_in
        b = params[off : off + fan_out]
        off += fan_out
        layers.append((w, b))

    if spec.arch == "linear":
        take(spec.num_classes, spec.input_dim)
    elif spec.arch == "mlp":
        fan_in = spec.input_dim
        for h in spec.hidden:
            take(h, fan_in)
            fan_in = h
        take(spec.num_classes, fan_in)
    else:
        take(spec.channels, spec.kernel_size)
        take(spec.num_classes, spec.channels)
    return layers


def _act(spec: ModelSpec, a: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(a, 0.0)
    return np.tanh(a)


def _act_grad(spec: ModelSpec, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    # relu subgradient at exactly 0 is taken to be 0
    if spec.activation == "relu":
        return (a > 0.0).astype(np.float64)
    return 1.0 - h * h


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _as_batch(x: np.ndarray, d: int):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        if x.shape[0] != d:
            raise ValueError(f"input has dim {x.shape[0]}, model expects {d}")
        return x[None, :], True
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"input batch has shape {x.shape}, model expects (*, {d})")
    return x, False


def _forward_cached(w: Weights, xb: np.ndarray):
    spec = w.spec
    layers = _unpack(spec, w.params)
    cache = {"x": xb}
    if spec.arch == "linear":
        (W, b), = layers
        return xb @ W.T + b, cache
    if spec.arch == "mlp":
        h = xb
        pre, post = [], []
        for W, b in layers[:-1]:
            a = h @ W.T + b
            h = _act(spec, a)
            pre.append(a)
            post.append(h)
        W, b = layers[-1]
        cache["pre"], cache["post"] = pre, post
        return h @ W.T + b, cache
    # conv_tiny: 'same' zero padding, activation, global average pool
    (K, cb), (W, b) = layers
    ksz, d = spec.kernel_size, spec.input_dim
    pad = (ksz - 1) // 2
    xpad = np.pad(xb, ((0, 0), (pad, pad + ksz - 1 - pad)))
    a = np.broadcast_to(cb[None, :, None], (xb.shape[0], spec.channels, d)).copy()
    for j in range(ksz):
        a += K[:, j][None, :, None] * xpad[:, None, j : j + d]
    h = _act(spec, a)
    pooled = h.mean(axis=2)
    cache.update(xpad=xpad, pre=a, post=h, pooled=pooled)
    return pooled @ W.T + b, cache


def _backward(w: Weights, cache, dlogits: np.ndarray, need_input: bool, need_weights: bool):
    """Reverse pass shared by input and weight gradients.

    ``dlogits`` has shape (B, k).  Returns (dx, dparams); either may be
    None when not requested.  Weight gradients are summed over the batch.
    """
    spec = w.spec
    layers = _unpack(spec, w.params)
    xb = cache["x"]
    grads = [None] * len(layers)

    if spec.arch == "linear":
        (W, _), = layers
        dx = dlogits @ W if need_input else None
        if need_weights:
            grads[0] = (dlogits.T @ xb, dlogits.sum(axis=0))
    elif spec.arch == "mlp":
        pre, post = cache["pre"], cache["post"]
        W, _ = layers[-1]
        if need_weights:
            grads[-1] = (dlogits.T @ post[-1], dlogits.sum(axis=0))
        dh = dlogits @ W
        for i in range(len(layers) - 2, -1, -1):
            da = dh * _act_grad(spec, pre[i], post[i])
            W, _ = layers[i]
            below = xb if i == 0 else post[i - 1]
            if need_weights:
                grads[i] = (da.T @ below, da.sum(axis=0))
            dh = da @ W
        dx = dh if need_input else None
    else:
        (K, _), (W, _) = layers
        ksz, d = spec.kernel_size, spec.input_dim
        pad = (ksz - 1) // 2
        xpad, pre, post = cache["xpad"], cache["pre"], cache["post"]
        pooled = cache["pooled"]
        if need_weights:
            grads[1] = (dlogits.T @ pooled, dlogits.sum(axis=0))
        dpooled = dlogits @ W
        da = (dpooled[:, :, None] / d) * _act_grad(spec, pre, post)
        if need_weights:
            dK = np.zeros_like(K)
            for j in range(ksz):
                dK[:, j] = np.einsum("bcp,bp->c", da, xpad[:, j : j + d])
            grads[0] = (dK, da.sum(axis=(0, 2)))
        dx = None
        if need_input:
            dxpad = np.zeros_like(xpad)
            for j in range(ksz):
                dxpad[:, j : j + d] += np.einsum("bcp,c->bp", da, K[:, j])
            dx = dxpad[:, pad : pad + d]

    dparams = None
    if need_weights:
        dparams = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])
    return dx, dparams


def forward(w: Weights, x: np.ndarray) -> np.ndarray:
    """Logits for a single input (d,) -> (k,), or a batch (B,d) -> (B,k)."""
    xb, single = _as_batch(x, w.spec.input_dim)
    logits, _ = _forward_cached(w, xb)
    return logits[0] if single else logits


def vjp(w: Weights, x: np.ndarray):
    """Logits at x and their pullback: a function from a logit cotangent
    to the input gradient.  Each pullback call counts one gradient call."""
    xb, single = _as_batch(x, w.spec.input_dim)
    logits, cache = _forward_cached(w, xb)

    def pullback(dlogits: np.ndarray) -> np.ndarray:
        dl = np.asarray(dlogits, dtype=np.float64)
        dx, _ = _backward(w, cache, dl[None, :] if single else dl,
                          need_input=True, need_weights=False)
        GRAD_CALLS.add(1)
        return dx[0] if single else dx

    return (logits[0] if single else logits), pullback


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossKind:
    """One of the three loss flavors, bound to a class index.

    variant 'neg_ce'   : negative cross-entropy of the true class; minimizing
                         it drives the true-class probability down (untargeted
                         attack objective).
    variant 'ce'       : cross-entropy of a target class; minimizing it pulls
                         predictions toward that class (targeted objective).
    variant 'bounded'  : 1 - softmax probability of the class; always in
                         [0, 1], used for risk profiles and bound reports.
    """

    variant: str
    label: int

    def __post_init__(self):
        if self.variant not in ("neg_ce", "ce", "bounded"):
            raise ValueError(f"unknown loss variant {self.variant!r}")
        if self.label < 0:
            raise ValueError("label must be a class index")


def neg_cross_entropy(label: int) -> LossKind:
    return LossKind("neg_ce", label)


def targeted_cross_entropy(label: int) -> LossKind:
    return LossKind("ce", label)


def bounded_error(label: int) -> LossKind:
    return LossKind("bounded", label)


def _check_label(kind: LossKind, k: int):
    if kind.label >= k:
        raise ValueError(f"label {kind.label} out of range for {k} classes")


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


def loss_from_logits(logits: np.ndarray, kind: LossKind) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    lse = _logsumexp(z)
    zy = z[..., kind.label]
    if kind.variant == "neg_ce":
        return zy - lse
    if kind.variant == "ce":
        return lse - zy
    return 1.0 - np.exp(zy - lse)


def dloss_dlogits(logits: np.ndarray, kind: LossKind) -> np.ndarray:
    """d loss / d logits; the cotangent fed into a ``vjp`` pullback."""
    z = np.asarray(logits, dtype=np.float64)
    p = np.exp(z - _logsumexp(z)[..., None])
    onehot = np.zeros_like(p)
    onehot[..., kind.label] = 1.0
    if kind.variant == "neg_ce":
        return onehot - p
    if kind.variant == "ce":
        return p - onehot
    py = p[..., kind.label : kind.label + 1]
    return py * p - py * onehot


def loss(w: Weights, x: np.ndarray, kind: LossKind) -> float:
    """Scalar loss at one input (no gradient-call accounting)."""
    _check_label(kind, w.spec.num_classes)
    values = loss_from_logits(forward(w, x), kind)
    return float(values) if np.ndim(values) == 0 else values


def loss_matrix(models: Sequence[Weights], points: np.ndarray,
                kind: LossKind) -> np.ndarray:
    """Losses of every model at every (B, d) point, shape (len(models), B):
    one batched forward per model, no gradient-call accounting."""
    if np.ndim(points) != 2:
        raise ValueError("points must be a (B, d) batch")
    _check_label(kind, min(w.spec.num_classes for w in models))
    return np.stack([loss_from_logits(forward(w, points), kind)
                     for w in models])


def input_gradient(w: Weights, x: np.ndarray, kind: LossKind) -> np.ndarray:
    """d loss / d x.  Increments the global gradient-call counter by 1."""
    _check_label(kind, w.spec.num_classes)
    logits, pullback = vjp(w, x)
    return pullback(dloss_dlogits(logits, kind))


def weight_gradient(w: Weights, x: np.ndarray, kind: LossKind) -> np.ndarray:
    """d loss / d params at one input (training plumbing; not counted)."""
    _check_label(kind, w.spec.num_classes)
    xb, _ = _as_batch(x, w.spec.input_dim)
    logits, cache = _forward_cached(w, xb)
    dl = dloss_dlogits(logits, kind)
    _, dp = _backward(w, cache, dl, need_input=False, need_weights=True)
    return dp


def batch_ce_value_and_weight_grad(w: Weights, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a labelled batch and its weight gradient.

    This is the training objective; it bypasses the gradient-call counter.
    """
    Xb, _ = _as_batch(X, w.spec.input_dim)
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (Xb.shape[0],):
        raise ValueError("labels must match the batch size")
    if y.min() < 0 or y.max() >= w.spec.num_classes:
        raise ValueError("label out of range")
    logits, cache = _forward_cached(w, Xb)
    lse = _logsumexp(logits)
    zy = logits[np.arange(len(y)), y]
    value = float(np.mean(lse - zy))
    p = np.exp(logits - lse[:, None])
    p[np.arange(len(y)), y] -= 1.0
    _, dp = _backward(w, cache, p / len(y), need_input=False, need_weights=True)
    return value, dp


def batch_ce_input_gradients(w: Weights, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example input gradients of cross-entropy (training PGD plumbing)."""
    Xb, _ = _as_batch(X, w.spec.input_dim)
    y = np.asarray(y, dtype=np.int64)
    logits, cache = _forward_cached(w, Xb)
    p = np.exp(logits - _logsumexp(logits)[:, None])
    p[np.arange(len(y)), y] -= 1.0
    dx, _ = _backward(w, cache, p, need_input=True, need_weights=False)
    return dx


def predict_classes(w: Weights, X: np.ndarray) -> np.ndarray:
    logits = forward(w, X)
    return np.argmax(logits, axis=-1)


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def _spec_header(spec: ModelSpec) -> bytes:
    if spec.arch == "mlp":
        extra = spec.hidden
    elif spec.arch == "conv_tiny":
        extra = (spec.channels,)
    else:
        extra = ()
    fields = [
        _ARCH_TAGS[spec.arch],
        spec.input_dim,
        spec.num_classes,
        _ACT_TAGS[spec.activation],
        len(extra),
        *extra,
    ]
    return struct.pack(f"<{len(fields)}I", *fields)


def save_weights(w: Weights, path) -> None:
    blob = (
        CHECKPOINT_MAGIC
        + _spec_header(w.spec)
        + struct.pack("<Q", w.params.size)
        + w.params.astype("<f8").tobytes()
    )
    with open(path, "wb") as fh:
        fh.write(blob)


def load_weights(path) -> Weights:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    off = 4

    def u32s(n):
        nonlocal off
        if off + 4 * n > len(blob):
            raise CheckpointError(f"{path}: truncated header")
        vals = struct.unpack_from(f"<{n}I", blob, off)
        off += 4 * n
        return vals

    arch_tag, d, k, act_tag, n_extra = u32s(5)
    extra = u32s(n_extra)
    archs = {v: a for a, v in _ARCH_TAGS.items()}
    acts = {v: a for a, v in _ACT_TAGS.items()}
    if arch_tag not in archs or act_tag not in acts:
        raise CheckpointError(f"{path}: unknown architecture or activation tag")
    arch = archs[arch_tag]
    spec = ModelSpec(
        arch=arch,
        input_dim=int(d),
        num_classes=int(k),
        hidden=extra if arch == "mlp" else (),
        channels=extra[0] if arch == "conv_tiny" else 0,
        activation=acts[act_tag],
    )
    if off + 8 > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    (count,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if count != param_count(spec):
        raise CheckpointError(
            f"{path}: parameter count {count} does not match spec"
        )
    if off + 8 * count > len(blob):
        raise CheckpointError(f"{path}: truncated parameter payload")
    if off + 8 * count < len(blob):
        raise CheckpointError(
            f"{path}: {len(blob) - off - 8 * count} trailing bytes after the "
            f"parameter payload")
    params = np.frombuffer(blob, dtype="<f8", count=count, offset=off).astype(np.float64)
    return Weights(spec, params)
