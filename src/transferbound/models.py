"""Tiny differentiable classifiers with hand-written reverse-mode gradients.

Everything runs on float64 numpy. Three architectures are supported --
a linear softmax classifier, an MLP with one or two hidden layers, and a
small 1-D convolutional net -- all exposed through the same flat-parameter
interface so ensembles can mix them freely.  Every architecture ends in
one dense stack of (W, b) layers over its features: linear is that stack
with no hidden layer, and conv_tiny feeds it the pooled channels of its
convolution.

One forward/backward core runs on a (M, P) stack of one spec's parameter
vectors.  The scorers take a model set only as its ``MemberStack``, which
``member_stack`` groups by spec once, where the set is made (an ensemble
when it is built, an attack's multi-member batch per step, a bound or an
ASR table per target list), and which slices each group's layer views
once per input layout; a ``Weights`` owns its one-member ``w.stack``,
which ``member_stack([w])`` returns.  ``vjp_stack`` runs one stacked
pass per group and returns the logits in model order with their
pullback.  ``vjp``, ``forward`` and ``input_gradient`` are its
one-member case, and ``loss_matrix`` and ``predict_matrix`` reduce its
logits; only training calls the core directly (``batch_ce_grads``), on
the (M, P) stack it trains, and its cross-entropy goes through the same
``LossKind`` ("ce") as every other loss.

The input's shape picks the arithmetic.  A (B, d) batch runs one (B, d)
matrix product per member, which may round differently from one-point
calls in the last bit.  (B, 1, d) rows run B separate one-point products
per member, each bitwise equal to a one-point call; the attacks evaluate
their batches of examples this way.  A loss may carry one label per row.

Gradient bookkeeping: a pullback call adds one gradient call per member
per input row to the global counter, ``stack.size * B`` for a (B, d)
batch or B rows, so an ``input_gradient`` at one point counts one.  That
count is the unit in which attack query budgets are measured.  Weight
gradients used for training do not touch the counter.

Every module checks its settings with ``check_count`` and ``check_real``,
the one owner of the rule for counts and finite reals.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# a name's position in these tuples is its tag in a checkpoint header
ARCHITECTURES = ("linear", "mlp", "conv_tiny")
ACTIVATIONS = ("relu", "tanh")

CHECKPOINT_MAGIC = b"FXW1"


class CheckpointError(ValueError):
    """Raised when a weight checkpoint is malformed."""


# ---------------------------------------------------------------------------
# the settings rule
# ---------------------------------------------------------------------------


def check_count(name: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_real(name: str, value, low: float = -np.inf, above: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and >= ``low`` (> ``low``
    when ``above``); the comparisons are written so that NaN fails."""
    if not (-np.inf < value < np.inf and (value > low if above else value >= low)):
        floor = "" if low == -np.inf else f"{'>' if above else '>='} {low} and "
        raise ValueError(f"{name} must be {floor}finite")


# ---------------------------------------------------------------------------
# gradient-call accounting
# ---------------------------------------------------------------------------


class GradCallCounter:
    """Thread-safe counter of input-gradient computations.

    ``add`` takes the lock, so increments from any thread accumulate.  A
    ``scope()`` (e.g. one attack run's tally) counts the growth of the
    total while it is open, from every thread, frozen when it closes.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._total += n

    @property
    def value(self) -> int:
        with self._lock:
            return self._total

    def scope(self):
        return _Tally(self)


class _Tally:
    def __init__(self, counter: GradCallCounter):
        self._counter, self._end = counter, None

    def __enter__(self) -> _Tally:
        self._start = self._counter.value
        return self

    def __exit__(self, *exc):
        self._end = self._counter.value

    @property
    def count(self) -> int:
        end = self._counter.value if self._end is None else self._end
        return end - self._start


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
        check_count("input_dim", self.input_dim, 1)
        check_count("num_classes", self.num_classes, 2)
        if self.arch == "mlp":
            if not 1 <= len(self.hidden) <= 2:
                raise ValueError("mlp takes one or two hidden layers")
            for h in self.hidden:
                check_count("hidden size", h, 1)
        elif self.hidden:
            raise ValueError(f"{self.arch} takes no hidden sizes")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.arch == "conv_tiny":
            check_count("channels", self.channels, 1)
        elif self.channels:
            raise ValueError(f"{self.arch} takes no channels")

    @property
    def kernel_size(self) -> int:
        return min(3, self.input_dim)


def _dense_shapes(spec: ModelSpec):
    """(fan_out, fan_in) of each layer in flat-parameter order: conv_tiny's
    (channels, kernel_size) kernel, then the dense stack from the features
    (the input, or conv_tiny's pooled channels) through the hidden sizes to
    the classes."""
    conv = [(spec.channels, spec.kernel_size)] if spec.arch == "conv_tiny" else []
    fans = (spec.channels or spec.input_dim,) + spec.hidden
    return conv + list(zip(spec.hidden, fans)) + [(spec.num_classes, fans[-1])]


def param_count(spec: ModelSpec) -> int:
    return sum(fan_out * fan_in + fan_out for fan_out, fan_in in _dense_shapes(spec))


@dataclass(frozen=True)
class Weights:
    """A flat float64 parameter vector bound to its spec, and its
    one-member ``MemberStack`` over a view of it."""

    spec: ModelSpec
    params: np.ndarray
    stack: MemberStack = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "stack",
                           MemberStack(((self.spec, slice(0, 1), p[None]),), 1))


def init_weights(spec: ModelSpec, rng: np.random.Generator) -> Weights:
    """Random initialization; He-style scaling for relu, Xavier for tanh."""
    gain = 2.0 if spec.activation == "relu" else 1.0
    chunks = []
    for fan_out, fan_in in _dense_shapes(spec):
        chunks.append(rng.normal(0.0, np.sqrt(gain / fan_in), size=fan_out * fan_in))
        chunks.append(np.zeros(fan_out))
    return Weights(spec, np.concatenate(chunks))


def _layers(spec: ModelSpec, P: np.ndarray, lead: int):
    """(weight, bias) views per layer of a (M, P) stack of parameter vectors:
    weights (M, *lead ones, fan_out, fan_in), biases (M, *lead ones, 1,
    fan_out), so that they broadcast against a batch with ``lead`` axes
    in front of its (rows, features) matrix."""
    layers, off, ones = [], 0, (-1,) + (1,) * lead
    for fan_out, fan_in in _dense_shapes(spec):
        n = fan_out * fan_in
        layers.append((P[:, off : off + n].reshape(ones + (fan_out, fan_in)),
                       P[:, off + n : off + n + fan_out].reshape(ones + (1, fan_out))))
        off += n + fan_out
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


def _forward_stack(spec: ModelSpec, layers, xb: np.ndarray):
    """The one forward pass: logits (M, *xb.shape[:-1], k) of a (M, P)
    parameter stack, given as its ``_layers`` views for xb, at a (B, d)
    batch, (B, 1, d) rows or per-member (M, B, d) batches, and its cache.
    Matmuls run per member, and on rows per member and row, so each row of
    a (B, 1, d) input equals a one-point call bitwise; a (B, d) batch is
    one (B, d) product per member and may round differently."""
    cache = {"x": xb, "layers": layers, "pre": [], "post": []}
    h, dense = xb, layers
    if spec.arch == "conv_tiny":
        # 'same' zero padding, activation, global average pool
        (K, cb), *dense = layers
        ksz, d = spec.kernel_size, spec.input_dim
        pad = (ksz - 1) // 2
        xpad = np.pad(xb, [(0, 0)] * (xb.ndim - 1) + [(pad, pad + ksz - 1 - pad)])
        a = cb[..., None] + K[..., None, :, 0, None] * xpad[..., None, 0:d]
        for j in range(1, ksz):
            a += K[..., None, :, j, None] * xpad[..., None, j : j + d]
        h = _act(spec, a)
        # conv_tiny has no hidden dense layer, so these hold its conv layer
        cache.update(xpad=xpad, pre=a, post=h)
        h = cache["pooled"] = h.mean(axis=-1)
    for W, b in dense[:-1]:
        a = h @ W.swapaxes(-1, -2) + b
        h = _act(spec, a)
        cache["pre"].append(a)
        cache["post"].append(h)
    W, b = dense[-1]
    return h @ W.swapaxes(-1, -2) + b, cache


def _backward_stack(spec: ModelSpec, cache, dlogits: np.ndarray, weights: bool = False):
    """Reverse pass of ``_forward_stack``: the input gradients (M, *xb.shape)
    of a cotangent shaped like its logits, or with ``weights`` the (M, P)
    flat weight gradients of the members at a (B, d) batch or at their
    (M, B, d) batches, each summed over its batch."""
    layers, pre, post = cache["layers"], cache["pre"], cache["post"]
    conv = spec.arch == "conv_tiny"
    dense, features = (layers[1:], cache["pooled"]) if conv else (layers, cache["x"])
    grads = []  # (dW, db) per layer, last layer first
    dh = dlogits
    for i in range(len(dense) - 1, -1, -1):
        if i < len(dense) - 1:
            dh = dh * _act_grad(spec, pre[i], post[i])
        if weights:
            below = post[i - 1] if i else features
            grads.append((dh.swapaxes(-1, -2) @ below, dh.sum(axis=-2)))
            if i == 0 and not conv:
                return _flat(grads)
        dh = dh @ dense[i][0]
    if not conv:
        return dh
    # dh is the gradient at the pooled features
    K, xpad = layers[0][0], cache["xpad"]
    ksz, d = spec.kernel_size, spec.input_dim
    da = (dh[..., None] / d) * _act_grad(spec, pre, post)
    if weights:
        xpad = np.broadcast_to(xpad, da.shape[:-2] + xpad.shape[-1:])
        dK = [np.einsum("mbcp,mbp->mc", da, xpad[..., j : j + d]) for j in range(ksz)]
        grads.append((np.stack(dK, axis=-1), da.sum(axis=(1, 3))))
        return _flat(grads)
    dxpad = np.zeros(da.shape[:-2] + xpad.shape[-1:])
    for j in range(ksz):
        dxpad[..., j : j + d] += np.einsum("m...cp,m...c->m...p", da, K[..., j])
    pad = (ksz - 1) // 2
    return dxpad[..., pad : pad + d]


def _flat(grads) -> np.ndarray:
    return np.concatenate([np.concatenate([gw.reshape(len(gb), -1), gb], axis=-1)
                           for gw, gb in reversed(grads)], axis=-1)


@dataclass
class MemberStack:
    """A model list grouped by spec, for scoring it many times: per group,
    in order of first appearance, the spec, the members' positions in the
    list and their stacked (M, P) parameters.  A position index is a slice
    when the group's members are one contiguous run of the list, which
    spares a scatter per use.  ``size`` is the length of the list."""

    groups: tuple
    size: int
    _views: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def layers(self, lead: int) -> list:
        """Each group's ``_layers`` views for inputs with ``lead`` axes
        before their (rows, features) matrix, built on first use and kept:
        the parameters are read-only, so the views never go stale."""
        views = self._views.get(lead)
        if views is None:
            views = self._views[lead] = [_layers(spec, P, lead)
                                         for spec, _, P in self.groups]
        return views


def member_stack(models: Sequence[Weights]) -> MemberStack:
    """The ``MemberStack`` of a model list.  The members must agree on the
    input dim and class count.  A one-member list gives its model's own
    ``stack``."""
    if len(models) == 0:
        raise ValueError("need at least one model")
    if len(models) == 1:
        return models[0].stack
    by_spec = {}
    for i, w in enumerate(models):
        by_spec.setdefault(w.spec, []).append(i)
    spec0 = models[0].spec
    if any((spec.input_dim, spec.num_classes)
           != (spec0.input_dim, spec0.num_classes) for spec in by_spec):
        raise ValueError("models disagree on the input dim or the number of classes")
    groups = []
    for spec, idx in by_spec.items():
        run = idx[-1] - idx[0] + 1 == len(idx)
        P = np.array([models[i].params for i in idx])
        P.flags.writeable = False
        groups.append((spec, slice(idx[0], idx[-1] + 1) if run else idx, P))
    return MemberStack(tuple(groups), len(models))


def _in_model_order(groups, blocks) -> np.ndarray:
    """Each spec group's block of member rows put back in model order; a
    single group's block already is."""
    if len(blocks) == 1:
        return blocks[0]
    out = np.empty((sum(len(b) for b in blocks),) + blocks[0].shape[1:])
    for (_, idx, _), block in zip(groups, blocks):
        out[idx] = block
    return out


def forward(w: Weights, x: np.ndarray) -> np.ndarray:
    """Logits for a single input (d,) -> (k,), or a batch (B,d) -> (B,k)."""
    return vjp(w, x)[0]


def vjp(w: Weights, x: np.ndarray):
    """Logits at x and their pullback, a function from a logit cotangent to
    the input gradient: the one-member case of ``vjp_stack``."""
    logits, pullback = vjp_stack(w.stack, x)
    return logits[0], lambda dlogits: pullback(np.asarray(dlogits)[None])[0]


def vjp_stack(stack: MemberStack, x: np.ndarray):
    """The logits of every member of a ``MemberStack`` at x, shape
    (stack.size, *x.shape[:-1], k), and their pullback, a function from a
    cotangent of that shape to the members' input gradients, shape
    (stack.size, *x.shape).

    x is one point (d,), a (B, d) batch or (B, 1, d) rows.  One stacked
    forward and backward per spec group.  A batch runs one (B, d) product
    per member; rows run B one-point products per member, and each row's
    logits and gradients equal a one-point call on it bitwise.  Each
    pullback call counts one gradient call per member per row of x:
    ``stack.size * B`` for B rows or a (B, d) batch, ``stack.size`` for
    one point.
    """
    groups = stack.groups
    d = groups[0][0].input_dim
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3 and x.shape[1:] != (1, d):
        raise ValueError(f"input rows have shape {x.shape}, model expects (*, 1, {d})")
    xb, single = (x, False) if x.ndim == 3 else _as_batch(x, d)
    passes = [_forward_stack(spec, layers, xb) for (spec, _, _), layers
              in zip(groups, stack.layers(xb.ndim - 2))]
    logits = _in_model_order(groups, [z for z, _ in passes])

    def pullback(dlogits: np.ndarray) -> np.ndarray:
        dl = np.asarray(dlogits, dtype=np.float64).reshape(logits.shape)
        dx = _in_model_order(groups, [
            _backward_stack(spec, cache, dl[idx])
            for (spec, idx, _), (_, cache) in zip(groups, passes)])
        GRAD_CALLS.add(stack.size * xb.shape[0])
        return dx[:, 0] if single else dx

    return (logits[:, 0] if single else logits), pullback


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

    label is one class index for every row, or an integer array of them
    that broadcasts against the logits' leading axes (a (B, 1) array for
    (M, B, 1, k) logits at (B, 1, d) rows), one class per row.  top, the
    highest label, is range-checked where it is indexed (_label_entries).
    """

    variant: str
    label: int
    top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.variant not in ("neg_ce", "ce", "bounded"):
            raise ValueError(f"unknown loss variant {self.variant!r}")
        label = self.label
        if isinstance(label, (int, np.integer)) and not isinstance(label, bool):
            lowest = top = label
        else:
            label = np.array(label)
            if label.dtype.kind not in "iu" or label.size == 0:
                raise ValueError("label must be a class index or an array of them")
            label.flags.writeable = False
            object.__setattr__(self, "label", label)
            lowest, top = label.min(), label.max()
        if lowest < 0:
            raise ValueError("label must be a class index")
        object.__setattr__(self, "top", top)


def neg_cross_entropy(label: int) -> LossKind:
    return LossKind("neg_ce", label)


def targeted_cross_entropy(label: int) -> LossKind:
    return LossKind("ce", label)


def bounded_error(label: int) -> LossKind:
    return LossKind("bounded", label)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


def _l2_rows(g: np.ndarray) -> np.ndarray:
    """The (..., 1) L2 norms of the rows of g, each a one-row dot product as
    in ``np.linalg.norm``, so bitwise equal to it."""
    return np.sqrt(g[..., None, :] @ g[..., :, None])[..., 0]


def _label_entries(a: np.ndarray, kind: LossKind):
    """(view, index) with view[index] the label entry of each row of a
    (..., k): a itself and the class index, or for a label array the flat
    view of a (a itself when a is contiguous) and flat positions.  The one
    range check of a label: kind.top >= k is a ValueError."""
    k, label = a.shape[-1], kind.label
    if kind.top >= k:
        raise ValueError(f"label {kind.top} out of range for {k} classes")
    if not isinstance(label, np.ndarray):
        return a, (..., label)
    rows = a.shape[:-1]
    at = np.arange(0, a.size, k).reshape(rows) + label
    if at.shape != rows:
        raise ValueError(f"labels of shape {label.shape} do not fit rows {rows}")
    return a.reshape(-1), at


def loss_from_logits(logits: np.ndarray, kind: LossKind, lse=None) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    lse = _logsumexp(z) if lse is None else lse
    view, at = _label_entries(z, kind)
    zy = view[at]
    if kind.variant == "neg_ce":
        return zy - lse
    if kind.variant == "ce":
        return lse - zy
    return 1.0 - np.exp(zy - lse)


def dloss_dlogits(logits: np.ndarray, kind: LossKind, lse=None) -> np.ndarray:
    """d loss / d logits; the cotangent fed into a ``vjp`` pullback.  Only
    the label entries are shifted, with no one-hot array: 1 - p is
    1 + (-p) and p - 1 is p + (-1) in IEEE arithmetic.  A caller that also
    takes the loss passes both functions the same ``_logsumexp(logits)``."""
    z = np.asarray(logits, dtype=np.float64)
    p = np.exp(z - (_logsumexp(z) if lse is None else lse)[..., None])
    if kind.variant == "neg_ce":
        g, shift = -p, 1.0
    elif kind.variant == "ce":
        g, shift = p, -1.0
    else:
        view, at = _label_entries(p, kind)
        py = view[at]
        g, shift = py[..., None] * p, -py
    view, at = _label_entries(g, kind)
    view[at] += shift
    return g


def loss(w: Weights, x: np.ndarray, kind: LossKind) -> float:
    """Scalar loss at one input (no gradient-call accounting)."""
    values = loss_from_logits(forward(w, x), kind)
    return float(values) if np.ndim(values) == 0 else values


def loss_matrix(stack: MemberStack, points: np.ndarray, kind: LossKind) -> np.ndarray:
    """Losses of every member of a ``MemberStack`` at every (B, d) point,
    shape (stack.size, B): the logits of ``vjp_stack``, no gradient-call
    accounting."""
    if np.ndim(points) != 2:
        raise ValueError("points must be a (B, d) batch")
    logits = vjp_stack(stack, points)[0]
    return loss_from_logits(logits, kind)


def predict_matrix(stack: MemberStack, X: np.ndarray) -> np.ndarray:
    """Predicted class of every member of a ``MemberStack`` at every (B, d)
    point, shape (stack.size, B): the argmax of ``vjp_stack``'s logits."""
    if np.ndim(X) != 2:
        raise ValueError("points must be a (B, d) batch")
    return np.argmax(vjp_stack(stack, X)[0], axis=-1)


def input_gradient(w: Weights, x: np.ndarray, kind: LossKind) -> np.ndarray:
    """d loss / d x.  Increments the global gradient-call counter by 1 per
    row of x."""
    logits, pullback = vjp(w, x)
    return pullback(dloss_dlogits(logits, kind))


def batch_ce_grads(spec: ModelSpec, layers, X: np.ndarray, kind: LossKind,
                   weights: bool = False):
    """Training's cross-entropy (``kind``, one label per row) of a (M, P)
    stack, as its lead-0 ``_layers`` views, at a (B, d) or per-member
    (M, B, d) batch: the logits and the input gradients, or with
    ``weights`` the (M, P) weight gradients of the mean losses.  It
    counts no gradient calls."""
    logits, cache = _forward_stack(spec, layers, X)
    dlogits = dloss_dlogits(logits, kind)
    if weights:
        dlogits /= X.shape[-2]
    return logits, _backward_stack(spec, cache, dlogits, weights)


def batch_ce_value_and_weight_grad(w: Weights, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a labelled batch and its weight gradient:
    the one-member case of ``batch_ce_grads``."""
    Xb, _ = _as_batch(X, w.spec.input_dim)
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (Xb.shape[0],):
        raise ValueError("labels must match the batch size")
    kind = targeted_cross_entropy(y)
    logits, grad = batch_ce_grads(w.spec, w.stack.layers(0)[0], Xb, kind, True)
    return float(np.mean(loss_from_logits(logits[0], kind))), grad[0]


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------


def _spec_header(spec: ModelSpec) -> bytes:
    extra = spec.hidden + ((spec.channels,) if spec.channels else ())
    fields = [
        ARCHITECTURES.index(spec.arch),
        spec.input_dim,
        spec.num_classes,
        ACTIVATIONS.index(spec.activation),
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
    if arch_tag >= len(ARCHITECTURES) or act_tag >= len(ACTIVATIONS):
        raise CheckpointError(f"{path}: unknown architecture or activation tag")
    arch = ARCHITECTURES[arch_tag]
    try:
        spec = ModelSpec(
            arch=arch,
            input_dim=int(d),
            num_classes=int(k),
            hidden=extra if arch == "mlp" else (),
            channels=extra[0] if arch == "conv_tiny" and extra else 0,
            activation=ACTIVATIONS[act_tag],
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad spec header: {exc}") from exc
    if blob[4:off] != _spec_header(spec):
        raise CheckpointError(
            f"{path}: bad spec header: {n_extra} extra fields for {arch}")
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
