import ast
import hashlib
import math
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from transferbound import models as M


def random_spec(rng, arch=None, activation=None, d=None, k=None):
    arch = arch or rng.choice(["linear", "mlp", "conv_tiny"])
    activation = activation or rng.choice(["relu", "tanh"])
    d = d or int(rng.integers(2, 12))
    k = k or int(rng.integers(2, 6))
    if arch == "mlp":
        n_hidden = int(rng.integers(1, 3))
        hidden = tuple(int(rng.integers(2, 10)) for _ in range(n_hidden))
        return M.ModelSpec("mlp", d, k, hidden=hidden, activation=activation)
    if arch == "conv_tiny":
        return M.ModelSpec("conv_tiny", d, k, channels=int(rng.integers(1, 5)),
                           activation=activation)
    return M.ModelSpec("linear", d, k, activation=activation)


def reference_forward(w, x):
    """Independent re-implementation of the forward pass (loops, no batching)."""
    spec = w.spec
    p = list(w.params)

    def pop_dense(n_out, n_in):
        W = np.array([[p.pop(0) for _ in range(n_in)] for _ in range(n_out)])
        b = np.array([p.pop(0) for _ in range(n_out)])
        return W, b

    act = (lambda a: np.maximum(a, 0.0)) if spec.activation == "relu" else np.tanh
    if spec.arch == "linear":
        W, b = pop_dense(spec.num_classes, spec.input_dim)
        return W @ x + b
    if spec.arch == "mlp":
        h = x
        fan_in = spec.input_dim
        for size in spec.hidden:
            W, b = pop_dense(size, fan_in)
            h = act(W @ h + b)
            fan_in = size
        W, b = pop_dense(spec.num_classes, fan_in)
        return W @ h + b
    ksz = spec.kernel_size
    K, cb = pop_dense(spec.channels, ksz)
    W, b = pop_dense(spec.num_classes, spec.channels)
    d = spec.input_dim
    pad = (ksz - 1) // 2
    xpad = np.concatenate([np.zeros(pad), x, np.zeros(ksz - 1 - pad)])
    pooled = np.zeros(spec.channels)
    for c in range(spec.channels):
        for pos in range(d):
            a = cb[c]
            for j in range(ksz):
                a += K[c, j] * xpad[pos + j]
            pooled[c] += act(np.array([a]))[0]
    pooled /= d
    return W @ pooled + b


class TestForward:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            spec = random_spec(rng)
            w = M.init_weights(spec, rng)
            x = rng.uniform(0, 1, spec.input_dim)
            got = M.forward(w, x)
            want = reference_forward(w, x)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            spec = random_spec(rng)
            w = M.init_weights(spec, rng)
            X = rng.uniform(0, 1, (7, spec.input_dim))
            batched = M.forward(w, X)
            for i in range(7):
                assert np.allclose(batched[i], M.forward(w, X[i]), atol=1e-12)

    def test_param_counts(self):
        assert M.param_count(M.ModelSpec("linear", 10, 3)) == 33
        assert M.param_count(M.ModelSpec("mlp", 10, 3, hidden=(8,))) == 88 + 27
        assert M.param_count(M.ModelSpec("mlp", 4, 2, hidden=(5, 6))) == 25 + 36 + 14
        # conv: kernel 4*3 + bias 4 + head 3*4 + 3
        assert M.param_count(M.ModelSpec("conv_tiny", 10, 3, channels=4)) == 31

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            M.ModelSpec("linear", 5, 1)
        with pytest.raises(ValueError):
            M.ModelSpec("mlp", 5, 2)  # no hidden sizes
        with pytest.raises(ValueError):
            M.ModelSpec("mlp", 5, 2, hidden=(4, 4, 4))
        with pytest.raises(ValueError):
            M.ModelSpec("conv_tiny", 5, 2)
        with pytest.raises(ValueError):
            M.ModelSpec("linear", 5, 2, activation="gelu")
        for args, kw, message in (
                (("mlp", 3, 2), dict(hidden=(2.5,)), "hidden size must be an integer"),
                (("mlp", 3, 2), dict(hidden=(True,)), "hidden size must be an integer"),
                (("linear", 2.5, 2), {}, "input_dim must be an integer"),
                (("linear", 3, 2.5), {}, "num_classes must be an integer"),
                (("conv_tiny", 3, 2), dict(channels=1.5),
                 "channels must be an integer"),
                (("resnet", 3, 2), {}, "unknown architecture 'resnet'"),
                (("linear", 3, 2), dict(hidden=(4,)), "linear takes no hidden sizes"),
                (("mlp", 3, 2), dict(hidden=(4,), channels=2),
                 "mlp takes no channels")):
            with pytest.raises(ValueError, match=message):
                M.ModelSpec(*args, **kw)
        with pytest.raises(ValueError, match="length 7, spec requires 8"):
            M.Weights(M.ModelSpec("linear", 3, 2), np.zeros(7))
        # a numpy integer size is accepted and stored as int, so the spec's
        # repr (and every fingerprint over it) is that of the plain int
        spec = M.ModelSpec("mlp", 3, 2, hidden=(np.int64(4),))
        assert type(spec.hidden[0]) is int
        assert repr(spec) == repr(M.ModelSpec("mlp", 3, 2, hidden=(4,)))

    def test_wrong_input_dim_rejected(self):
        rng = np.random.default_rng(0)
        w = M.init_weights(M.ModelSpec("linear", 5, 2), rng)
        with pytest.raises(ValueError):
            M.forward(w, np.zeros(6))


class TestLosses:
    def test_loss_values_against_closed_forms(self):
        # craft a linear model with zero weights and chosen biases: logits = b
        k = 4
        spec = M.ModelSpec("linear", 3, k)
        b = np.array([10.0, 0.0, 0.0, 0.0])
        w = M.Weights(spec, np.concatenate([np.zeros(3 * k), b]))
        x = np.zeros(3)
        p0 = math.exp(10.0) / (math.exp(10.0) + (k - 1))
        assert abs(M.loss(w, x, M.neg_cross_entropy(0)) - math.log(p0)) < 1e-12
        assert abs(M.loss(w, x, M.targeted_cross_entropy(1)) - (-math.log((1 - p0) / 3))) < 1e-9
        assert abs(M.loss(w, x, M.bounded_error(0)) - (1 - p0)) < 1e-12

    def test_bounded_loss_range(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            spec = random_spec(rng)
            w = M.init_weights(spec, rng)
            x = rng.uniform(0, 1, spec.input_dim)
            v = M.loss(w, x, M.bounded_error(int(rng.integers(spec.num_classes))))
            assert 0.0 <= v <= 1.0

    def test_neg_ce_is_minus_targeted_ce_on_same_label(self):
        rng = np.random.default_rng(22)
        spec = random_spec(rng)
        w = M.init_weights(spec, rng)
        x = rng.uniform(0, 1, spec.input_dim)
        a = M.loss(w, x, M.neg_cross_entropy(1))
        b = M.loss(w, x, M.targeted_cross_entropy(1))
        assert abs(a + b) < 1e-12

    def test_label_out_of_range(self):
        rng = np.random.default_rng(23)
        w = M.init_weights(M.ModelSpec("linear", 4, 3), rng)
        with pytest.raises(ValueError):
            M.loss(w, np.zeros(4), M.bounded_error(3))
        with pytest.raises(ValueError):
            M.input_gradient(w, np.zeros(4), M.neg_cross_entropy(5))
        with pytest.raises(ValueError, match="labels must match the batch size"):
            M.batch_ce_value_and_weight_grad(w, np.zeros((2, 4)), np.array([0]))

    def test_label_vectors_are_checked_per_entry(self):
        with pytest.raises(ValueError, match="unknown loss variant 'hinge'"):
            M.LossKind("hinge", 0)
        with pytest.raises(ValueError, match="class index"):
            M.neg_cross_entropy(np.array([0, 2, -1]))
        with pytest.raises(ValueError, match="class index"):
            M.bounded_error(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="class index"):
            M.targeted_cross_entropy(True)
        kind = M.targeted_cross_entropy(np.array([[0], [3], [1]]))
        with pytest.raises(ValueError, match="label 3 out of range for 3"):
            M.loss_from_logits(np.zeros((3, 1, 3)), kind)
        M.loss_from_logits(np.zeros((3, 1, 4)), kind)
        with pytest.raises(ValueError, match="do not fit rows"):
            M.loss_from_logits(np.zeros((3, 4)), kind)
        with pytest.raises(ValueError):
            M.dloss_dlogits(np.zeros((2, 1, 4)), kind)

    @pytest.mark.parametrize("label", [np.array([4, 0]), 3],
                             ids=["array", "int"])
    def test_label_beyond_the_logits_is_a_value_error(self, label):
        # an array label of 4 on k = 3 would read the next row's logit
        z = np.array([[0.0, 1.0, 2.0], [5.0, 6.0, 7.0]])
        for variant in ("neg_ce", "ce", "bounded"):
            kind = M.LossKind(variant, label)
            with pytest.raises(ValueError, match="out of range for 3 classes"):
                M.loss_from_logits(z, kind)
            with pytest.raises(ValueError, match="out of range for 3 classes"):
                M.dloss_dlogits(z, kind)


def frozen_dloss_dlogits(logits, kind):
    """The one-hot cotangent that ``models.dloss_dlogits`` replaced, kept as
    its oracle for one class index."""
    z = np.asarray(logits, dtype=np.float64)
    p = np.exp(z - M._logsumexp(z)[..., None])
    onehot = np.zeros_like(p)
    onehot[..., kind.label] = 1.0
    if kind.variant == "neg_ce":
        return onehot - p
    if kind.variant == "ce":
        return p - onehot
    py = p[..., kind.label : kind.label + 1]
    return py * p - py * onehot


class TestLabelRows:
    VARIANTS = ("neg_ce", "ce", "bounded")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(5))
    def test_one_label_equals_one_hot_form_bitwise(self, seed, variant):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 6))
        for shape in ((k,), (7, k), (3, 7, 1, k)):
            z = rng.normal(0, 4, shape)
            kind = M.LossKind(variant, int(rng.integers(k)))
            got = M.dloss_dlogits(z, kind)
            assert got.tobytes() == frozen_dloss_dlogits(z, kind).tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("seed", range(5))
    def test_label_vector_equals_per_row_labels_bitwise(self, seed, variant):
        # (M, B, 1, k) logits with one label per row, as the attacks pass them
        rng = np.random.default_rng(seed)
        k, B = int(rng.integers(2, 6)), 9
        z = rng.normal(0, 4, (3, B, 1, k))
        labels = rng.integers(0, k, B)
        kind = M.LossKind(variant, labels[:, None])
        loss, dl = M.loss_from_logits(z, kind), M.dloss_dlogits(z, kind)
        assert loss.shape == (3, B, 1) and dl.shape == z.shape
        for b, y in enumerate(labels):
            one = M.LossKind(variant, int(y))
            assert loss[:, b].tobytes() == M.loss_from_logits(z[:, b], one).tobytes()
            assert dl[:, b].tobytes() == frozen_dloss_dlogits(z[:, b], one).tobytes()


class TestLossMatrix:
    @staticmethod
    def models_and_points(seed, n_points):
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(2, 12)), int(rng.integers(2, 6))
        models = [M.init_weights(random_spec(rng, d=d, k=k), rng)
                  for _ in range(int(rng.integers(1, 6)))]
        return models, rng.uniform(0, 1, (n_points, d)), int(rng.integers(k))

    @pytest.mark.parametrize("seed", range(20))
    def test_one_point_equals_per_model_loss_bitwise(self, seed):
        models, X, label = self.models_and_points(seed, 1)
        for kind in (M.neg_cross_entropy(label), M.bounded_error(label)):
            got = M.loss_matrix(M.member_stack(models), X, kind)
            assert got.shape == (len(models), 1)
            assert list(got[:, 0]) == [M.loss(w, X[0], kind) for w in models]

    @pytest.mark.parametrize("seed", range(20))
    def test_batch_matches_per_point_loss(self, seed):
        # a batched forward may round differently from single-row forwards
        models, X, label = self.models_and_points(seed, 7)
        kind = M.targeted_cross_entropy(label)
        got = M.loss_matrix(M.member_stack(models), X, kind)
        want = [[M.loss(w, x, kind) for x in X] for w in models]
        assert got.shape == (len(models), len(X))
        assert got == pytest.approx(np.array(want), rel=0, abs=1e-14)

    def test_rejects_bad_label_and_unbatched_points(self):
        models, X, _ = self.models_and_points(3, 2)
        k = models[0].spec.num_classes
        stack = M.member_stack(models)
        with pytest.raises(ValueError, match="out of range"):
            M.loss_matrix(stack, X, M.bounded_error(k))
        with pytest.raises(ValueError, match="batch"):
            M.loss_matrix(stack, X[0], M.bounded_error(0))


class TestStackedCore:
    """Members of one spec run as one stacked forward/backward; each row
    must equal that member's own one-member pass."""

    @staticmethod
    def interleaved(seed, n):
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(3, 12)), int(rng.integers(2, 6))
        specs = [M.ModelSpec("linear", d, k),
                 M.ModelSpec("mlp", d, k, hidden=(16,)),
                 M.ModelSpec("conv_tiny", d, k, channels=3, activation="tanh")]
        models = [M.init_weights(specs[i % 3], rng) for i in range(n)]
        return models, rng, d, k

    @pytest.mark.parametrize("batch", [1, 65])
    @pytest.mark.parametrize("seed", range(5))
    def test_loss_matrix_equals_per_model_loop_bitwise(self, seed, batch):
        # bitwise for conv_tiny too: its stacked ops are elementwise, or
        # reductions and matmuls that run per member
        models, rng, d, k = self.interleaved(seed, 12)
        X = rng.uniform(0, 1, (batch, d))
        stack = M.member_stack(models)
        for kind in (M.neg_cross_entropy(0), M.bounded_error(k - 1)):
            got = M.loss_matrix(stack, X, kind)
            want = np.stack([M.loss_from_logits(M.forward(w, X), kind)
                             for w in models])
            assert got.shape == (len(models), batch)
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(M.predict_matrix(stack, X),
                              [np.argmax(M.forward(w, X), axis=-1) for w in models])

    @pytest.mark.parametrize("seed", range(5))
    def test_list_pullback_rows_equal_input_gradient(self, seed):
        models, rng, d, _ = self.interleaved(seed, 9)
        kind = M.targeted_cross_entropy(1)
        for x in (rng.uniform(0, 1, d), rng.uniform(0, 1, (4, d))):
            with M.GRAD_CALLS.scope() as tally:
                logits, pullback = M.vjp_stack(M.member_stack(models), x)
                assert tally.count == 0
                grads = pullback(M.dloss_dlogits(logits, kind))
            assert tally.count == len(models) * (4 if x.ndim == 2 else 1)
            assert grads.shape == (len(models),) + x.shape
            for i, w in enumerate(models):
                assert logits[i].tobytes() == M.forward(w, x).tobytes()
                assert grads[i].tobytes() == M.input_gradient(w, x, kind).tobytes()

    @staticmethod
    def every_arch(seed, n):
        """linear, one- and two-hidden-layer MLPs (relu and tanh) and
        conv_tiny, interleaved so that no spec group is a contiguous run."""
        rng = np.random.default_rng(seed)
        d, k = int(rng.integers(3, 21)), int(rng.integers(2, 6))
        specs = [M.ModelSpec("linear", d, k),
                 M.ModelSpec("mlp", d, k, hidden=(16,)),
                 M.ModelSpec("mlp", d, k, hidden=(7, 5), activation="tanh"),
                 M.ModelSpec("conv_tiny", d, k, channels=3, activation="tanh"),
                 M.ModelSpec("mlp", d, k, hidden=(9,), activation="tanh"),
                 M.ModelSpec("mlp", d, k, hidden=(6, 4)),
                 M.ModelSpec("conv_tiny", d, k, channels=2)]
        models = [M.init_weights(specs[i % len(specs)], rng) for i in range(n)]
        return models, rng, d, k

    @pytest.mark.parametrize("rows", [1, 65])
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_equal_one_point_calls_bitwise(self, seed, rows):
        models, rng, d, k = self.every_arch(seed, 16)
        X = rng.uniform(0, 1, (rows, d))
        labels = rng.integers(0, k, rows)
        variant = ("neg_ce", "ce", "bounded")[seed % 3]
        stack = M.member_stack(models)
        with M.GRAD_CALLS.scope() as tally:
            logits, pullback = M.vjp_stack(stack, X[:, None])
            assert tally.count == 0
            grads = pullback(M.dloss_dlogits(
                logits, M.LossKind(variant, labels[:, None])))
        assert tally.count == len(models) * rows
        assert logits.shape == (len(models), rows, 1, k)
        assert grads.shape == (len(models), rows, 1, d)
        for b in range(rows):
            one, pull = M.vjp_stack(stack, X[b])
            g = pull(M.dloss_dlogits(one, M.LossKind(variant, int(labels[b]))))
            assert logits[:, b, 0].tobytes() == one.tobytes()
            assert grads[:, b, 0].tobytes() == g.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_member_stack_scores_like_its_list(self, seed):
        models, rng, d, k = self.every_arch(seed, 16)
        stack = M.member_stack(models)
        assert stack.size == len(models)
        assert all(not P.flags.writeable for _, _, P in stack.groups)
        X = rng.uniform(0, 1, (5, d))
        kind = M.LossKind("bounded", rng.integers(0, k, (5, 1)))
        for x in (X[0], X, X[:, None]):
            want, want_pull = M.vjp_stack(M.member_stack(models), x)
            got, pull = M.vjp_stack(stack, x)
            assert got.tobytes() == want.tobytes()
            cot = M.dloss_dlogits(got, kind if x.ndim == 3 else M.bounded_error(0))
            with M.GRAD_CALLS.scope() as tally:
                grads = pull(cot)
            assert tally.count == len(models) * (1 if x.ndim == 1 else 5)
            assert grads.tobytes() == want_pull(cot).tobytes()
        assert M.loss_matrix(stack, X, M.bounded_error(1)).tobytes() == \
            M.loss_matrix(M.member_stack(models), X, M.bounded_error(1)).tobytes()
        assert np.array_equal(M.predict_matrix(stack, X),
                              M.predict_matrix(M.member_stack(models), X))

    def test_a_model_owns_its_one_member_stack(self):
        models, rng, d, _ = self.every_arch(0, 7)
        X = rng.uniform(0, 1, (4, d))
        for w in models:
            assert M.member_stack([w]) is w.stack
            (spec, idx, P), = w.stack.groups
            assert (w.stack.size, spec, idx) == (1, w.spec, slice(0, 1))
            assert np.shares_memory(P, w.params) and not P.flags.writeable
            copied = M.MemberStack(((spec, idx, w.params[None].copy()),), 1)
            assert M.vjp_stack(w.stack, X)[0].tobytes() == \
                M.vjp_stack(copied, X)[0].tobytes()
        assert "stack" not in repr(models[0])

    def test_stack_slices_its_layer_views_once_per_lead_count(self, monkeypatch):
        models, rng, d, _ = self.every_arch(0, 9)
        stack = M.member_stack(models)
        X = rng.uniform(0, 1, (4, d))
        inputs = (X[0], X, X[:, None])
        want = [M.vjp_stack(M.member_stack(models), x)[0].tobytes()
                for x in inputs]
        layers, sliced = M._layers, []

        def counted(spec, P, lead):
            sliced.append((spec, lead))
            return layers(spec, P, lead)

        monkeypatch.setattr(M, "_layers", counted)
        for _ in range(3):
            assert [M.vjp_stack(stack, x)[0].tobytes() for x in inputs] == want
        # one slicing per group and lead count: 0 for a point or a batch,
        # 1 for rows
        specs = [spec for spec, _, _ in stack.groups]
        assert len(sliced) == len(set(sliced)) == 2 * len(specs)
        assert set(sliced) == {(spec, lead) for spec in specs for lead in (0, 1)}

    def test_rows_must_be_one_point_each(self):
        models, rng, d, _ = self.every_arch(0, 3)
        stack = M.member_stack(models)
        with pytest.raises(ValueError, match="rows"):
            M.vjp_stack(stack, rng.uniform(0, 1, (4, 2, d)))
        with pytest.raises(ValueError, match="rows"):
            M.vjp_stack(stack, rng.uniform(0, 1, (4, 1, d + 1)))
        with pytest.raises(ValueError, match="input batch has shape"):
            M.vjp_stack(stack, rng.uniform(0, 1, (4, d + 1)))

    def test_rejects_empty_list_unbatched_points_and_mixed_classes(self):
        models, rng, d, k = self.interleaved(0, 3)
        X = rng.uniform(0, 1, (2, d))
        # the scorers take only a stack, so both set checks live in its making
        with pytest.raises(ValueError, match="at least one model"):
            M.member_stack([])
        with pytest.raises(ValueError, match="batch"):
            M.loss_matrix(M.member_stack(models), X[0], M.bounded_error(0))
        with pytest.raises(ValueError, match="batch"):
            M.predict_matrix(M.member_stack(models), X[0])
        wider = M.init_weights(M.ModelSpec("linear", d, k + 1), rng)
        with pytest.raises(ValueError, match="classes"):
            M.member_stack(models + [wider])


# ---------------------------------------------------------------------------
# one dense stack for every architecture, against the code it replaced
# ---------------------------------------------------------------------------
#
# Frozen copies of the core that kept one branch per architecture: the
# forward and backward passes, the layer shapes and the checkpoint header.


def frozen_dense_shapes(spec):
    if spec.arch == "linear":
        return [(spec.num_classes, spec.input_dim)]
    if spec.arch == "mlp":
        fans = (spec.input_dim,) + spec.hidden
        return list(zip(spec.hidden, fans)) + [(spec.num_classes, fans[-1])]
    return [(spec.channels, spec.kernel_size), (spec.num_classes, spec.channels)]


def frozen_spec_header(spec):
    if spec.arch == "mlp":
        extra = spec.hidden
    elif spec.arch == "conv_tiny":
        extra = (spec.channels,)
    else:
        extra = ()
    fields = [{"linear": 0, "mlp": 1, "conv_tiny": 2}[spec.arch],
              spec.input_dim, spec.num_classes,
              {"relu": 0, "tanh": 1}[spec.activation], len(extra), *extra]
    return struct.pack(f"<{len(fields)}I", *fields)


def frozen_forward_stack(spec, layers, xb):
    cache = {"x": xb, "layers": layers}
    if spec.arch == "linear":
        (W, b), = layers
        return xb @ W.swapaxes(-1, -2) + b, cache
    if spec.arch == "mlp":
        h = xb
        pre, post = [], []
        for W, b in layers[:-1]:
            a = h @ W.swapaxes(-1, -2) + b
            h = M._act(spec, a)
            pre.append(a)
            post.append(h)
        W, b = layers[-1]
        cache["pre"], cache["post"] = pre, post
        return h @ W.swapaxes(-1, -2) + b, cache
    (K, cb), (W, b) = layers
    ksz, d = spec.kernel_size, spec.input_dim
    pad = (ksz - 1) // 2
    xpad = np.pad(xb, [(0, 0)] * (xb.ndim - 1) + [(pad, pad + ksz - 1 - pad)])
    a = cb[..., None] + K[..., None, :, 0, None] * xpad[..., None, 0:d]
    for j in range(1, ksz):
        a += K[..., None, :, j, None] * xpad[..., None, j : j + d]
    h = M._act(spec, a)
    pooled = h.mean(axis=-1)
    cache.update(xpad=xpad, pre=a, post=h, pooled=pooled)
    return pooled @ W.swapaxes(-1, -2) + b, cache


def frozen_backward_stack(spec, cache, dlogits, weights=False):
    layers, xb = cache["layers"], cache["x"]
    grads = []
    if spec.arch == "linear":
        (W, _), = layers
        if weights:
            return M._flat([(dlogits.swapaxes(-1, -2) @ xb, dlogits.sum(axis=-2))])
        return dlogits @ W
    if spec.arch == "mlp":
        pre, post = cache["pre"], cache["post"]
        dh = dlogits
        for i in range(len(layers) - 1, -1, -1):
            if i < len(layers) - 1:
                dh = dh * M._act_grad(spec, pre[i], post[i])
            if weights:
                below = post[i - 1] if i else xb
                grads.append((dh.swapaxes(-1, -2) @ below, dh.sum(axis=-2)))
                if i == 0:
                    return M._flat(grads)
            dh = dh @ layers[i][0]
        return dh
    (K, _), (W, _) = layers
    ksz, d = spec.kernel_size, spec.input_dim
    pad = (ksz - 1) // 2
    xpad, pre, post = cache["xpad"], cache["pre"], cache["post"]
    if weights:
        grads.append((dlogits.swapaxes(-1, -2) @ cache["pooled"],
                      dlogits.sum(axis=-2)))
    da = ((dlogits @ W)[..., None] / d) * M._act_grad(spec, pre, post)
    if weights:
        xpad = np.broadcast_to(xpad, da.shape[:-2] + xpad.shape[-1:])
        dK = [np.einsum("mbcp,mbp->mc", da, xpad[..., j : j + d]) for j in range(ksz)]
        grads.append((np.stack(dK, axis=-1), da.sum(axis=(1, 3))))
        return M._flat(grads)
    dxpad = np.zeros(da.shape[:-2] + xpad.shape[-1:])
    for j in range(ksz):
        dxpad[..., j : j + d] += np.einsum("m...cp,m...c->m...p", da, K[..., j])
    return dxpad[..., pad : pad + d]


def test_one_dense_stack_equals_the_per_architecture_core_bitwise():
    # 800 specs over the three architectures, one or two hidden layers,
    # relu and tanh, kernels of 1 to 3 taps, and 1 to 4 members; each at a
    # (B, d) batch, (B, 1, d) rows and per-member (M, B, d) batches, with
    # input gradients everywhere and weight gradients on the batches
    rng = np.random.default_rng(2028)
    cases = 0
    for n in range(800):
        arch = ("linear", "mlp", "conv_tiny")[n % 3]
        d, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        hidden = tuple(int(h) for h in rng.integers(1, 7, 1 + n // 3 % 2))
        spec = M.ModelSpec(arch, d, k, hidden=hidden if arch == "mlp" else (),
                           channels=int(rng.integers(1, 5)) if arch == "conv_tiny" else 0,
                           activation=("relu", "tanh")[n // 6 % 2])
        assert M._dense_shapes(spec) == frozen_dense_shapes(spec)
        assert M._spec_header(spec) == frozen_spec_header(spec)
        members, B = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        P = np.array([M.init_weights(spec, rng).params for _ in range(members)])
        for shape, lead, weights in (((B, d), 0, True), ((B, 1, d), 1, False),
                                     ((members, B, d), 0, True)):
            x = rng.uniform(0, 1, shape)
            layers = M._layers(spec, P, lead)
            got, cache = M._forward_stack(spec, layers, x)
            want, frozen = frozen_forward_stack(spec, layers, x)
            assert got.tobytes() == want.tobytes()
            dl = rng.normal(size=got.shape)
            for mode in (False, True) if weights else (False,):
                assert (M._backward_stack(spec, cache, dl, mode).tobytes()
                        == frozen_backward_stack(spec, frozen, dl, mode).tobytes())
                cases += 1
    assert cases == 800 * 5


def central_difference(f, x, h=1e-4):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# Frozen copies of the hand-written softmax cross-entropy that training used
# before it went through ``LossKind("ce")``.


def frozen_batch_ce_value_and_weight_grad(w, X, y):
    Xb, _ = M._as_batch(X, w.spec.input_dim)
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (Xb.shape[0],):
        raise ValueError("labels must match the batch size")
    if y.min() < 0 or y.max() >= w.spec.num_classes:
        raise ValueError("label out of range")
    logits, cache = M._forward_stack(w.spec, w.stack.layers(0)[0], Xb)
    logits = logits[0]
    lse = M._logsumexp(logits)
    zy = logits[np.arange(len(y)), y]
    value = float(np.mean(lse - zy))
    p = np.exp(logits - lse[:, None])
    p[np.arange(len(y)), y] -= 1.0
    return value, M._backward_stack(w.spec, cache, (p / len(y))[None],
                                    weights=True)[0]


def frozen_batch_ce_input_gradients(w, X, y):
    Xb, _ = M._as_batch(X, w.spec.input_dim)
    y = np.asarray(y, dtype=np.int64)
    logits, cache = M._forward_stack(w.spec, w.stack.layers(0)[0], Xb)
    logits = logits[0]
    p = np.exp(logits - M._logsumexp(logits)[:, None])
    p[np.arange(len(y)), y] -= 1.0
    return M._backward_stack(w.spec, cache, p[None])[0]


class TestGradients:
    def test_hand_logistic_gradient(self):
        # two-class linear model: CE(y=0) = log(1 + exp(z1 - z0)), so
        # d/dx = sigmoid(z1 - z0) * (w1 - w0)
        rng = np.random.default_rng(31)
        spec = M.ModelSpec("linear", 6, 2)
        for _ in range(20):
            w = M.init_weights(spec, rng)
            x = rng.uniform(0, 1, 6)
            W = w.params[:12].reshape(2, 6)
            b = w.params[12:]
            z = W @ x + b
            s = 1.0 / (1.0 + math.exp(-(z[1] - z[0])))
            hand = s * (W[1] - W[0])
            got = M.input_gradient(w, x, M.targeted_cross_entropy(0))
            assert np.max(np.abs(got - hand)) < 1e-10

    def test_input_gradient_finite_differences(self):
        rng = np.random.default_rng(32)
        kinds = [
            lambda k: M.neg_cross_entropy(0),
            lambda k: M.targeted_cross_entropy(k - 1),
            lambda k: M.bounded_error(0),
        ]
        for trial in range(24):
            spec = random_spec(rng, activation="tanh")
            w = M.init_weights(spec, rng)
            x = rng.uniform(0.1, 0.9, spec.input_dim)
            kind = kinds[trial % 3](spec.num_classes)
            g = M.input_gradient(w, x, kind)
            fd = central_difference(lambda v: M.loss(w, v, kind), x)
            mask = np.abs(g) > 1e-6
            if mask.any():
                rel = np.abs(g - fd)[mask] / np.abs(g)[mask]
                assert rel.max() < 1e-3

    def test_weight_gradient_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(8):
            spec = random_spec(rng, activation="tanh")
            w = M.init_weights(spec, rng)
            x = rng.uniform(0.1, 0.9, spec.input_dim)
            kind = M.targeted_cross_entropy(0)
            g = M.batch_ce_value_and_weight_grad(w, x[None], np.array([0]))[1]
            fd = central_difference(
                lambda p: M.loss(M.Weights(spec, p), x, kind), w.params.copy()
            )
            mask = np.abs(g) > 1e-6
            assert mask.any()
            rel = np.abs(g - fd)[mask] / np.abs(g)[mask]
            assert rel.max() < 1e-3

    def test_batch_ce_weight_grad_matches_per_example(self):
        rng = np.random.default_rng(34)
        spec = M.ModelSpec("mlp", 5, 3, hidden=(7,), activation="tanh")
        w = M.init_weights(spec, rng)
        X = rng.uniform(0, 1, (9, 5))
        y = rng.integers(0, 3, 9)
        value, g = M.batch_ce_value_and_weight_grad(w, X, y)
        per = np.mean(
            [M.batch_ce_value_and_weight_grad(w, X[i][None], y[i : i + 1])[1]
             for i in range(9)], axis=0)
        losses = [M.loss(w, X[i], M.targeted_cross_entropy(int(y[i]))) for i in range(9)]
        assert abs(value - np.mean(losses)) < 1e-12
        assert np.max(np.abs(g - per)) < 1e-12

    @pytest.mark.parametrize("batch", [1, 32])
    @pytest.mark.parametrize("arch", ["linear", "mlp", "conv_tiny"])
    def test_batch_ce_equals_hand_written_softmax_bitwise(self, arch, batch):
        rng = np.random.default_rng(35 + batch)
        for _ in range(4):
            spec = random_spec(rng, arch=arch)
            w = M.init_weights(spec, rng)
            X = rng.uniform(0, 1, (batch, spec.input_dim))
            y = rng.integers(0, spec.num_classes, batch)
            value, g = M.batch_ce_value_and_weight_grad(w, X, y)
            want_value, want_g = frozen_batch_ce_value_and_weight_grad(w, X, y)
            assert (value, g.tobytes()) == (want_value, want_g.tobytes())
            # training PGD's stacked gradient at one member, batch X[None]
            got = M.batch_ce_grads(spec, w.stack.layers(0)[0], X[None],
                                   M.targeted_cross_entropy(y[None]))
            assert (got[1][0].tobytes()
                    == frozen_batch_ce_input_gradients(w, X, y).tobytes())

    def test_relu_subgradient_at_zero_is_zero(self):
        # single hidden unit with preactivation exactly 0 at this input:
        # w1 . x = 1.5 - 1.5 = 0, bias 0.  With the subgradient-at-0 = 0
        # convention nothing flows back to the input.
        spec = M.ModelSpec("mlp", 3, 2, hidden=(1,), activation="relu")
        params = np.zeros(M.param_count(spec))
        params[0:3] = [5.0, 0.0, -3.0]  # hidden weights; bias stays 0
        params[4:6] = [2.0, -2.0]       # head weights so a tie would matter
        w = M.Weights(spec, params)
        x = np.array([0.3, 0.4, 0.5])
        pre = params[0] * x[0] + params[2] * x[2]
        assert pre == 0.0
        g = M.input_gradient(w, x, M.neg_cross_entropy(0))
        assert np.all(g == 0.0)


class TestGradCounter:
    def test_each_input_gradient_counts_one(self):
        rng = np.random.default_rng(41)
        spec = random_spec(rng)
        w = M.init_weights(spec, rng)
        x = rng.uniform(0, 1, spec.input_dim)
        before = M.GRAD_CALLS.value
        with M.GRAD_CALLS.scope() as tally:
            for _ in range(5):
                M.input_gradient(w, x, M.bounded_error(0))
            M.forward(w, x)
            M.loss(w, x, M.bounded_error(0))
            M.batch_ce_value_and_weight_grad(w, x[None], np.array([0]))
        assert tally.count == 5
        assert M.GRAD_CALLS.value - before == 5

    def test_vjp_counts_one(self):
        rng = np.random.default_rng(42)
        spec = random_spec(rng)
        w = M.init_weights(spec, rng)
        x = rng.uniform(0, 1, spec.input_dim)
        kind = M.bounded_error(0)
        with M.GRAD_CALLS.scope() as tally:
            logits, pullback = M.vjp(w, x)
            assert tally.count == 0
            g = pullback(M.dloss_dlogits(logits, kind))
            pullback(np.ones(spec.num_classes))
        assert tally.count == 2
        assert np.array_equal(logits, M.forward(w, x))
        assert np.array_equal(g, M.input_gradient(w, x, kind))

    def test_pullback_counts_one_per_member_per_row(self):
        models, rng, d, _ = TestStackedCore.interleaved(44, 3)
        X = rng.uniform(0, 1, (7, d))
        kind = M.bounded_error(0)
        with M.GRAD_CALLS.scope() as tally:
            logits, pullback = M.vjp_stack(M.member_stack(models), X)
            pullback(M.dloss_dlogits(logits, kind))
        assert tally.count == 3 * 7
        for w in models:
            with M.GRAD_CALLS.scope() as tally:
                logits, pullback = M.vjp(w, X)
                pullback(M.dloss_dlogits(logits, kind))
                assert tally.count == 7
                M.input_gradient(w, X, kind)
            assert tally.count == 14

    def test_concurrent_increments_accumulate(self):
        rng = np.random.default_rng(43)
        spec = M.ModelSpec("linear", 4, 2)
        w = M.init_weights(spec, rng)
        x = rng.uniform(0, 1, 4)
        before = M.GRAD_CALLS.value

        def worker():
            for _ in range(50):
                M.input_gradient(w, x, M.bounded_error(0))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        with M.GRAD_CALLS.scope() as tally:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        assert M.GRAD_CALLS.value - before == 200
        # a scope counts the growth of the total, whichever thread made it
        assert tally.count == 200


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(51)
        for _ in range(6):
            spec = random_spec(rng)
            w = M.init_weights(spec, rng)
            path = tmp_path / "w.fxw"
            M.save_weights(w, path)
            back = M.load_weights(path)
            assert back.spec == w.spec
            assert back.params.tobytes() == w.params.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.fxw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(M.CheckpointError):
            M.load_weights(path)

    def test_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(52)
        w = M.init_weights(M.ModelSpec("linear", 4, 2), rng)
        path = tmp_path / "w.fxw"
        M.save_weights(w, path)
        blob = path.read_bytes()
        # 24: right after the spec header, before the parameter count
        for cut, message in ((6, "truncated header"), (20, "truncated header"),
                             (24, "truncated header"),
                             (len(blob) - 3, "truncated parameter payload")):
            clipped = tmp_path / "cut.fxw"
            clipped.write_bytes(blob[:cut])
            with pytest.raises(M.CheckpointError, match=message):
                M.load_weights(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(54)
        w = M.init_weights(M.ModelSpec("linear", 4, 2), rng)
        path = tmp_path / "w.fxw"
        M.save_weights(w, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(M.CheckpointError, match="trailing"):
            M.load_weights(path)

    @pytest.mark.parametrize("fields, count, message", [
        ((2, 4, 2, 0, 0), 0, "bad spec header"), ((1, 4, 2, 0, 0), 0, "bad spec header"),
        ((0, 4, 1, 0, 0), 0, "bad spec header"), ((0, 0, 2, 0, 0), 0, "bad spec header"),
        ((0, 4, 2, 0, 1, 7), 10, "bad spec header"),
        ((2, 4, 2, 0, 2, 3, 5), 20, "bad spec header"),
        ((7, 4, 2, 0, 0), 0, "unknown architecture or activation tag")],
        ids=["conv_no_channels", "mlp_no_hidden", "one_class", "no_input_dim",
             "linear_with_an_extra_field", "conv_with_two_extra_fields",
             "unknown_arch_tag"])
    def test_bad_spec_header_rejected(self, tmp_path, fields, count, message):
        # magic, then arch tag, d, k, activation tag, n_extra and the extra
        # fields; the last two carry a payload sized for the spec they name
        path = tmp_path / "spec.fxw"
        path.write_bytes(M.CHECKPOINT_MAGIC + struct.pack(f"<{len(fields)}IQ", *fields, count)
                         + bytes(8 * count))
        with pytest.raises(M.CheckpointError, match=f"spec.fxw: {message}"):
            M.load_weights(path)

    @pytest.mark.parametrize("activation, arch, hidden, digest", [
        ("relu", "linear", (), "f28ce9a2048ce6e6b9366b90ab4c0d4eacdc9391640bb9b5a67cc783f4c8ba5b"),
        ("relu", "mlp", (4,), "ff2dfd10c7b6e171f6aed4532602657c41791b3fcc9b1ed79555a05fd8077a98"),
        ("relu", "mlp", (4, 6), "225526280f3697541a96420c5227fba665f8b39ded6e06d600fae9761f0c44cb"),
        ("relu", "conv_tiny", (), "7dad10c57d88e49a1374188f0e0bf23dad6470439470ac4109ca347433bdc828"),
        ("tanh", "linear", (), "7072d6c3b95c18259acd1e59e0b8aa2a906ded590aab7828cd8c41f8f139c2fc"),
        ("tanh", "mlp", (4,), "fd00b591dbb6528755bf194673204db2fa2277806431a9d4118ba4ec19a2549e"),
        ("tanh", "mlp", (4, 6), "0ff5e1fd5790e344679de5c985b022be3ca7f0908e338d61341e07b6c158ef0c"),
        ("tanh", "conv_tiny", (), "51a6e97372e1bf175e63a66c947efee4735063a220e26ede776438c6a263a13b"),
    ])
    def test_file_bytes_are_pinned(self, tmp_path, activation, arch, hidden, digest):
        # a header change shared by save_weights and load_weights would
        # still round-trip; these SHA-256 digests pin the bytes on disk
        spec = M.ModelSpec(arch, 5, 3, hidden=hidden,
                           channels=2 if arch == "conv_tiny" else 0,
                           activation=activation)
        path = tmp_path / "w.fxw"
        M.save_weights(M.init_weights(spec, np.random.default_rng(7)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_count_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(53)
        w = M.init_weights(M.ModelSpec("linear", 4, 2), rng)
        path = tmp_path / "w.fxw"
        M.save_weights(w, path)
        blob = bytearray(path.read_bytes())
        # header: magic(4) + 5 u32 fields; count sits right after
        blob[4 + 20 : 4 + 28] = struct.pack("<Q", 999)
        path.write_bytes(bytes(blob))
        with pytest.raises(M.CheckpointError):
            M.load_weights(path)


# ---------------------------------------------------------------------------
# the settings rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("check, args, message", [
    (M.check_count, ("n", 2.5, 1), "n must be an integer >= 1, got 2.5"),
    (M.check_count, ("n", True, 0), "n must be an integer >= 0, got True"),
    (M.check_count, ("n", None, 0), "n must be an integer >= 0, got None"),
    (M.check_count, ("n", np.int64(-1), 0), "n must be an integer >= 0, got"),
    (M.check_real, ("g", math.nan, 0), "g must be >= 0 and finite"),
    (M.check_real, ("g", 0.0, 0, True), "g must be > 0 and finite"),
    (M.check_real, ("g", math.inf), "g must be finite"),
    (M.check_real, ("g", -math.inf), "g must be finite"),
], ids=["fraction", "bool", "none", "numpy_negative", "nan", "at_open_floor",
        "inf", "minus_inf"])
def test_settings_rule_refuses(check, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check(*args)


def test_settings_rule_accepts():
    M.check_count("n", 0, 0)
    M.check_count("n", np.int64(3), 1)
    M.check_real("g", 0.0, 0)
    M.check_real("g", np.float64(1e-300), 0, above=True)
    M.check_real("g", -1e308)


# Range and finiteness messages belong to the two helpers; the two
# interval checks and the t-grid check are the only hand-written ones.
HAND_WRITTEN = re.compile(r"must be (an integer |in |finite|[<>])|and finite")
ALLOWED = {"delta must be in (0, 1)", "n_examples must be in [1, n_test = {}], got {}",
           "t grid must be finite"}


def string_literals(tree, exempt):
    """(line, text) of each string outside docstrings and the functions
    named in ``exempt``; an f-string is one text with {} for each field."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            skip.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.JoinedStr):
            skip.update(id(part) for part in ast.walk(node) if part is not node)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and ast.get_docstring(node) is not None:
            skip.add(id(node.body[0].value))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.JoinedStr):
            yield node.lineno, "".join(
                part.value if isinstance(part, ast.Constant) else "{}"
                for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def test_settings_rule_has_one_owner():
    found = []
    for path in sorted(Path(M.__file__).parent.glob("*.py")):
        exempt = ("check_count", "check_real") if path.name == "models.py" else ()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, text in string_literals(tree, exempt):
            if HAND_WRITTEN.search(text) and text not in ALLOWED:
                found.append(f"{path.name}:{line}: {text!r}")
    assert found == []
