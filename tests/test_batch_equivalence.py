"""A batched ``run_attack`` equals one-example runs on its rows, bitwise.

One call on a (B, d) batch runs every example through the same step loop;
each row's ``x_hat`` and iterates must equal those of a run on that
example alone, row 0's trace must equal that run's trace, and the run's
gradient calls must total B times the per-example cost model.  Cases
cover every method and the list forms of ifgsm/mifgsm on both fixtures,
with mixed labels, untargeted and targeted, under the trajectory
schedule (seed 0) and the random one (seed 1, which also sets momentum
decay 0.9 and CWA micro-step 0.05).  ``rap_members``
attacks every ensemble member at once, a list long enough (16 models on
the quad fixture) for ``np.mean`` to sum the traced losses pairwise.
"""

import numpy as np
import pytest

from transferbound import attacks as A
from transferbound import models as M

FORMS = ("ifgsm", "mifgsm", "rap", "flat_rap", "flat_cwa", "drap",
         "ifgsm_list", "mifgsm_list", "rap_members")
B = 12


def case(setup, form, seed, targeted):
    ens, data = setup
    method = form.removesuffix("_list").removesuffix("_members")
    cfg = A.AttackConfig(
        gamma=0.1, beta_x=0.02, beta_eps=0.004, inner_T=2, n_ls=1,
        mu=1.0 if seed == 0 else 0.9, micro_step=50.0 if seed == 0 else 0.05,
        method=method, targeted=targeted, seed=seed, keep_iterates=True,
        schedule_mode="trajectory" if seed == 0 else "random",
        n_iter=5 if form.endswith("_list") or method == "rap" else None)
    X = data.X_test[seed : seed + B]
    y = data.y_test[seed : seed + B].astype(int)
    labels = (y + 1) % data.num_classes if targeted else y
    models = ens.pretrained if form.endswith("_list") else None
    if form == "rap_members":
        models = list(ens.all_members())
    return ens, cfg, X, labels, models


@pytest.mark.parametrize("targeted", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("setup", ["tiny_setup", "quad_setup"])
def test_rows_equal_one_example_runs(request, setup, form, seed, targeted):
    ens, cfg, X, labels, models = case(request.getfixturevalue(setup), form,
                                       seed, targeted)
    assert len(set(labels.tolist())) > 1
    with M.GRAD_CALLS.scope() as tally:
        batched = A.run_attack(X, labels, ens, cfg, models=models)
    assert batched.x_hat.shape == X.shape
    singles = [A.run_attack(X[i], int(labels[i]), ens, cfg, models=models)
               for i in range(B)]
    per_example = singles[0].predicted_grad_calls
    assert tally.count == batched.grad_calls == B * per_example
    assert batched.predicted_grad_calls == B * per_example
    for i, one in enumerate(singles):
        row = batched.example(i)
        assert row.x_hat.tobytes() == one.x_hat.tobytes(), i
        assert batched.x_hat[i].tobytes() == one.x_hat.tobytes(), i
        assert [a.tobytes() for a in row.iterates] == \
            [b.tobytes() for b in one.iterates], i
        if i == 0:
            assert A.trace_to_csv(row, cfg) == A.trace_to_csv(one, cfg)
        else:
            assert row.trace is None, i
        assert row.grad_calls == one.grad_calls == per_example
        assert row.label == one.label
    # the trace's grad_calls column counts per example, not per run
    assert [r.grad_calls for r in batched.trace] == \
        [r.grad_calls for r in singles[0].trace]


@pytest.mark.parametrize("method", A.METHODS)
def test_one_row_batch_equals_one_example(quad_setup, method):
    ens, data = quad_setup
    cfg = A.AttackConfig(gamma=0.1, beta_x=0.02, beta_eps=0.004, inner_T=2,
                         n_ls=1, method=method, keep_iterates=True,
                         n_iter=5 if method == "rap" else None)
    x, y = data.X_test[3], int(data.y_test[3])
    batched = A.run_attack(x[None], np.array([y]), ens, cfg)
    one = A.run_attack(x, y, ens, cfg)
    assert batched.x_hat.shape == (1, x.size) and one.x_hat.shape == x.shape
    row = batched.example(0)
    assert row.x_hat.tobytes() == one.x_hat.tobytes()
    assert row.m.tobytes() == one.m.tobytes()
    assert [a.tobytes() for a in row.iterates] == \
        [b.tobytes() for b in one.iterates]
    assert A.trace_to_csv(row, cfg) == A.trace_to_csv(one, cfg)
    assert row.grad_calls == one.grad_calls == batched.grad_calls
    assert row.predicted_grad_calls == one.predicted_grad_calls
    assert isinstance(one.label, int) and isinstance(row.label, int)
    assert isinstance(one.trace[0].loss_pre, float)


@pytest.mark.parametrize("d", [2, 6, 20, 33])
def test_row_norms_and_momentum_equal_one_row_calls(d):
    # a norm taken along the batch axis rounds differently on about one
    # row in six; each row must be its own one-row dot product
    rng = np.random.default_rng(d)
    g = rng.normal(size=(400, d))
    g[::7] *= 1e-14  # rows under the norm floor
    m = rng.normal(size=(400, d))
    l2 = A._l2_rows(g)
    assert l2.shape == (400, 1)
    assert l2[:, 0].tobytes() == \
        np.array([np.linalg.norm(row) for row in g]).tobytes()
    stepped = A.momentum_step(m, g, 0.9)
    cwa = A._momentum(m, g, 0.9, l2)
    for i in range(len(g)):
        assert stepped[i].tobytes() == A.momentum_step(m[i], g[i], 0.9).tobytes()
        want = 0.9 * m[i] if l2[i, 0] < A.MOMENTUM_NORM_FLOOR \
            else 0.9 * m[i] + g[i] / float(np.linalg.norm(g[i]))
        assert cwa[i].tobytes() == want.tobytes()


class TestRejections:
    @pytest.fixture
    def batch(self, quad_setup):
        ens, data = quad_setup
        cfg = A.AttackConfig(gamma=0.1, beta_x=0.02, method="mifgsm")
        return ens, cfg, data.X_test[:4].copy(), data.y_test[:4].astype(int)

    def test_label_count_must_equal_batch_size(self, batch):
        ens, cfg, X, y = batch
        for labels in (y[:3], np.concatenate([y, y[:1]]), y[:, None], 0):
            with pytest.raises(ValueError, match="one label per example"):
                A.run_attack(X, labels, ens, cfg)
        with pytest.raises(ValueError, match="one label"):
            A.run_attack(X[0], y[:1], ens, cfg)

    @pytest.mark.parametrize("targeted", [False, True])
    def test_out_of_range_label_in_any_row(self, batch, targeted):
        ens, cfg, X, y = batch
        k = ens.components[0][0].spec.num_classes
        cfg = A.AttackConfig(gamma=0.1, beta_x=0.02, method="drap", n_ls=1,
                             targeted=targeted)
        for row in range(len(X)):
            labels = y.copy()
            labels[row] = k
            with pytest.raises(ValueError, match=f"label {k} out of range"):
                A.run_attack(X, labels, ens, cfg)
            labels[row] = -1
            with pytest.raises(ValueError, match="class index"):
                A.run_attack(X, labels, ens, cfg)

    def test_every_row_must_lie_in_the_unit_box(self, batch):
        ens, cfg, X, y = batch
        for row in range(len(X)):
            for bad in (-0.25, 1.25):
                Xb = X.copy()
                Xb[row, row % X.shape[1]] = bad
                with pytest.raises(ValueError, match="benign"):
                    A.run_attack(Xb, y, ens, cfg)

    def test_three_dimensional_input_rejected(self, batch):
        ens, cfg, X, y = batch
        with pytest.raises(ValueError, match="batch"):
            A.run_attack(X[:, None, :], y, ens, cfg)
        with pytest.raises(ValueError, match="batch"):
            A.run_attack(X[:0], y[:0], ens, cfg)
