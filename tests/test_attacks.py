from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferbound import attacks as A
from transferbound import models as M
from transferbound.forge import SurrogateEnsemble


def small_cfg(**kw):
    base = dict(gamma=0.1, beta_x=0.02, beta_eps=0.004, inner_T=2, n_ls=1,
                mu=1.0, seed=0, keep_iterates=True)
    base.update(kw)
    return A.AttackConfig(**base)


class TestPrimitives:
    def test_project_clamps_and_is_idempotent(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, 20)
        cand = x + rng.uniform(-1, 1, 20)
        p = A.project(cand, x, 0.1)
        assert np.max(np.abs(p - x)) <= 0.1 + 1e-15
        assert p.min() >= 0.0 and p.max() <= 1.0
        assert np.array_equal(A.project(p, x, 0.1), p)

    def test_project_zero_gamma_returns_x(self):
        x = np.array([0.2, 0.8])
        assert np.array_equal(A.project(x + 0.5, x, 0.0), x)

    def test_project_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            A.project(np.zeros(2), np.zeros(2), -0.1)

    def test_momentum_two_equal_steps(self):
        g = np.array([3.0, -1.0])
        m = A.momentum_step(np.zeros(2), g, 1.0)
        m = A.momentum_step(m, g, 1.0)
        assert np.allclose(m, 2 * g / 4.0, atol=1e-15)

    def test_momentum_vanishing_gradient_contributes_nothing(self):
        m0 = np.array([0.5, 0.5])
        m = A.momentum_step(m0, np.full(2, 1e-15), 0.9)
        assert np.allclose(m, 0.9 * m0, atol=1e-18)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            A.AttackConfig(gamma=-0.1)
        with pytest.raises(ValueError):
            A.AttackConfig(beta_x=0.0)
        with pytest.raises(ValueError):
            A.AttackConfig(inner_T=-1)
        with pytest.raises(ValueError):
            A.AttackConfig(method="pgd")
        with pytest.raises(ValueError, match="unknown schedule mode 'cyclic'"):
            A.AttackConfig(schedule_mode="cyclic")
        for name, value in (("n_ls", 2.5), ("inner_T", 2.5), ("n_iter", 3.5),
                            ("n_iter", 0), ("n_ls", None), ("inner_T", None),
                            ("n_ls", True), ("seed", 2.5)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                A.AttackConfig(**{name: value})
        with pytest.raises(ValueError, match="targeted must be a bool"):
            A.AttackConfig(targeted="no")
        with pytest.raises(ValueError, match="gamma must be >= 0 and finite"):
            A.project(np.zeros(2), np.zeros(2), np.nan)
        with pytest.raises(ValueError, match="n_iter must be an integer"):
            A.predict_ngrad("ifgsm", 2.5, 1)
        for args, kwargs, name in ((("drap", 40, 4), {"T": -3}, "T"),
                                   (("drap", 40, 4), {"T": 2.5}, "T"),
                                   (("rap", 10, 2), {"T": 1, "late_start": -2},
                                    "late_start")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                A.predict_ngrad(*args, **kwargs)


class TestInnerMax:
    def test_per_model_takes_t_calls_and_stays_in_radius(self, tiny_setup):
        ens, data = tiny_setup
        cfg = small_cfg(inner_T=5)
        kind = M.neg_cross_entropy(int(data.y_test[0]))
        w = ens.components[0][0]
        with M.GRAD_CALLS.scope() as tally:
            eps = A.inner_max_per_model(data.X_test[0], w, kind, cfg)
        assert tally.count == 5
        assert np.max(np.abs(eps)) <= 5 * cfg.beta_eps + 1e-15

    def test_per_model_matches_hand_run_on_linear_model(self, tiny_setup):
        # on a linear two-class model the ascent direction never flips,
        # so after T steps eps = T * beta_eps * sign(w_y - w_other)
        ens, data = tiny_setup
        w = ens.components[0][0]
        assert w.spec.arch == "linear"
        x, y = data.X_test[1], int(data.y_test[1])
        cfg = small_cfg(inner_T=4)
        kind = M.neg_cross_entropy(y)
        g0 = M.input_gradient(w, x, kind)
        eps = A.inner_max_per_model(x, w, kind, cfg)
        assert np.array_equal(eps, 4 * cfg.beta_eps * np.sign(g0))

    def test_global_costs_t_times_batch(self, tiny_setup):
        ens, data = tiny_setup
        cfg = small_cfg(inner_T=3)
        kind = M.neg_cross_entropy(int(data.y_test[0]))
        batch = [c[0] for c in ens.components]
        with M.GRAD_CALLS.scope() as tally:
            A.inner_max_global(data.X_test[0], batch, kind, cfg)
        assert tally.count == 3 * len(batch)

    def test_global_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            A.inner_max_global(np.zeros(2), [], M.neg_cross_entropy(0), small_cfg())

    def test_fused_single_model_equals_direct_gradient(self, tiny_setup):
        ens, data = tiny_setup
        w = ens.components[1][2]
        kind = M.neg_cross_entropy(0)
        fused = A._objective_grad(M.member_stack([w]), data.X_test[3], kind, True)
        direct = M.input_gradient(w, data.X_test[3], kind)
        assert np.max(np.abs(fused - direct)) < 1e-14


def frozen_fused_loss_and_grad(models, x, kind):
    """The per-member fused gradient that ``attacks._objective_grad``
    replaced, kept as its oracle: one ``vjp`` per member, the pullbacks
    summed onto zeros."""
    if len(models) == 0:
        raise ValueError("empty model batch")
    vjps = [M.vjp(w, x) for w in models]
    zbar = np.stack([logits for logits, _ in vjps]).mean(axis=0)
    value = float(M.loss_from_logits(zbar, kind))
    dl = M.dloss_dlogits(zbar, kind) / len(models)
    g = np.zeros_like(x)
    for _, pullback in vjps:
        g = g + pullback(dl)
    if not np.all(np.isfinite(g)):
        raise A.NumericError("non-finite fused gradient")
    return value, g


def frozen_objective_grad(batch, z, kind, fused):
    """The per-member step-objective gradient that ``attacks._objective_grad``
    replaced, kept as its oracle: one ``input_gradient`` per member for the
    loss average."""
    if fused:
        return frozen_fused_loss_and_grad(batch, z, kind)[1]
    g = M.input_gradient(batch[0], z, kind)
    for w in batch[1:]:
        g = g + M.input_gradient(w, z, kind)
    return g / len(batch)


class TestObjectiveGradient:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("setup", ["tiny_setup", "quad_setup"])
    def test_equals_per_member_loops(self, request, setup, seed):
        ens, data = request.getfixturevalue(setup)
        rng = np.random.default_rng(seed)
        n = ens.snapshots_per_component
        batches = [[w] for w in ens.all_members()]
        batches += [[c[j] for c in ens.components] for j in range(n)]
        batches += [ens.pretrained]
        points = [data.X_test[seed], rng.uniform(0, 1, data.X_test.shape[1])]
        y = int(data.y_test[seed])
        kinds = [M.neg_cross_entropy(y),
                 M.targeted_cross_entropy((y + 1) % data.num_classes)]
        for batch in batches:
            stack = M.member_stack(batch)
            for z in points:
                for kind in kinds:
                    for fused in (False, True):
                        with M.GRAD_CALLS.scope() as tally:
                            got = A._objective_grad(stack, z, kind, fused)
                        assert tally.count == len(batch)
                        want = frozen_objective_grad(batch, z, kind, fused)
                        assert np.array_equal(got, want)
                    assert A._objective(stack, z, kind, True) == \
                        frozen_fused_loss_and_grad(batch, z, kind)[0]


class TestCostModel:
    def test_published_reference_points(self):
        assert A.predict_ngrad("mifgsm", 25, 5) == 125
        assert A.predict_ngrad("mifgsm", 50, 5) == 250
        assert A.predict_ngrad("mifgsm", 100, 5) == 500
        assert A.predict_ngrad("rap", 25, 5) == 1375
        assert A.predict_ngrad("rap", 50, 5) == 2750
        assert A.predict_ngrad("rap", 100, 5) == 3000
        assert A.predict_ngrad("drap", 25, 5) == 150
        assert A.predict_ngrad("drap", 50, 5) == 175
        assert A.predict_ngrad("drap", 100, 5) == 475
        assert A.predict_ngrad("flat_cwa", 25, 5) == 250

    def test_explicit_late_start(self):
        # per-model method: below the late-start threshold every step is
        # one call, after it (T+1) calls
        assert A.predict_ngrad("drap", 12, 3, T=2, late_start=2) == 6 + 6 * 3
        assert A.predict_ngrad("drap", 5, 3, T=2, late_start=2) == 5
        assert A.predict_ngrad("rap", 10, 4, T=3, late_start=4) == 16 + 6 * 4 * 4
        assert A.predict_ngrad("flat_rap", 6, 2, T=1, late_start=6) == 12

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            A.predict_ngrad("pgd", 10, 2)


class TestRunners:
    def test_drap_budget_and_accounting(self, quad_setup):
        ens, data = quad_setup
        cfg = small_cfg(method="drap", inner_T=3, n_ls=1)
        x, y = data.X_test[0], int(data.y_test[0])
        st = A.run_attack(x, y, ens, cfg)
        K, I, n = ens.size, ens.num_components, ens.snapshots_per_component
        expect = cfg.n_ls * I + (K - cfg.n_ls * I) * (cfg.inner_T + 1)
        assert st.grad_calls == st.predicted_grad_calls == expect
        assert st.grad_calls == A.predict_ngrad("drap", K, I, T=3, late_start=1)
        assert len(st.trace) == K
        for xh in st.iterates:
            assert np.max(np.abs(xh - x)) <= cfg.gamma + 1e-12
            assert xh.min() >= 0.0 and xh.max() <= 1.0

    def test_drap_zero_gamma_is_identity(self, tiny_setup):
        ens, data = tiny_setup
        cfg = small_cfg(method="drap", gamma=0.0)
        x = data.X_test[2]
        st = A.run_attack(x, int(data.y_test[2]), ens, cfg)
        for xh in st.iterates:
            assert np.array_equal(xh, x)

    def test_drap_rejects_wrong_n_iter_and_big_n_ls(self, tiny_setup):
        ens, data = tiny_setup
        x, y = data.X_test[0], int(data.y_test[0])
        with pytest.raises(ValueError, match="n_iter"):
            A.run_attack(x, y, ens, small_cfg(method="drap", n_iter=ens.size + 1))
        with pytest.raises(ValueError, match="n_ls"):
            A.run_attack(x, y, ens, small_cfg(
                method="drap", n_ls=ens.snapshots_per_component + 1))

    def test_drap_deterministic(self, tiny_setup):
        ens, data = tiny_setup
        x, y = data.X_test[4], int(data.y_test[4])
        a = A.run_attack(x, y, ens, small_cfg(method="drap"))
        b = A.run_attack(x, y, ens, small_cfg(method="drap"))
        assert a.x_hat.tobytes() == b.x_hat.tobytes()

    def test_drap_attack_actually_degrades_true_class(self, quad_setup):
        ens, data = quad_setup
        cfg = small_cfg(method="drap", inner_T=3, n_ls=1)
        kind_hits = 0
        for idx in range(10):
            x, y = data.X_test[idx], int(data.y_test[idx])
            st = A.run_attack(x, y, ens, cfg)
            before = np.mean([M.loss(w, x, M.bounded_error(y))
                              for w in ens.all_members()])
            after = np.mean([M.loss(w, st.x_hat, M.bounded_error(y))
                             for w in ens.all_members()])
            kind_hits += after > before
        assert kind_hits >= 8  # raising 1 - p_y means the attack bites

    def test_late_start_everything_reduces_to_ensemble_momentum(self, quad_setup):
        ens, data = quad_setup
        n = ens.snapshots_per_component
        x, y = data.X_test[1], int(data.y_test[1])
        drap = A.run_attack(x, y, ens, small_cfg(method="drap", n_ls=n, inner_T=5))
        sweep = A.run_attack(x, y, ens, small_cfg(method="mifgsm"))
        assert len(drap.iterates) == len(sweep.iterates)
        for a, b in zip(drap.iterates, sweep.iterates):
            assert a.tobytes() == b.tobytes()
        assert drap.grad_calls == sweep.grad_calls == ens.size

    def test_single_model_single_step_mifgsm_is_fgsm(self, tiny_setup):
        ens, data = tiny_setup
        w = ens.components[0][0]
        x, y = data.X_test[5], int(data.y_test[5])
        cfg = small_cfg(method="mifgsm", n_iter=1, mu=1.0)
        st = A.run_attack(x, y, ens, cfg, models=[w])
        g = M.input_gradient(w, x, M.neg_cross_entropy(y))
        fgsm = A.project(x - cfg.beta_x * np.sign(g), x, cfg.gamma)
        assert np.array_equal(st.x_hat, fgsm)

    def test_rap_cost_branches(self, tiny_setup):
        ens, data = tiny_setup
        batch = [c[0] for c in ens.components]
        x, y = data.X_test[6], int(data.y_test[6])
        st = A.run_attack(x, y, ens, small_cfg(method="rap", n_iter=4, n_ls=2,
                                               inner_T=3), models=batch)
        assert st.grad_calls == 2 * 2 + 2 * 4 * 2  # ls iters + (T+1)*I iters
        st2 = A.run_attack(x, y, ens, small_cfg(method="rap", n_iter=2, n_ls=5,
                                                inner_T=3), models=batch)
        assert st2.grad_calls == 2 * 2  # never reaches the late start

    def test_flat_rap_and_flat_cwa_costs(self, quad_setup):
        ens, data = quad_setup
        I = ens.num_components
        x, y = data.X_test[2], int(data.y_test[2])
        fr = A.run_attack(x, y, ens, small_cfg(method="flat_rap", n_iter=6,
                                               n_ls=2, inner_T=2))
        assert fr.grad_calls == 2 * I + 4 * 3 * I
        fc = A.run_attack(x, y, ens, small_cfg(method="flat_cwa", n_iter=6))
        assert fc.grad_calls == 6 * 2 * I

    def test_all_methods_respect_budget(self, quad_setup):
        ens, data = quad_setup
        x, y = data.X_test[7], int(data.y_test[7])
        gamma = 0.07
        runs = [
            A.run_attack(x, y, ens, small_cfg(method="drap", gamma=gamma)),
            A.run_attack(x, y, ens, small_cfg(method="ifgsm", gamma=gamma)),
            A.run_attack(x, y, ens, small_cfg(method="mifgsm", gamma=gamma)),
            A.run_attack(x, y, ens, small_cfg(method="rap", gamma=gamma, n_iter=3),
                         models=ens.pretrained),
            A.run_attack(x, y, ens, small_cfg(method="flat_rap", gamma=gamma,
                                              n_iter=4)),
            A.run_attack(x, y, ens, small_cfg(method="flat_cwa", gamma=gamma,
                                              n_iter=4)),
        ]
        for st in runs:
            for xh in st.iterates:
                assert np.max(np.abs(xh - x)) <= gamma + 1e-12
                assert xh.min() >= -0.0 and xh.max() <= 1.0

    def test_input_outside_unit_box_rejected(self, tiny_setup):
        ens, _ = tiny_setup
        with pytest.raises(ValueError, match="benign"):
            A.run_attack(np.array([0.5, 1.5]), 0, ens, small_cfg(method="drap"))
        # NaN fails the range check before any gradient call
        before = M.GRAD_CALLS.value
        for x in (np.array([0.5, np.nan]), np.array([[0.5, 0.5], [np.nan, 0.5]])):
            with pytest.raises(ValueError, match="benign"):
                A.run_attack(x, np.zeros(x.shape[:-1], dtype=int), ens,
                             small_cfg(method="drap"))
        assert M.GRAD_CALLS.value == before

    def test_dispatch_is_repeatable_and_names_method(self, quad_setup):
        ens, data = quad_setup
        x, y = data.X_test[9], int(data.y_test[9])
        cfg = small_cfg(method="drap")
        via = A.run_attack(x, y, ens, cfg)
        again = A.run_attack(x, y, ens, small_cfg(method="drap"))
        assert via.x_hat.tobytes() == again.x_hat.tobytes()
        cfg_rap = small_cfg(method="rap", n_iter=3)
        assert A.run_attack(x, y, ens, cfg_rap).method == "rap"
        with pytest.raises(ValueError, match="rap needs a model batch"):
            A.run_attack(x, y, replace(ens, pretrained=[]), cfg_rap)
        # ifgsm/mifgsm attack an explicit model list, else sweep the schedule
        listed = A.run_attack(x, y, ens, small_cfg(method="mifgsm", n_iter=3),
                              models=ens.pretrained)
        assert listed.grad_calls == 3 * len(ens.pretrained)
        assert A.run_attack(x, y, ens, small_cfg(method="mifgsm")).grad_calls == ens.size

    @pytest.mark.parametrize("method", ["drap", "flat_rap", "flat_cwa"])
    def test_methods_on_the_ensemble_refuse_a_model_list(self, quad_setup,
                                                         method):
        ens, data = quad_setup
        with pytest.raises(ValueError, match=f"{method} attacks the ensemble"):
            A.run_attack(data.X_test[0], int(data.y_test[0]), ens,
                         small_cfg(method=method), models=ens.pretrained)

    def test_targeted_objective_pulls_target_class(self, quad_setup):
        ens, data = quad_setup
        x, y = data.X_test[3], int(data.y_test[3])
        target = (y + 1) % 3
        cfg = small_cfg(method="drap", gamma=0.25, beta_x=0.05, targeted=True,
                        inner_T=0)
        st = A.run_attack(x, target, ens, cfg)
        before = np.mean([M.loss(w, x, M.targeted_cross_entropy(target))
                          for w in ens.all_members()])
        after = np.mean([M.loss(w, st.x_hat, M.targeted_cross_entropy(target))
                         for w in ens.all_members()])
        assert after < before

    def test_per_model_beats_shared_inner_most_of_the_time(self, quad_setup):
        ens, data = quad_setup
        cfg = small_cfg(inner_T=4)
        wins, total = 0, 0
        for idx in range(12):
            x, y = data.X_test[idx], int(data.y_test[idx])
            kind = M.neg_cross_entropy(y)
            batch = [c[idx % ens.snapshots_per_component] for c in ens.components]
            shared = A.inner_max_global(x, batch, kind, cfg)
            for w in batch:
                own = A.inner_max_per_model(x, w, kind, cfg)
                wins += M.loss(w, x + own, kind) >= M.loss(w, x + shared, kind)
                total += 1
        assert wins / total >= 0.85


class TestLabelCheck:
    # the trace's first objective value meets the label before any gradient
    # call; the gradient path's own check is in test_models
    @pytest.mark.parametrize("targeted", [False, True])
    @pytest.mark.parametrize("method", A.METHODS)
    def test_out_of_range_label_is_a_value_error(self, quad_setup, method,
                                                 targeted):
        ens, data = quad_setup
        cfg = small_cfg(method=method, n_iter=6 if method == "rap" else None,
                        targeted=targeted)
        before = M.GRAD_CALLS.value
        with pytest.raises(ValueError, match="out of range"):
            A.run_attack(data.X_test[0], data.num_classes, ens, cfg)
        assert M.GRAD_CALLS.value == before


class TestNumericGuards:
    """Each ``NumericError`` of the step loop fires on its own fault."""

    def run(self, tiny_setup):
        ens, data = tiny_setup
        return A.run_attack(data.X_test[:3], data.y_test[:3], ens,
                            small_cfg(method="ifgsm"))

    def test_non_finite_step_gradient(self, tiny_setup, monkeypatch):
        vjp_stack = M.vjp_stack

        def nan_pullback(stack, x):
            logits, pullback = vjp_stack(stack, x)
            return logits, lambda dl: pullback(dl) * np.nan

        monkeypatch.setattr(M, "vjp_stack", nan_pullback)
        with pytest.raises(A.NumericError,
                           match="non-finite gradient of the step objective"):
            self.run(tiny_setup)

    def test_grad_call_drift(self, tiny_setup, monkeypatch):
        predict = A.predict_ngrad
        monkeypatch.setattr(A, "predict_ngrad",
                            lambda *a, **k: predict(*a, **k) + 1)
        with pytest.raises(A.NumericError, match="accounting drifted: "
                           "observed 18, cost model predicts 21"):
            self.run(tiny_setup)

    def test_non_finite_adversarial_example(self, tiny_setup, monkeypatch):
        # the start's projection, then one per step of the 6-snapshot
        # sweep: only the last step's result is NaN, so no gradient sees it
        calls, project = [], A.project

        def nan_last(x_hat, x, gamma):
            calls.append(1)
            out = project(x_hat, x, gamma)
            return out * np.nan if len(calls) == 1 + 6 else out

        monkeypatch.setattr(A, "project", nan_last)
        with pytest.raises(A.NumericError,
                           match="non-finite adversarial example"):
            self.run(tiny_setup)
        assert len(calls) == 1 + 6


class TestTrace:
    def test_trace_csv_shape(self, tiny_setup):
        ens, data = tiny_setup
        cfg = small_cfg(method="drap")
        st = A.run_attack(data.X_test[0], int(data.y_test[0]), ens, cfg)
        text = A.trace_to_csv(st, cfg)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# method=drap")
        assert lines[1] == "iter,component,snapshot,loss_pre,loss_post,grad_calls"
        assert len(lines) == 2 + ens.size
        first = lines[2].split(",")
        assert first[0] == "0" and len(first) == 6

    def test_trace_grad_calls_column_is_cumulative(self, tiny_setup):
        ens, data = tiny_setup
        cfg = small_cfg(method="drap")
        st = A.run_attack(data.X_test[1], int(data.y_test[1]), ens, cfg)
        counts = [row.grad_calls for row in st.trace]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == st.grad_calls

    def test_trace_disabled(self, tiny_setup):
        # every run traces row 0; the other rows of a batch carry no trace
        ens, data = tiny_setup
        cfg = small_cfg(method="drap")
        st = A.run_attack(data.X_test[:2], data.y_test[:2], ens, cfg)
        assert len(st.example(0).trace) == ens.size
        assert st.example(1).trace is None
        with pytest.raises(ValueError,
                           match=r"^example\(i\) with i > 0 carries no trace$"):
            A.trace_to_csv(st.example(1), cfg)

    @pytest.mark.parametrize("method", A.METHODS)
    def test_loss_pre_is_objective_at_previous_iterate(self, quad_setup, method):
        ens, data = quad_setup
        I, n = ens.num_components, ens.snapshots_per_component
        x, y = data.X_test[4], int(data.y_test[4])
        cfg = small_cfg(method=method, n_iter=6 if method == "rap" else None)
        st = A.run_attack(x, y, ens, cfg)
        kind = M.neg_cross_entropy(y)
        # flat_cwa also keeps its I micro-step iterates
        stride = I + 1 if method == "flat_cwa" else 1
        for row in st.trace:
            prev = x if row.iter == 0 else st.iterates[row.iter * stride - 1]
            if method in ("flat_rap", "flat_cwa"):
                batch = [c[row.iter % n] for c in ens.components]
                want = float(M.loss_from_logits(
                    np.mean([M.forward(w, prev) for w in batch], axis=0), kind))
            elif method == "rap":
                want = float(np.mean([M.loss(w, prev, kind) for w in ens.pretrained]))
            else:
                want = M.loss(ens.components[row.component][row.snapshot], prev, kind)
            assert row.loss_pre == want, row
        if method in ("ifgsm", "mifgsm", "drap"):
            # the trajectory schedule visits every member once
            assert [(row.component, row.snapshot) for row in st.trace] == \
                [(i, j) for j in range(n) for i in range(I)]

    def test_random_schedule_rows_name_the_snapshot_drawn(self, quad_setup):
        ens, data = quad_setup
        I, n = ens.num_components, ens.snapshots_per_component
        x, y = data.X_test[6], int(data.y_test[6])
        cfg = small_cfg(method="drap", schedule_mode="random", seed=3)
        st = A.run_attack(x, y, ens, cfg)
        rng = np.random.default_rng(cfg.seed)
        drawn = [int(rng.integers(n)) for _ in range(ens.size)]
        assert [row.snapshot for row in st.trace] == drawn
        assert any(row.snapshot != row.iter // I for row in st.trace)
        kind = M.neg_cross_entropy(y)
        for row in st.trace:
            prev = x if row.iter == 0 else st.iterates[row.iter - 1]
            w = ens.components[row.component][row.snapshot]
            assert row.loss_pre == M.loss(w, prev, kind), row

    @pytest.mark.parametrize("method", ["flat_rap", "flat_cwa"])
    def test_random_component_batches_name_no_snapshot(self, quad_setup, method):
        ens, data = quad_setup
        n = ens.snapshots_per_component
        cfg = small_cfg(method=method, schedule_mode="random", seed=3)
        st = A.run_attack(data.X_test[6], int(data.y_test[6]), ens, cfg)
        assert [row.snapshot for row in st.trace] == [-1] * ens.size
        st = A.run_attack(data.X_test[6], int(data.y_test[6]), ens,
                          replace(cfg, schedule_mode="trajectory"))
        assert [row.snapshot for row in st.trace] == \
            [it % n for it in range(ens.size)]

    @pytest.mark.parametrize("method", A.METHODS)
    def test_untraced_run_makes_no_extra_forwards(self, quad_setup, monkeypatch,
                                                  method):
        ens, data = quad_setup
        x, y = data.X_test[5], int(data.y_test[5])
        forward, vjp_stack, loss = M._forward_stack, M.vjp_stack, M.loss
        counts = {"outside": 0, "loss": 0}
        calls = []  # per vjp_stack call: [forwards, members, pulled back, x.shape]

        def counted_forward(*args):
            if calls and calls[-1][2] is None:
                calls[-1][0] += 1
            else:
                counts["outside"] += 1
            return forward(*args)

        def counted_vjp_stack(stack, z):
            call = [0, stack.size, None, z.shape]
            calls.append(call)
            logits, pullback = vjp_stack(stack, z)
            call[2] = False

            def counted_pullback(dlogits):
                call[2] = True
                return pullback(dlogits)

            return logits, counted_pullback

        def counted_loss(*args):
            counts["loss"] += 1
            return loss(*args)

        # _forward_stack is the one forward pass every model entry point runs
        monkeypatch.setattr(M, "_forward_stack", counted_forward)
        monkeypatch.setattr(M, "vjp_stack", counted_vjp_stack)
        monkeypatch.setattr(M, "loss", counted_loss)
        n_iter = 6 if method == "rap" else None
        st = A.run_attack(x, y, ens, small_cfg(method=method, n_iter=n_iter))
        # every forward runs inside a vjp_stack call; the only calls whose
        # pullback never runs are the trace's two one-point evaluations per
        # step, and the pulled-back calls make up every gradient call
        assert st.grad_calls > 0
        assert counts == {"outside": 0, "loss": 0}
        assert all(f >= 1 for f, _, _, _ in calls)
        traced = [shape for _, _, pulled, shape in calls if not pulled]
        assert traced == [(1, x.size)] * (2 * len(st.trace))
        assert sum(m for _, m, pulled, _ in calls if pulled) == st.grad_calls


@pytest.mark.parametrize("method", A.METHODS)
def test_each_model_set_is_grouped_once(quad_setup, list_groupings,
                                        monkeypatch, method):
    ens, data = quad_setup
    vjp_stack = M.vjp_stack

    def stack_only(stack, z):
        assert isinstance(stack, M.MemberStack)
        return vjp_stack(stack, z)

    monkeypatch.setattr(M, "vjp_stack", stack_only)
    X, y = data.X_test[:3], data.y_test[:3].astype(int)
    n_iter = 6 if method == "rap" else None
    state = A.run_attack(X, y, ens, small_cfg(method=method, n_iter=n_iter))
    I, steps = ens.num_components, len(state.trace)
    # one grouping per step, which the traced objective values share (a
    # one-member batch gets its model's own stack); rap's fixed list once
    # per run; flat_cwa's member micro-steps score each member's own stack
    assert list_groupings == {
        "ifgsm": [1] * steps, "mifgsm": [1] * steps, "drap": [1] * steps,
        "rap": [len(ens.pretrained)], "flat_rap": [I] * steps,
        "flat_cwa": [I] * steps}[method]
    if method in ("ifgsm", "mifgsm"):
        list_groupings.clear()
        A.run_attack(X, y, ens, small_cfg(method=method, n_iter=4),
                     models=ens.pretrained)
        assert list_groupings == [len(ens.pretrained)]


@st.composite
def loop_switches(draw):
    """One point of the step loop's switch grid on a fixture ensemble."""
    setup = draw(st.sampled_from(["tiny", "quad"]))
    method = draw(st.sampled_from(A.METHODS))
    listed = method in ("ifgsm", "mifgsm") and draw(st.booleans())
    n_iter = None
    if listed or method in ("rap", "flat_rap", "flat_cwa"):
        n_iter = draw(st.none() | st.integers(1, 6))
    return dict(setup=setup, method=method, listed=listed, n_iter=n_iter,
                inner_T=draw(st.integers(0, 3)), n_ls_frac=draw(st.floats(0, 1)),
                targeted=draw(st.booleans()), seed=draw(st.integers(0, 3)),
                random_schedule=draw(st.booleans()),
                gamma=draw(st.sampled_from([0.0, 0.03, 0.1])),
                mu=draw(st.sampled_from([0.0, 0.5, 1.0])),
                example=draw(st.integers(0, 9)))


class TestLoopProperties:
    @settings(max_examples=40, deadline=None)
    @given(sw=loop_switches())
    def test_accounting_budget_and_late_start_reduction(self, tiny_setup,
                                                        quad_setup, sw):
        ens, data = tiny_setup if sw["setup"] == "tiny" else quad_setup
        I, n, K = ens.num_components, ens.snapshots_per_component, ens.size
        method, T = sw["method"], sw["inner_T"]
        n_ls = round(sw["n_ls_frac"] * n)
        x, y = data.X_test[sw["example"]], int(data.y_test[sw["example"]])
        label = (y + 1) % data.num_classes if sw["targeted"] else y
        cfg = small_cfg(
            method=method, inner_T=T, n_ls=n_ls, n_iter=sw["n_iter"],
            targeted=sw["targeted"], seed=sw["seed"], gamma=sw["gamma"],
            mu=sw["mu"],
            schedule_mode="random" if sw["random_schedule"] else "trajectory")
        models = ens.pretrained if sw["listed"] else None

        with M.GRAD_CALLS.scope() as tally:
            state = A.run_attack(x, label, ens, cfg, models=models)
        iters = sw["n_iter"] if sw["n_iter"] is not None else K
        P = len(ens.pretrained)
        sweep_cost = (iters, P) if sw["listed"] else (n, I)
        predicted = {
            "ifgsm": A.predict_ngrad("ifgsm", *sweep_cost),
            "mifgsm": A.predict_ngrad("mifgsm", *sweep_cost),
            "rap": A.predict_ngrad("rap", iters, P, T=T, late_start=n_ls),
            "flat_rap": A.predict_ngrad("flat_rap", iters, I, T=T, late_start=n_ls),
            "flat_cwa": A.predict_ngrad("flat_cwa", iters, I),
            "drap": A.predict_ngrad("drap", K, I, T=T, late_start=n_ls),
        }[method]
        assert tally.count == state.grad_calls == predicted

        for xh in state.iterates + [state.x_hat]:
            assert np.max(np.abs(xh - x)) <= sw["gamma"] + 1e-12
            assert xh.min() >= 0.0 and xh.max() <= 1.0

        if method == "drap":
            late = A.run_attack(x, label, ens, replace(cfg, n_ls=n))
            sweep = A.run_attack(x, label, ens, replace(cfg, method="mifgsm"))
            assert late.x_hat.tobytes() == sweep.x_hat.tobytes()
            assert [a.tobytes() for a in late.iterates] == \
                [b.tobytes() for b in sweep.iterates]
            assert late.grad_calls == sweep.grad_calls == K
