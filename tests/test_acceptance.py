"""Acceptance gate: one test per shipping criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion.  Every check is deterministic (fixed seeds), tolerances are
pinned, and the empirical protocols (desk-scale transfer, sharpness,
coverage) build their ensembles through module-scoped fixtures so the
expensive training work happens once.
"""

import math
import time

import numpy as np
import pytest

from transferbound import attacks as A
from transferbound import bounds as B
from transferbound import forge as F
from transferbound import harness as H
from transferbound import models as M

GAMMA = 0.12  # attack budget for the desk-scale protocol


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _desk_pair(seed):
    """Surrogate/target ensemble pair on the 20-d mixture task."""
    data = F.make_dataset("gaussian_mixture", 900, 260, seed, input_dim=20,
                          num_classes=3, separation=4.0)
    surro = F.build_ensemble(
        F.desk_prototypes(20, 3, gamma=GAMMA, base_seed=1000 * seed + 17),
        data, pretrain_epochs=15)
    targ = F.build_ensemble(
        F.desk_prototypes(20, 3, gamma=GAMMA, base_seed=1000 * seed + 563),
        data, pretrain_epochs=15)
    return data, surro, targ


@pytest.fixture(scope="module")
def desk0():
    return _desk_pair(0)


@pytest.fixture(scope="module")
def quad():
    data = F.make_dataset("gaussian_mixture", 600, 300, 9, input_dim=6,
                          num_classes=3, separation=5.0)
    surro = F.build_ensemble(F.desk_prototypes(6, 3, gamma=0.1, base_seed=400),
                             data, pretrain_epochs=15)
    targ = F.build_ensemble(F.desk_prototypes(6, 3, gamma=0.1, base_seed=880),
                            data, pretrain_epochs=15)
    return data, surro, targ


@pytest.fixture(scope="module")
def tiny():
    data = F.make_dataset("gaussian_mixture", 160, 40, 5, input_dim=4,
                          num_classes=3, separation=5.0)
    ens = F.build_ensemble(
        F.desk_prototypes(4, 3, gamma=0.1, base_seed=50, epochs=6),
        data, pretrain_epochs=8)
    return data, ens


# ---------------------------------------------------------------------------
# criterion 1: analytic input gradients vs central finite differences
# ---------------------------------------------------------------------------


def _central_fd(w, x, kind, h=1e-4):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (M.loss(w, x + e, kind) - M.loss(w, x - e, kind)) / (2.0 * h)
    return g


def test_c01_analytic_input_gradients_match_central_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(20):
        d = int(rng.integers(4, 25))
        k = int(rng.integers(2, 6))
        arch = i % 4
        if arch == 0:
            spec = M.ModelSpec("linear", d, k)
        elif arch == 1:
            spec = M.ModelSpec("mlp", d, k, hidden=(12,), activation="tanh")
        elif arch == 2:
            spec = M.ModelSpec("mlp", d, k, hidden=(10, 6), activation="relu")
        else:
            spec = M.ModelSpec("conv_tiny", d, k, channels=5)
        w = M.init_weights(spec, rng)
        x = rng.uniform(0.0, 1.0, d)
        label = int(rng.integers(0, k))
        kind = (M.neg_cross_entropy(label), M.targeted_cross_entropy(label),
                M.bounded_error(label))[i % 3]
        fd = _central_fd(w, x, kind)
        an = M.input_gradient(w, x, kind)
        scale = max(float(np.abs(fd).max()), 1e-8)
        worst = max(worst, float(np.abs(an - fd).max()) / scale)
    elapsed = time.perf_counter() - start
    assert worst < 1e-3, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: every iterate stays inside the ball and the box
# ---------------------------------------------------------------------------


def test_c02_every_iterate_respects_ball_and_box(tiny):
    data, ens = tiny
    violations = 0
    for i in range(50):
        method = A.METHODS[i % len(A.METHODS)]
        gamma = 0.02 + 0.015 * (i % 7)
        cfg = A.AttackConfig(
            gamma=gamma, beta_x=gamma / 3.0, beta_eps=gamma / 10.0,
            inner_T=3, n_ls=1, method=method,
            n_iter=8 if method == "rap" else None,
            seed=i, keep_iterates=True)
        x = data.X_test[i % data.X_test.shape[0]]
        label = int(data.y_test[i % data.y_test.shape[0]])
        state = A.run_attack(x, label, ens, cfg)
        points = list(state.iterates) + [state.x_hat]
        for pt in points:
            if float(np.abs(pt - x).max()) > gamma + 1e-12:
                violations += 1
            if pt.min() < 0.0 or pt.max() > 1.0:
                violations += 1
    assert violations == 0, f"{violations} ball/box violations"


# ---------------------------------------------------------------------------
# criterion 3: gradient cost table and observed counters
# ---------------------------------------------------------------------------


def test_c03_gradient_cost_table_and_observed_counts(tiny):
    table = [("mifgsm", 25, 125), ("drap", 25, 150), ("drap", 50, 175),
             ("drap", 100, 475), ("rap", 25, 1375)]
    for method, n_iter, want in table:
        assert A.predict_ngrad(method, n_iter, 5) == want, \
            f"{method} n_iter={n_iter}: {A.predict_ngrad(method, n_iter, 5)} != {want}"

    data, ens = tiny
    x = data.X_test[0]
    label = int(data.y_test[0])
    for method in A.METHODS:
        cfg = A.AttackConfig(
            gamma=0.1, beta_x=0.03, beta_eps=0.01, inner_T=3, n_ls=1,
            method=method, n_iter=8 if method == "rap" else None, seed=2)
        state = A.run_attack(x, label, ens, cfg)
        assert state.grad_calls == state.predicted_grad_calls, \
            f"{method}: observed {state.grad_calls} != predicted {state.predicted_grad_calls}"


# ---------------------------------------------------------------------------
# criterion 4: closed-form chi-square matches grid search
# ---------------------------------------------------------------------------


def test_c04_chi2_closed_form_matches_grid_search():
    rng = np.random.default_rng(404)
    for _ in range(50):
        s = rng.uniform(0.0, 1.0, int(rng.integers(3, 41)))
        while float(np.var(s)) < 1e-6:       # pragma: no cover - uniform draws
            s = rng.uniform(0.0, 1.0, s.size)
        t = rng.uniform(0.0, 1.0, int(rng.integers(3, 41)))
        delta = float(np.mean(np.sort(t)) - np.mean(np.sort(s)))
        var = float(np.var(s))
        t_star = 2.0 * delta / var
        grid = np.concatenate([np.linspace(-200.0, 200.0, 2001),
                               np.linspace(t_star - 2.0, t_star + 2.0, 4001)])
        grid_best = float((grid * delta - 0.25 * grid * grid * var).max())
        closed = B.d_chi2([s], [t])
        assert abs(grid_best - closed) <= 1e-6, \
            f"grid {grid_best!r} vs closed {closed!r}"


# ---------------------------------------------------------------------------
# criterion 5: total-variation estimator equals brute force, exactly
# ---------------------------------------------------------------------------


def test_c05_tv_equals_brute_force_exactly():
    rng = np.random.default_rng(505)
    for _ in range(12):
        n_cand = int(rng.integers(1, 65))
        s_losses = [rng.uniform(0.0, 1.0, int(rng.integers(2, 30)))
                    for _ in range(n_cand)]
        t_losses = [rng.uniform(0.0, 1.0, int(rng.integers(2, 30)))
                    for _ in range(n_cand)]
        brute = max(
            abs(float(np.mean(np.sort(t))) - float(np.mean(np.sort(s))))
            for s, t in zip(s_losses, t_losses))
        assert B.d_tv(s_losses, t_losses) == brute


# ---------------------------------------------------------------------------
# criterion 6: two-level populations converge to the Bernoulli divergence
# ---------------------------------------------------------------------------


def _bern(ones, total):
    return np.array([1.0] * ones + [0.0] * (total - ones))


def _bern_kl(p, q):
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def test_c06_kl_two_level_populations_converge_to_bernoulli_kl():
    cases = [(0.5, 0.25, _bern(1, 2), _bern(1, 4)),
             (0.8, 0.5, _bern(4, 5), _bern(1, 2))]
    grids = [B.default_t_grid(1e-3, 50.0, 250)]
    for pts in (1000, 8000):
        grids.append(np.union1d(grids[-1], B.default_t_grid(1e-3, 50.0, pts)))
    for p, q, t_pop, s_pop in cases:
        closed = _bern_kl(p, q)
        errs = [closed - B.d_kl([s_pop], [t_pop], t_grid=g) for g in grids]
        assert all(e >= -1e-12 for e in errs), "grid sup exceeded closed form"
        assert errs[2] <= errs[1] + 1e-12 <= errs[0] + 2e-12, \
            f"refinement not improving: {errs}"
        assert abs(errs[2]) <= 1e-3, f"p={p} q={q}: error {errs[2]:.2e}"
    # identical rates: divergence is zero, and the grid returns exactly that
    pop = _bern(3, 10)
    assert B.d_kl([pop], [pop.copy()]) == 0.0


# ---------------------------------------------------------------------------
# criterion 7: monotone in the candidate radius, zero on equal multisets
# ---------------------------------------------------------------------------


def test_c07_discrepancy_monotone_in_radius_and_multiset_invariant():
    rng = np.random.default_rng(707)
    for _ in range(10):
        s_losses = [rng.uniform(0.0, 1.0, int(rng.integers(5, 26)))
                    for _ in range(30)]
        t_losses = [rng.uniform(0.0, 1.0, int(rng.integers(5, 26)))
                    for _ in range(30)]
        for fn in (B.d_tv, B.d_kl, B.d_chi2):
            prev = 0.0
            for cut in (6, 14, 30):
                cur = fn(s_losses[:cut], t_losses[:cut])
                assert cur >= prev - 0.0, f"{fn.__name__} decreased"
                prev = cur
        perm = [rng.permutation(s) for s in s_losses]
        assert B.d_tv(s_losses, perm) == 0.0
        assert B.d_kl(s_losses, perm) == 0.0
        assert B.d_chi2(s_losses, perm) == 0.0


# ---------------------------------------------------------------------------
# criterion 8: ensemble-size penalty term
# ---------------------------------------------------------------------------


def _pac_oracle(d, K, gamma, rho, delta, r):
    logK = math.log(K)
    geom = 0.5 * d * math.log1p(
        (gamma / rho) ** 2 * (1.0 + math.sqrt(logK / d)) ** 2)
    resid = 0.5 + 2.0 * math.log(
        2.0 + 3.0 * d + 6.0 * r * r * K
        + 4.0 * d * math.log(math.sqrt(d) + math.sqrt(logK)))
    return math.sqrt((geom + math.log(K / delta) + resid) / (2.0 * (K - 1.0)))


def test_c08_pac_term_reference_monotone_and_collapse():
    rng = np.random.default_rng(808)
    for _ in range(100):
        d = int(rng.integers(1, 200))
        K = int(rng.integers(2, 5000))
        gamma = float(rng.uniform(0.0, 1.0))
        rho = float(rng.uniform(0.01, 2.0))
        delta = float(rng.uniform(0.01, 0.99))
        r = float(rng.uniform(0.0, 1.0))
        got = B.eps_pac(d, K, gamma, rho, delta, r)
        want = _pac_oracle(d, K, gamma, rho, delta, r)
        assert abs(got - want) <= 1e-10, f"{got!r} vs {want!r}"
    prev = math.inf
    for K in (50, 100, 200, 400, 800, 1600, 3200):
        cur = B.eps_pac(12, K, 0.3, 0.8, 0.05, 0.7)
        assert cur < prev, f"not strictly decreasing at K={K}"
        prev = cur
    # gamma = 0 removes the geometry term: the result cannot depend on rho
    a = B.eps_pac(10, 50, 0.0, 0.3, 0.05, 0.4)
    b = B.eps_pac(10, 50, 0.0, 1.7, 0.05, 0.4)
    assert a == b
    assert a == pytest.approx(
        math.sqrt((math.log(50 / 0.05)
                   + 0.5 + 2.0 * math.log(2.0 + 30.0 + 6.0 * 0.16 * 50
                                          + 40.0 * math.log(math.sqrt(10)
                                                            + math.sqrt(math.log(50)))))
                  / 98.0), rel=1e-14)


# ---------------------------------------------------------------------------
# criterion 9: variance decomposition identity
# ---------------------------------------------------------------------------


def test_c09_variance_decomposition_identity():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        comps = [rng.uniform(0.0, 1.0, int(rng.integers(1, 30)))
                 for _ in range(int(rng.integers(1, 7)))]
        vs = B.variance_decomposition(B.LossProfile(comps))
        assert abs(vs.between + vs.within - vs.total) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 10: late start covering the whole run reduces to the
# momentum sweep, bitwise
# ---------------------------------------------------------------------------


def test_c10_late_start_equals_momentum_sweep_bitwise(tiny):
    data, ens = tiny
    n = ens.snapshots_per_component
    for i in range(5):
        x = data.X_test[i]
        label = int(data.y_test[i])
        kw = dict(gamma=0.1, beta_x=0.025, beta_eps=0.01, inner_T=4,
                  seed=3, keep_iterates=True)
        drap = A.run_attack(x, label, ens,
                            A.AttackConfig(method="drap", n_ls=n, **kw))
        sweep = A.run_attack(x, label, ens,
                             A.AttackConfig(method="mifgsm", n_ls=n, **kw))
        assert len(drap.iterates) == len(sweep.iterates)
        for a, b in zip(drap.iterates, sweep.iterates):
            assert np.array_equal(a, b), "iterate sequences diverge"
        assert np.array_equal(drap.x_hat, sweep.x_hat)
        assert drap.grad_calls == sweep.grad_calls


# ---------------------------------------------------------------------------
# criterion 11: model-specific inner ascent dominates the shared one
# ---------------------------------------------------------------------------


def test_c11_per_model_inner_ascent_dominates_shared(desk0):
    data, surro, _ = desk0
    protos = surro.pretrained
    cfg = A.AttackConfig(gamma=GAMMA, beta_x=GAMMA / 4.0, beta_eps=GAMMA / 16.0,
                         inner_T=5, n_ls=0, method="drap", seed=0)
    wins = 0
    total = 0
    for i in range(250):
        x = data.X_test[i]
        kind = A.attack_loss_kind(False, int(data.y_test[i]))
        shared = A.inner_max_global(x, protos, kind, cfg)
        for w in protos:
            own = A.inner_max_per_model(x, w, kind, cfg)
            total += 1
            if M.loss(w, x + own, kind) >= M.loss(w, x + shared, kind) - 1e-12:
                wins += 1
    assert total == 1000
    assert wins >= 900, f"dominance on {wins}/1000 pairs (need >= 900)"


# ---------------------------------------------------------------------------
# criterion 12: desk-scale transfer ordering
# ---------------------------------------------------------------------------


def test_c12_transfer_asr_ordering_at_desk_scale(desk0):
    start = time.perf_counter()
    n_ex = 200
    rates = {"ifgsm": [], "mifgsm": [], "drap": []}
    for seed in (0, 1, 2):
        data, surro, targ = desk0 if seed == 0 else _desk_pair(seed)
        targets = list(targ.all_members())
        X = data.X_test[:n_ex]
        y = data.y_test[:n_ex].astype(int)
        for method in rates:
            cfg = A.AttackConfig(
                gamma=GAMMA, beta_x=GAMMA / 4.0, beta_eps=GAMMA / 16.0,
                inner_T=5, n_ls=5, method=method, seed=seed)
            adv = A.run_attack(X, y, surro, cfg).x_hat
            table = H.evaluate_asr(adv, y, {"held": targets}, method=method)
            rates[method].append(table.rows[(method, "held")].rate)
    elapsed = time.perf_counter() - start
    mean = {m: 100.0 * float(np.mean(v)) for m, v in rates.items()}
    gap_i = mean["drap"] - mean["ifgsm"]
    gap_m = mean["drap"] - mean["mifgsm"]
    detail = (f"ASR drap={mean['drap']:.1f} ifgsm={mean['ifgsm']:.1f} "
              f"mifgsm={mean['mifgsm']:.1f}; gaps {gap_i:+.1f}/{gap_m:+.1f} "
              f"(need >= +5.0 and >= +2.0); {elapsed:.0f}s")
    assert elapsed < 300.0, detail
    assert gap_i >= 5.0 and gap_m >= 2.0, detail


# ---------------------------------------------------------------------------
# criterion 13: reverse perturbation lowers held-out sharpness
# ---------------------------------------------------------------------------


def test_c13_reverse_perturbation_lowers_held_out_sharpness(desk0):
    data, surro, _ = desk0
    attack_ens = F.SurrogateEnsemble([c[:7] for c in surro.components],
                                     seed=surro.seed)
    held_ens = F.SurrogateEnsemble([c[7:] for c in surro.components],
                                   seed=surro.seed)
    n_ex = 200
    inner_T = 5
    beta_eps = GAMMA / 16.0
    rho = inner_T * beta_eps
    means = {}
    for method in ("mifgsm", "drap"):
        cfg = A.AttackConfig(gamma=GAMMA, beta_x=GAMMA / 4.0,
                             beta_eps=beta_eps, inner_T=inner_T, n_ls=5,
                             method=method, seed=0)
        y = data.y_test[:n_ex].astype(int)
        adv = A.run_attack(data.X_test[:n_ex], y, attack_ens, cfg).x_hat
        vals = [B.sharpness(adv[i], held_ens, int(y[i]), rho, steps=20,
                            restarts=3, seed=i) for i in range(n_ex)]
        means[method] = float(np.mean(vals))
    assert means["drap"] < means["mifgsm"], \
        (f"mean sharpness drap={means['drap']:.6f} "
         f"mifgsm={means['mifgsm']:.6f} (need strictly lower)")


# ---------------------------------------------------------------------------
# criterion 14: assembled bound covers realized held-out risk
# ---------------------------------------------------------------------------


def test_c14_assembled_bound_covers_realized_risk(quad):
    data, surro, targ = quad
    targets = list(targ.all_members())
    gamma = 0.1
    settings = {"tv": (1.0, 0.0), "kl": (1.3, 1.2), "chi2": (1.0, 0.25)}
    adv_cfg = A.AttackConfig(gamma=gamma, beta_x=gamma / 4.0, method="mifgsm",
                             seed=7)
    covered = 0
    for i in range(100):
        phi = ("tv", "kl", "chi2")[i % 3]
        c1, c2 = settings[phi]
        x = data.X_test[i % 50]
        label = int(data.y_test[i % 50])
        if i % 2:
            x_hat = A.run_attack(x, label, surro, adv_cfg).x_hat
        else:
            x_hat = x
        risk = B.profile(x_hat, surro, label).surrogate_risk
        cfg = B.BoundConfig(phi=phi, c1=c1, c2=c2, rho=0.05, delta=0.05)
        rep = B.assemble_bound(x_hat, x, gamma, surro, targets, label, cfg,
                               r=risk + 0.05, seed=i,
                               sharpness_steps=10, sharpness_restarts=2)
        if rep.realized_target_risk <= rep.assembled + 1e-9:
            covered += 1
    assert covered >= 95, f"covered {covered}/100 instances (need >= 95)"
