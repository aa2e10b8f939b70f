"""Bound diagnostics: closed forms checked against independent oracles.

The discrepancy estimators get a dense-grid evaluation of the raw
variational objective as a second route; sharpness gets exact logistic
closed forms on hand-built models; the feasibility frontier is
re-derived by bisection.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from transferbound import attacks as A
from transferbound import bounds as B
from transferbound import forge as F
from transferbound import models as M


def sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z))


def linear_pair(v, bias0=0.0, bias1=0.0, flip=False):
    """2-class linear model whose class-0 margin is +/- v . x + bias gap."""
    spec = M.ModelSpec("linear", len(v), 2)
    row0 = -np.asarray(v, float) if flip else np.asarray(v, float)
    w = np.concatenate([row0, np.zeros(len(v)), [bias0, bias1]])
    return M.Weights(spec, w)


def dense_grid(lo, hi, step):
    g = np.arange(lo, hi + step / 2, step)
    return np.unique(np.concatenate([g, [0.0]]))


# ---------------------------------------------------------------------------
# generator k_s
# ---------------------------------------------------------------------------


def test_k_s_two_point_closed_form():
    losses = np.array([0.0, 1.0])
    want = math.log((1.0 + math.e) / 2.0) - 0.5
    assert abs(B.k_s(1.0, losses, "kl") - want) < 1e-12
    # chi2: t^2/4 * Var, Var of {0,1} is 1/4
    assert abs(B.k_s(2.0, losses, "chi2") - 0.25) < 1e-12
    assert B.k_s(37.0, losses, "tv") == 0.0


def test_k_s_zero_and_jensen():
    rng = np.random.default_rng(5)
    for _ in range(20):
        losses = rng.uniform(size=9)
        t = rng.uniform(-8, 8)
        assert B.k_s(0.0, losses, "kl") == pytest.approx(0.0, abs=1e-12)
        assert B.k_s(t, losses, "kl") >= -1e-12
        assert B.k_s(t, losses, "chi2") >= 0.0
    with pytest.raises(ValueError):
        B.k_s(1.0, np.array([]), "kl")
    with pytest.raises(ValueError):
        B.k_s(1.0, losses, "hellinger")


# ---------------------------------------------------------------------------
# feasibility frontier
# ---------------------------------------------------------------------------


def bisect_kl_c1(c2):
    """Solve (e^c - 1 - c)/c = c2 for c independently of the module."""
    lo, hi = 1e-9, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if (math.exp(mid) - 1.0 - mid) / mid < c2:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_kl_frontier_constants():
    losses = np.array([0.1, 0.6, 0.3])
    c_star = bisect_kl_c1(1.0)
    assert abs(c_star - 1.2564) < 1e-3
    assert abs(1.0 / c_star - 0.796) < 1e-3
    chk = B.feasibility(c_star, 1.0, losses, "kl")
    assert chk.feasible and abs(chk.margin) < 1e-8

    c_small = bisect_kl_c1(0.1)
    assert abs(1.0 / c_small - 5.3) < 0.05
    assert B.feasibility(c_small + 1e-6, 0.1, losses, "kl").feasible is False or \
        B.feasibility(c_small + 1e-6, 0.1, losses, "kl").margin < 1e-6


def test_feasibility_tv_and_chi2():
    two_point = np.array([0.0, 1.0])  # mean 1/2, var 1/4
    tv_ok = B.feasibility(1.0, 0.0, two_point, "tv")
    assert tv_ok.feasible and tv_ok.threshold == 0.0
    assert not B.feasibility(1.2, 0.0, two_point, "tv").feasible

    chk = B.feasibility(1.0, 0.2, two_point, "chi2")
    # threshold = (1/4) * (1/4) / (1/2) = 1/8
    assert chk.threshold == pytest.approx(0.125, abs=1e-12)
    assert chk.feasible and chk.margin == pytest.approx(0.075, abs=1e-12)
    assert not B.feasibility(1.0, 0.1, two_point, "chi2").feasible

    with pytest.raises(ValueError):
        B.feasibility(0.0, 1.0, two_point, "kl")
    with pytest.raises(ValueError):
        B.feasibility(-1.0, 1.0, two_point, "tv")
    with pytest.raises(ValueError, match="unknown phi 'js'"):
        B.feasibility(1.0, 1.0, two_point, "js")
    # NaN coefficients are refused, not reported infeasible with a NaN margin
    for c1, c2, message in ((math.nan, 1.0, "c1 must be > 0 and finite"),
                            (1.0, math.nan, "c2 must be finite")):
        with pytest.raises(ValueError, match=message):
            B.feasibility(c1, c2, two_point, "chi2")


def test_feasibility_chi2_degenerate_losses():
    flat = np.full(6, 0.3)
    chk = B.feasibility(1.0, 0.0, flat, "chi2")  # zero variance: free
    assert chk.feasible and chk.threshold == 0.0
    zero = np.zeros(6)
    assert B.feasibility(1.0, 0.0, zero, "chi2").feasible


# ---------------------------------------------------------------------------
# discrepancy estimators
# ---------------------------------------------------------------------------


def d_phi_grid(phi: str, s_losses, t_losses, t_grid=None) -> float:
    """Generic evaluation of the variational objective at every grid point:
    the oracle for the closed-form tv and chi2 estimators and for the kl
    search."""
    if phi not in B.PHIS:
        raise ValueError(f"unknown phi {phi!r}")
    B._check_pairs(s_losses, t_losses)
    t_grid = B._check_grid(B.default_t_grid() if t_grid is None else t_grid)
    if phi == "tv":
        t_grid = t_grid[(t_grid >= -1.0) & (t_grid <= 1.0)]
    best = 0.0
    for s, t in zip(s_losses, t_losses):
        if phi == "kl":
            gen = np.log(np.mean(np.exp(np.outer(t_grid, s)), axis=1))
            vals = t_grid * B._smean(t) - gen
        else:
            delta = B._smean(t) - B._smean(s)
            if phi == "tv":
                vals = t_grid * delta
            else:
                vals = t_grid * delta - (t_grid ** 2 / 4.0) * float(np.var(s))
        best = max(best, float(vals.max()))
    return best


def test_default_t_grid_shape():
    g = B.default_t_grid()
    assert g.size == 2001
    assert np.any(g == 0.0)
    assert np.allclose(g, -g[::-1])


def test_chi2_closed_form_example():
    s = [np.array([0.1, 0.5])]          # mean 0.3, var 0.04
    t = [np.array([0.5, 0.5])]          # gap 0.2
    val = B.d_chi2(s, t)
    assert val == pytest.approx(1.0, abs=1e-12)
    # optimizer sits at t* = 2*gap/var = 10; a dense grid agrees
    grid_val = d_phi_grid("chi2", s, t, dense_grid(-20, 20, 0.005))
    assert grid_val == pytest.approx(1.0, abs=1e-4)


def test_chi2_matches_grid_random():
    rng = np.random.default_rng(7)
    grid = dense_grid(-60, 60, 0.005)
    for _ in range(10):
        s_arr = rng.uniform(size=12)
        while np.var(s_arr) < 0.02:
            s_arr = rng.uniform(size=12)
        t_arr = s_arr + rng.uniform(-0.3, 0.3)
        s, t = [s_arr], [t_arr]
        exact = B.d_chi2(s, t)
        approx = d_phi_grid("chi2", s, t, grid)
        assert approx <= exact + 1e-9
        assert exact - approx <= 1e-3 * max(1.0, exact)


def test_chi2_degenerate_spread():
    s = [np.full(4, 0.2)]
    assert B.d_chi2(s, [np.full(4, 0.5)]) == math.inf
    assert B.d_chi2(s, [np.full(4, 0.2)]) == 0.0


def test_tv_exact_and_grid_agree():
    rng = np.random.default_rng(13)
    s = [rng.uniform(size=8) for _ in range(5)]
    t = [rng.uniform(size=6) for _ in range(5)]
    exact = B.d_tv(s, t)
    want = max(abs(b.mean() - a.mean()) for a, b in zip(s, t))
    assert exact == pytest.approx(want, abs=1e-15)
    grid = np.unique(np.concatenate([np.linspace(-1, 1, 401), [0.0]]))
    assert d_phi_grid("tv", s, t, grid) == pytest.approx(exact, abs=1e-12)


def bernoulli_undercoverage(p: float, q: float) -> float:
    """KL(Bernoulli(p) || Bernoulli(q)): the floor any kl discrepancy
    estimate must respect when the target puts mass p on a region the
    surrogate covers with mass q."""
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise ValueError("p and q must be probabilities")
    if q in (0.0, 1.0):
        return 0.0 if p == q else math.inf
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


def test_kl_bernoulli_population_identity():
    # Exact two-point populations: sup_t of the objective is the
    # Bernoulli relative entropy, an independently computable target.
    cases = [(0.5, 0.25), (0.3, 0.6), (0.8, 0.5)]
    for p, q in cases:
        s = [np.array([1.0] * int(q * 20) + [0.0] * (20 - int(q * 20)))]
        t = [np.array([1.0] * int(p * 10) + [0.0] * (10 - int(p * 10)))]
        want = bernoulli_undercoverage(p, q)
        got = B.d_kl(s, t)
        assert got == pytest.approx(want, abs=1e-3)


def test_bernoulli_undercoverage_values():
    want = 0.5 * math.log(2.0) + 0.5 * math.log(0.5 / 0.75)
    assert bernoulli_undercoverage(0.5, 0.25) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.1438, abs=1e-4)
    assert bernoulli_undercoverage(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)
    assert bernoulli_undercoverage(0.5, 0.0) == math.inf
    assert bernoulli_undercoverage(0.0, 0.0) == 0.0
    assert bernoulli_undercoverage(0.5, 1.0) == math.inf
    assert bernoulli_undercoverage(1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        bernoulli_undercoverage(1.5, 0.5)


def test_shift_annihilation_exact_zero():
    rng = np.random.default_rng(3)
    s = [rng.uniform(size=7) for _ in range(4)]
    t = [a.copy() for a in s]
    assert B.d_tv(s, t) == 0.0
    assert B.d_kl(s, t) == 0.0
    assert B.d_chi2(s, t) == 0.0


def test_discrepancy_monotone_in_candidates():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = [rng.uniform(size=9) * 0.8 + 0.1 for _ in range(6)]
        t = [a + rng.uniform(-0.2, 0.2) for a in s]
        for k in range(1, 6):
            assert B.d_tv(s[:k], t[:k]) <= B.d_tv(s[: k + 1], t[: k + 1]) + 1e-15
            assert B.d_kl(s[:k], t[:k]) <= B.d_kl(s[: k + 1], t[: k + 1]) + 1e-12
            assert B.d_chi2(s[:k], t[:k]) <= B.d_chi2(s[: k + 1], t[: k + 1]) + 1e-12


LOSS_SHAPES = ("uniform", "beta", "constant", "binary", "near_zero", "near_one")


def loss_vector(rng, shape, size):
    if shape == "uniform":
        return rng.uniform(0.0, 1.0, size)
    if shape == "beta":
        return rng.beta(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), size)
    if shape == "constant":
        return np.full(size, rng.uniform(0.0, 1.0))
    if shape == "binary":
        return rng.integers(0, 2, size).astype(np.float64)
    if shape == "near_zero":
        return rng.uniform(0.0, 1e-9, size)
    return 1.0 - rng.uniform(0.0, 1e-9, size)


@st.composite
def kl_cases(draw):
    """Candidate loss vectors and a t grid: the default grid, or an
    unsorted random one of 1 to 81 points through 0, often shorter than
    the search's 16-point stride or its 33-point fine pass.  A target
    vector may copy its surrogate vector, where the objective is flat at
    rounding level."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 60))
    k_s, k_t = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    s_shape = draw(st.sampled_from(LOSS_SHAPES))
    t_shape = draw(st.sampled_from(LOSS_SHAPES + ("copy",)))
    s = [loss_vector(rng, s_shape, k_s) for _ in range(n)]
    t = [a.copy() if t_shape == "copy" else loss_vector(rng, t_shape, k_t)
         for a in s]
    size = draw(st.one_of(st.none(), st.integers(0, 80)))
    grid = None
    if size is not None:
        grid = np.append(rng.normal(0.0, draw(st.sampled_from([0.5, 10.0, 60.0])),
                                    size), 0.0)
        rng.shuffle(grid)
    return s, t, grid


@seed(20260)
@settings(max_examples=150, deadline=None)
@given(case=kl_cases())
def test_kl_search_equals_full_grid_bitwise(case):
    s, t, grid = case
    assert B.d_kl(s, t, grid) == d_phi_grid("kl", s, t, grid)


@pytest.mark.parametrize("size", [1, 3, 5, 7, 40])
@pytest.mark.parametrize("value", [0.1, 0.3, 0.7, 0.9, 1 / 3])
def test_kl_search_on_equal_constant_losses(value, size):
    # the objective is 0 up to rounding on the whole grid, so its grid max
    # is rounding noise that may sit far from the coarse argmax
    s, t = [np.full(size, value)], [np.full(size, value)]
    assert B.d_kl(s, t) == d_phi_grid("kl", s, t)


def test_kl_search_evaluates_a_fraction_of_the_grid(monkeypatch):
    rng = np.random.default_rng(4)
    s = [rng.beta(2.0, 5.0, 40) for _ in range(60)]
    t = [rng.beta(2.0, 4.0, 40) for _ in range(60)]
    points = []
    objective = B._kl_objective

    def counted(grid, s, mean_t):
        # one (candidate, t) pair per entry of the broadcast t and mean_t
        points.append(np.broadcast(grid, mean_t).size)
        return objective(grid, s, mean_t)

    monkeypatch.setattr(B, "_kl_objective", counted)
    got = B.d_kl(s, t)
    monkeypatch.undo()
    assert got == d_phi_grid("kl", s, t)
    # the coarse pass, then the 33 points from one neighbour of the
    # coarse argmax to the other
    coarse = len(range(0, B.default_t_grid().size - 1, B.KL_STRIDE)) + 1
    assert 60 * coarse < sum(points) <= 60 * (coarse + 2 * B.KL_STRIDE + 1)


# ---------------------------------------------------------------------------
# the estimators before they scored candidate rows: frozen oracle
# ---------------------------------------------------------------------------
# The per-candidate loops ``d_tv``, ``d_chi2`` and ``d_kl`` ran before they
# grouped the candidates into row matrices, kept verbatim.


def frozen_smean(values):
    return float(np.mean(np.sort(np.asarray(values, dtype=np.float64))))


def frozen_d_tv(s_losses, t_losses):
    B._check_pairs(s_losses, t_losses)
    if len(s_losses) == 0:
        return 0.0
    return max(abs(frozen_smean(t) - frozen_smean(s))
               for s, t in zip(s_losses, t_losses))


def frozen_kl_objective(t, s, mean_t):
    return t * mean_t - np.log(np.mean(np.exp(np.outer(t, s)), axis=1))


def frozen_kl_search(grid, s, mean_t):
    n = grid.size
    coarse = np.append(np.arange(0, n - 1, B.KL_STRIDE), n - 1)
    vals = frozen_kl_objective(grid[coarse], s, mean_t)
    noise = 8 * np.finfo(np.float64).eps * (
        np.max(np.abs(grid)) * (abs(mean_t) + np.max(np.abs(s)))
        + len(s) + 8)
    if not (np.all(np.isfinite(vals)) and np.isfinite(noise)):
        return float(frozen_kl_objective(grid, s, mean_t).max())
    fine = np.zeros(n, dtype=bool)
    for j in np.flatnonzero(vals >= vals.max() - 2 * noise):
        fine[coarse[max(j - 1, 0)] : coarse[min(j + 1, coarse.size - 1)] + 1] = True
    return float(frozen_kl_objective(grid[fine], s, mean_t).max())


def frozen_d_kl(s_losses, t_losses, t_grid=None):
    B._check_pairs(s_losses, t_losses)
    t_grid = np.sort(B._check_grid(B.default_t_grid() if t_grid is None else t_grid))
    if len(s_losses) == 0:
        return 0.0
    best = 0.0
    for s, t in zip(s_losses, t_losses):
        best = max(best, frozen_kl_search(t_grid, s, frozen_smean(t)))
    return best


def frozen_d_chi2(s_losses, t_losses):
    B._check_pairs(s_losses, t_losses)
    best = 0.0
    for s, t in zip(s_losses, t_losses):
        delta = frozen_smean(t) - frozen_smean(s)
        var = float(np.var(s))
        if var < B.VAR_FLOOR:
            if delta != 0.0:
                return math.inf
            continue
        best = max(best, delta * delta / var)
    return best


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@st.composite
def candidate_lists(draw):
    """Surrogate and target loss lists for up to 70 candidates: one
    (n_s, n_t) size for all, or up to three sizes mixed in any order.
    Some surrogate rows may have zero variance, with or without a mean gap
    to their target row, and some entries may be NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 70))
    sizes = [(draw(st.integers(1, 45)), draw(st.integers(1, 45)))
             for _ in range(draw(st.integers(1, 3)))]
    s_shape = draw(st.sampled_from(LOSS_SHAPES))
    t_shape = draw(st.sampled_from(LOSS_SHAPES + ("copy",)))
    flat = draw(st.sampled_from([0.0, 0.2, 1.0]))
    nan = draw(st.sampled_from([0.0, 0.05]))
    s_losses, t_losses = [], []
    for k_s, k_t in (sizes[i] for i in rng.integers(0, len(sizes), n)):
        s = loss_vector(rng, s_shape, k_s)
        if rng.uniform() < flat:
            s = np.full(k_s, s[0])
        if t_shape == "copy" or rng.uniform() < flat / 2:
            # equal means when the sizes agree: a flat row with no gap
            t = np.resize(s, k_t)
        else:
            t = loss_vector(rng, t_shape, k_t)
        for v in (s, t):
            v[rng.uniform(size=v.size) < nan] = np.nan
        s_losses.append(s)
        t_losses.append(t)
    return s_losses, t_losses


@seed(20261)
@settings(max_examples=150, deadline=None)
@given(case=candidate_lists())
def test_row_estimators_equal_the_per_candidate_loops(case):
    s, t = case
    assert same_float(B.d_tv(s, t), frozen_d_tv(s, t))
    assert same_float(B.d_chi2(s, t), frozen_d_chi2(s, t))
    assert same_float(B.d_kl(s, t), frozen_d_kl(s, t))


def test_kl_search_memory_stays_flat(monkeypatch):
    rng = np.random.default_rng(8)
    s = [rng.beta(2.0, 5.0, 40) for _ in range(65)]
    t = [rng.beta(2.0, 4.0, 40) for _ in range(65)]
    grid = B.default_t_grid()
    tracemalloc.start()
    try:
        got = B.d_kl(s, t, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == frozen_d_kl(s, t, grid)
    # the passes run KL_CHUNK elements at a time, not (65, points, 40)
    assert peak < 1 << 20
    # 65 candidates x 126 coarse points, then 33 fine points each
    pairs, kl_pairs = [], B._kl_pairs

    def counted(t, cand, *rest):
        pairs.append(cand.size)
        return kl_pairs(t, cand, *rest)

    monkeypatch.setattr(B, "_kl_pairs", counted)
    assert B.d_kl(s, t, grid) == got
    assert pairs == [8190, 2145]


def test_estimator_validation():
    with pytest.raises(ValueError):
        B.d_tv([np.array([0.1])], [])
    with pytest.raises(ValueError):
        B.d_kl([np.array([])], [np.array([0.1])])
    with pytest.raises(ValueError):
        B.d_kl([np.array([0.1])], [np.array([0.2])], np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="t grid must be a nonempty vector"):
        B.d_kl([np.array([0.1])], [np.array([0.2])], np.array([]))
    # one non-finite grid point would zero the estimate (0.530 on [0, 1])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t grid must be finite"):
            B.d_kl([[0.1, 0.2, 0.3]], [[0.6, 0.7, 0.9]], t_grid=[bad, 0.0, 1.0])
    with pytest.raises(ValueError):
        d_phi_grid("wasserstein", [], [])
    assert B.d_tv([], []) == 0.0
    assert B.d_kl([], []) == 0.0


# ---------------------------------------------------------------------------
# variance decomposition
# ---------------------------------------------------------------------------


def test_variance_decomposition_example():
    prof = B.LossProfile([np.array([0.2, 0.2]), np.array([0.4, 0.4])])
    split = B.variance_decomposition(prof)
    assert split.between == pytest.approx(0.01, abs=1e-15)
    assert split.within == pytest.approx(0.0, abs=1e-15)
    assert split.total == pytest.approx(0.01, abs=1e-15)


def test_variance_decomposition_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        comps = [rng.uniform(size=rng.integers(2, 7)) for _ in range(4)]
        # equal snapshot counts are the supported regime for the identity
        n = min(c.size for c in comps)
        prof = B.LossProfile([c[:n] for c in comps])
        split = B.variance_decomposition(prof)
        assert split.between >= 0.0 and split.within >= 0.0
        assert abs(split.total - (split.between + split.within)) <= 1e-12
    with pytest.raises(ValueError):
        B.variance_decomposition(B.LossProfile([]))


# ---------------------------------------------------------------------------
# statistical slack
# ---------------------------------------------------------------------------


def eps_pac_reference(d, K, gamma, rho, delta, r):
    logK = math.log(K)
    geom = (d / 2.0) * math.log(
        1.0 + (gamma ** 2 / rho ** 2) * (1.0 + math.sqrt(logK / d)) ** 2)
    resid = 0.5 + 2.0 * math.log(
        2.0 + 3.0 * d + 6.0 * r * r * K
        + 4.0 * d * math.log(math.sqrt(d) + math.sqrt(logK)))
    return math.sqrt((geom + math.log(K / delta) + resid) / (2.0 * (K - 1)))


def test_eps_pac_matches_reference():
    cases = [(4, 8, 0.1, 0.05, 0.05, 0.2), (100, 200, 16 / 255, 0.01, 0.1, 0.5),
             (2, 2, 0.0, 1.0, 0.5, 0.0)]
    for d, K, g, rho, delta, r in cases:
        assert B.eps_pac(d, K, g, rho, delta, r) == pytest.approx(
            eps_pac_reference(d, K, g, rho, delta, r), rel=1e-14)


def test_eps_pac_gamma_zero_collapse():
    # gamma = 0 removes the geometry term entirely
    d, K, rho, delta, r = 10, 50, 0.3, 0.05, 0.4
    logK = math.log(K)
    resid = 0.5 + 2.0 * math.log(
        2.0 + 3.0 * d + 6.0 * r * r * K
        + 4.0 * d * math.log(math.sqrt(d) + math.sqrt(logK)))
    want = math.sqrt((math.log(K / delta) + resid) / (2.0 * (K - 1)))
    assert B.eps_pac(d, K, 0.0, rho, delta, r) == pytest.approx(want, rel=1e-14)


def test_eps_pac_monotonicity():
    prev = math.inf
    for K in (50, 100, 200, 400, 800, 1600, 3200):
        cur = B.eps_pac(20, K, 0.1, 0.05, 0.05, 0.3)
        assert cur < prev
        prev = cur
    # larger probe radius rho shrinks the geometry term
    assert B.eps_pac(20, 50, 0.1, 0.5, 0.05, 0.3) < \
        B.eps_pac(20, 50, 0.1, 0.01, 0.05, 0.3)
    # wider attack budget gamma grows it
    assert B.eps_pac(20, 50, 0.2, 0.05, 0.05, 0.3) > \
        B.eps_pac(20, 50, 0.05, 0.05, 0.05, 0.3)


def test_eps_pac_validation():
    with pytest.raises(ValueError):
        B.eps_pac(0, 10, 0.1, 0.1, 0.05, 0.1)
    with pytest.raises(ValueError):
        B.eps_pac(4, 1, 0.1, 0.1, 0.05, 0.1)
    with pytest.raises(ValueError):
        B.eps_pac(4, 10, 0.1, 0.0, 0.05, 0.1)
    with pytest.raises(ValueError):
        B.eps_pac(4, 10, 0.1, 0.1, 1.0, 0.1)
    with pytest.raises(ValueError):
        B.eps_pac(4, 10, -0.1, 0.1, 0.05, 0.1)
    # NaN and inf fail every check instead of giving a NaN slack
    for bad in (math.nan, math.inf):
        for args in ((4, 10, bad, 0.1, 0.05, 0.1), (4, 10, 0.1, bad, 0.05, 0.1),
                     (4, 10, 0.1, 0.1, 0.05, bad)):
            with pytest.raises(ValueError, match="finite"):
                B.eps_pac(*args)
    for args, message in (((2.5, 10, 0.1, 0.1, 0.05, 0.1), "d must be an integer"),
                          ((4, 2.5, 0.1, 0.1, 0.05, 0.1), "K must be an integer")):
        with pytest.raises(ValueError, match=message):
            B.eps_pac(*args)


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------


def test_sharpness_linear_closed_form():
    # Single logistic model: risk along the margin direction is
    # sigma(-m + |a| * rho) at the worst point of the ball.
    v = np.array([2.0, 1.0])
    w = linear_pair(v, bias0=0.5)
    ens = F.SurrogateEnsemble(components=[[w]])
    x_hat = np.array([0.3, 0.6])
    m = float(v @ x_hat) + 0.5
    rho = 0.4
    want = sigmoid(-m + np.linalg.norm(v) * rho) - sigmoid(-m)
    got = B.sharpness(x_hat, ens, 0, rho, steps=25, restarts=2, seed=1)
    assert got == pytest.approx(want, rel=0.05)
    assert got <= want + 1e-9  # ascent never beats the true maximum


def test_sharpness_mirrored_pair_closed_form():
    # Two models with opposite margin slopes around the same operating
    # point: mean risk is even in v.eps, the gradient vanishes at 0, and
    # the exact maximum over the ball has a closed form.
    v = np.array([2.0, 1.0])
    x_hat = np.array([0.25, 0.5])
    m = float(v @ x_hat)
    w_a = linear_pair(v)
    w_b = linear_pair(v, bias0=2.0 * m, flip=True)
    ens = F.SurrogateEnsemble(components=[[w_a], [w_b]])
    rho = 0.4
    u = float(np.linalg.norm(v)) * rho
    want = 0.5 * (sigmoid(-m - u) + sigmoid(-m + u)) - sigmoid(-m)
    got = B.sharpness(x_hat, ens, 0, rho, steps=30, restarts=4, seed=3)
    assert got == pytest.approx(want, rel=0.05)
    assert got <= want + 1e-9


def test_sharpness_zero_rho_and_accounting(tiny_setup):
    ens, data = tiny_setup
    x = data.X_test[0]
    y = int(data.y_test[0])
    with M.GRAD_CALLS.scope() as tally:
        assert B.sharpness(x, ens, y, 0.0) == 0.0
    assert tally.count == 0
    with M.GRAD_CALLS.scope() as tally:
        val = B.sharpness(x, ens, y, 0.1, steps=5, restarts=2, seed=0)
    assert val >= 0.0
    assert 0 < tally.count <= 2 * 5 * ens.size
    with pytest.raises(ValueError):
        B.sharpness(x, ens, y, -0.1)


def test_sharpness_deterministic(tiny_setup):
    ens, data = tiny_setup
    x = data.X_test[3]
    y = int(data.y_test[3])
    a = B.sharpness(x, ens, y, 0.2, steps=8, restarts=3, seed=9)
    b = B.sharpness(x, ens, y, 0.2, steps=8, restarts=3, seed=9)
    assert a == b


def per_model_risk(members, z, kind):
    return float(np.mean(np.stack(
        [M.loss_from_logits(M.forward(w, z[None]), kind) for w in members])))


def frozen_sharpness(x_hat, ensemble, label, rho, steps=20, restarts=3, seed=0):
    """The per-member loop that the stacked ``bounds.sharpness`` replaced,
    kept as its oracle: one ``input_gradient`` per member per step, and a
    separate risk forward after every update."""
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if rho == 0:
        return 0.0
    kind = M.bounded_error(label)
    members = list(ensemble.all_members())
    rng = np.random.default_rng(seed)
    d = x_hat.size

    def risk(z):
        return per_model_risk(members, z, kind)

    base = risk(x_hat)
    best = base
    step = 2.0 * rho / steps
    for restart in range(restarts):
        if restart == 0:
            eps = np.zeros_like(x_hat)
        else:
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            eps = u * rho * rng.uniform() ** (1.0 / d)
            best = max(best, risk(x_hat + eps))
        for _ in range(steps):
            g = np.mean([M.input_gradient(w, x_hat + eps, kind)
                         for w in members], axis=0)
            norm = float(np.linalg.norm(g))
            if norm < 1e-15:
                break
            eps = eps + step * g / norm
            scale = float(np.linalg.norm(eps))
            if scale > rho:
                eps = eps * (rho / scale)
            best = max(best, risk(x_hat + eps))
    return best - base


def frozen_restart_starts(x_hat, ensemble, label, rho, restarts, seed):
    """What sharpness without steps scores: the risk gain at the best
    restart start, the starts drawn as the per-restart loop drew them."""
    members, kind = list(ensemble.all_members()), M.bounded_error(label)
    rng = np.random.default_rng(seed)
    risks = [per_model_risk(members, x_hat, kind)]
    for _ in range(restarts - 1):
        u = rng.normal(size=x_hat.size)
        u /= np.linalg.norm(u)
        risks.append(per_model_risk(
            members, x_hat + u * rho * rng.uniform() ** (1.0 / x_hat.size), kind))
    return max(risks) - risks[0]


@pytest.mark.parametrize("setup", ["tiny_setup", "quad_setup"])
@pytest.mark.parametrize("seed", range(4))
def test_sharpness_equals_per_member_oracle(request, setup, seed):
    ens, data = request.getfixturevalue(setup)
    x, y = data.X_test[seed], int(data.y_test[seed])
    for rho, steps, restarts in ((0.1, 6, 3), (0.3, 4, 1), (0.0, 6, 3)):
        with M.GRAD_CALLS.scope() as tally:
            got = B.sharpness(x, ens, y, rho, steps=steps, restarts=restarts,
                              seed=seed)
        assert got == frozen_sharpness(x, ens, y, rho, steps, restarts, seed)
        # no step of these trained ensembles takes the zero-gradient break
        assert tally.count == (steps * restarts * ens.size if rho else 0)


def test_sharpness_without_steps_scores_the_restart_starts(quad_setup):
    ens, data = quad_setup
    x, y = data.X_test[1], int(data.y_test[1])
    # the replaced loop divided by steps before its first restart
    with pytest.raises(ZeroDivisionError):
        frozen_sharpness(x, ens, y, 0.2, steps=0)
    with M.GRAD_CALLS.scope() as tally:
        got = B.sharpness(x, ens, y, 0.2, steps=0, restarts=3, seed=5)
    assert tally.count == 0
    assert got == frozen_restart_starts(x, ens, y, 0.2, 3, 5)


def test_sharpness_zero_weight_ensemble_breaks_on_first_step():
    specs = [M.ModelSpec("linear", 3, 2), M.ModelSpec("mlp", 3, 2, hidden=(4,))]
    ens = F.SurrogateEnsemble(components=[
        [M.Weights(s, np.zeros(M.param_count(s)))] * 2 for s in specs])
    x = np.array([0.2, 0.5, 0.7])
    with M.GRAD_CALLS.scope() as tally:
        got = B.sharpness(x, ens, 0, 0.1, steps=5, restarts=3, seed=2)
    assert got == frozen_sharpness(x, ens, 0, 0.1, 5, 3, 2) == 0.0
    assert tally.count == 3 * ens.size  # one step per restart, then the break


def test_sharpness_stacks_its_members_once(quad_setup, list_groupings):
    ens, data = quad_setup
    x, y = data.X_test[2], int(data.y_test[2])
    with M.GRAD_CALLS.scope() as tally:
        got = B.sharpness(x, ens, y, 0.1, steps=6, restarts=3, seed=2)
    # it scores the stack the ensemble was made with
    assert list_groupings == []
    assert tally.count == 6 * 3 * ens.size
    assert got == frozen_sharpness(x, ens, y, 0.1, 6, 3, 2)


@pytest.mark.parametrize("phi", B.PHIS)
def test_one_bound_groups_only_the_target_list(quad_setup, list_groupings, phi):
    ens, data = quad_setup
    x, y = data.X_test[2], int(data.y_test[2])
    x_hat = np.clip(x + 0.05, 0.0, 1.0)
    targets = ens.pretrained
    r = B.profile(x_hat, ens, y).surrogate_risk + 0.05
    rep = B.assemble_bound(x_hat, x, 0.1, ens, targets, y, B.BoundConfig(phi=phi),
                           r, seed=3, sharpness_steps=4)
    assert rep.num_candidates > 0
    # the targets once per bound, for the profile and the candidates; the
    # surrogate set never, its stack was built with the ensemble
    assert list_groupings == [len(targets)]
    assert ens.size != len(targets)


def test_candidate_pool_is_one_draw_equal_to_the_per_point_draws(quad_setup,
                                                                 monkeypatch):
    ens, data = quad_setup
    x, y = data.X_test[4], int(data.y_test[4])
    x_hat, gamma = np.clip(x - 0.03, 0.0, 1.0), 0.1
    pools = []
    build = B.CandidateSetXr.build

    def spy(pool, *args, **kwargs):
        pools.append(pool)
        return build(pool, *args, **kwargs)

    monkeypatch.setattr(B.CandidateSetXr, "build", spy)
    r = B.profile(x_hat, ens, y).surrogate_risk + 0.05
    for seed in range(20):
        B.assemble_bound(x_hat, x, gamma, ens, ens.pretrained, y,
                         B.BoundConfig(phi="tv"), r, seed=seed,
                         sharpness_steps=1)
        # the pool drawn one point at a time, as before the (N, d) draw
        rng = np.random.default_rng(seed)
        want = [x_hat] + [np.clip(x + rng.uniform(-gamma, gamma, size=x.size),
                                  0.0, 1.0) for _ in range(B.N_CANDIDATES)]
        assert len(pools[-1]) == B.N_CANDIDATES + 1
        assert np.asarray(pools[-1]).tobytes() == np.array(want).tobytes()


def test_sharpness_runs_all_restarts_in_one_call_per_step(quad_setup, monkeypatch):
    ens, data = quad_setup
    x, y = data.X_test[2], int(data.y_test[2])
    shapes = []
    vjp_stack = M.vjp_stack

    def counted(models, z):
        shapes.append(np.shape(z))
        return vjp_stack(models, z)

    monkeypatch.setattr(M, "vjp_stack", counted)
    with M.GRAD_CALLS.scope() as tally:
        got = B.sharpness(x, ens, y, 0.1, steps=6, restarts=3, seed=2)
    monkeypatch.undo()
    # one call per step for the 3 restarts as rows, whose first gives the
    # base risk as row 0, and one last scoring call, where the per-restart
    # loop made 3 * 6 + 3 + 1 calls
    assert shapes == [(3, 1, x.size)] * 7
    assert tally.count == 6 * 3 * ens.size
    assert got == frozen_sharpness(x, ens, y, 0.1, 6, 3, 2)


def test_sharpness_without_restarts_is_zero_and_scores_nothing(quad_setup,
                                                              monkeypatch):
    ens, data = quad_setup
    calls = []
    monkeypatch.setattr(M, "vjp_stack", lambda *a: calls.append(a))
    assert B.sharpness(data.X_test[2], ens, int(data.y_test[2]), 0.1,
                       restarts=0) == 0.0
    assert calls == []


def test_sharpness_rejects_a_label_out_of_range(quad_setup):
    ens, data = quad_setup
    k = ens.components[0][0].spec.num_classes
    with pytest.raises(ValueError, match=f"label {k} out of range"):
        B.sharpness(data.X_test[2], ens, k, 0.1)


@pytest.mark.parametrize("bad, message", [
    (dict(steps=-1), "steps must be an integer >= 0, got -1"),
    (dict(restarts=-1), "restarts must be an integer >= 0, got -1"),
    (dict(rho=math.nan), "rho must be >= 0 and finite"),
    (dict(rho=math.inf), "rho must be >= 0 and finite"),
    (dict(steps=2.5), "steps must be an integer >= 0, got 2.5"),
    (dict(restarts=2.5), "restarts must be an integer >= 0, got 2.5"),
], ids=["negative_steps", "negative_restarts", "nan_rho", "inf_rho",
        "fractional_steps", "fractional_restarts"])
def test_sharpness_rejects_bad_settings(quad_setup, bad, message):
    ens, data = quad_setup
    with M.GRAD_CALLS.scope() as tally, pytest.raises(ValueError, match=message):
        B.sharpness(data.X_test[2], ens, int(data.y_test[2]),
                    **{"rho": 0.1, **bad})
    assert tally.count == 0


def test_sharpness_rows_stop_at_different_steps():
    # one ReLU unit whose pre-activation x[0] - x_hat[0] is exactly 0 at
    # x_hat, where its gradient is 0: the unperturbed restart stops on its
    # first step, and a restart drawn with eps[0] > 0 keeps climbing
    x = np.array([0.2, 0.5, 0.7])
    spec = M.ModelSpec("mlp", 3, 2, hidden=(1,))
    w = M.Weights(spec, np.array([1.0, 0.0, 0.0, -x[0], -1.0, 1.0, 0.0, 0.0]))
    ens = F.SurrogateEnsemble(components=[[w, w], [w, w]])
    tallies = set()
    for seed in range(6):
        with M.GRAD_CALLS.scope() as tally:
            got = B.sharpness(x, ens, 0, 0.1, steps=5, restarts=3, seed=seed)
        with M.GRAD_CALLS.scope() as frozen_tally:
            want = frozen_sharpness(x, ens, 0, 0.1, 5, 3, seed)
        assert got == want
        assert tally.count == frozen_tally.count
        tallies.add(tally.count)
    # some seed's rows stopped at different steps
    assert tallies - {3 * ens.size, 3 * 5 * ens.size}


def test_sharpness_nan_risk_leaves_the_best_as_it_is():
    # the ReLU member's logits overflow to inf for any x[0] > x_hat[0],
    # where the risk is NaN and so is the gradient, which keeps that row
    # moving; rows with x[0] <= x_hat[0] climb the linear member's risk.
    # A NaN row shares every call with a climbing row, and must not hide
    # the climbing row's risk.
    x = np.array([0.3, 0.5])
    spec = M.ModelSpec("mlp", 2, 2, hidden=(1,))
    blow = M.Weights(spec, np.array([1e10, 0.0, -(1e10 * x[0]),
                                     1e308, 1e308, 0.0, 0.0]))
    ens = F.SurrogateEnsemble(components=[[blow], [linear_pair([2.0, 1.0])]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(per_model_risk(list(ens.all_members()),
                                         x + [0.01, 0.0], M.bounded_error(0)))
        for seed in range(6):
            with M.GRAD_CALLS.scope() as tally:
                got = B.sharpness(x, ens, 0, 0.1, steps=5, restarts=3, seed=seed)
            with M.GRAD_CALLS.scope() as frozen_tally:
                want = frozen_sharpness(x, ens, 0, 0.1, 5, 3, seed)
            assert got == want > 0.0
            assert tally.count == frozen_tally.count


@seed(20261)
@settings(max_examples=100, deadline=None)
@given(steps=st.integers(0, 6), restarts=st.integers(0, 4),
       rho=st.floats(0.0, 0.5), rng_seed=st.integers(0, 2**32 - 1),
       i=st.integers(0, 9))
def test_sharpness_rows_equal_the_per_restart_loop(quad_setup, steps, restarts,
                                                   rho, rng_seed, i):
    ens, data = quad_setup
    x, y = data.X_test[i], int(data.y_test[i])
    with M.GRAD_CALLS.scope() as tally:
        got = B.sharpness(x, ens, y, rho, steps=steps, restarts=restarts,
                          seed=rng_seed)
    with M.GRAD_CALLS.scope() as frozen_tally:
        if steps:
            want = frozen_sharpness(x, ens, y, rho, steps, restarts, rng_seed)
        else:
            want = frozen_restart_starts(x, ens, y, rho, restarts, rng_seed)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert tally.count == frozen_tally.count


# ---------------------------------------------------------------------------
# profiles and candidate sets
# ---------------------------------------------------------------------------


def test_profile_matches_direct_loop(tiny_setup):
    ens, data = tiny_setup
    x = data.X_test[1]
    y = int(data.y_test[1])
    targets = list(ens.components[0])
    prof = B.profile(x, ens, y)
    kind = M.bounded_error(y)
    means = []
    for comp in ens.components:
        means.append(np.mean([M.loss(w, x, kind) for w in comp]))
    assert prof.surrogate_risk == pytest.approx(float(np.mean(means)), abs=1e-15)
    assert prof.all_losses.size == ens.size
    assert np.all(prof.all_losses >= 0.0) and np.all(prof.all_losses <= 1.0)
    # the targets are scored at x_hat where the bound is assembled
    rep = B.assemble_bound(x, x, 0.1, ens, targets, y, B.BoundConfig(), 1.0,
                           sharpness_steps=0)
    direct = [M.loss(w, x, kind) for w in targets]
    assert len(direct) == len(targets)
    assert rep.realized_target_risk == pytest.approx(float(np.mean(direct)),
                                                     abs=1e-15)


def test_candidate_set_filters_and_nesting(tiny_setup):
    ens, data = tiny_setup
    rng = np.random.default_rng(2)
    x = data.X_test[2]
    y = int(data.y_test[2])
    gamma = 0.1
    pool = [x] + [np.clip(x + rng.uniform(-gamma, gamma, size=x.size), 0, 1)
                  for _ in range(30)]
    pool.append(np.clip(x + 5 * gamma * np.ones_like(x), 0, 1))  # outside ball
    kind = M.bounded_error(y)
    members = list(ens.all_members())
    risks = [float(np.mean([M.loss(w, c, kind) for w in members])) for c in pool]

    wide = B.CandidateSetXr.build(pool, ens, y, r=1.0, x=x, gamma=gamma)
    in_ball = [c for c in pool if np.max(np.abs(c - x)) <= gamma + 1e-12]
    assert len(wide.candidates) == len(in_ball)

    r_small = float(np.median(risks))
    narrow = B.CandidateSetXr.build(pool, ens, y, r=r_small, x=x, gamma=gamma)
    assert len(narrow.candidates) <= len(wide.candidates)
    wide_ids = {arr.tobytes() for arr in wide.candidates}
    assert all(arr.tobytes() in wide_ids for arr in narrow.candidates)


def count_calls(monkeypatch, *names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(M, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(M, name, counted)
    return counts


def test_candidate_set_takes_one_forward_per_spec_group(tiny_setup, monkeypatch):
    ens, data = tiny_setup
    rng = np.random.default_rng(3)
    x, y = data.X_test[3], int(data.y_test[3])
    groups = len({w.spec for w in ens.all_members()})
    assert groups == 2 < ens.size
    # _forward_stack is the one forward pass every model entry point runs
    counts = count_calls(monkeypatch, "_forward_stack", "loss")
    for size in (1, 5, 40):
        pool = [np.clip(x + rng.uniform(-0.1, 0.1, size=x.size), 0, 1)
                for _ in range(size)]
        counts["_forward_stack"] = 0
        B.CandidateSetXr.build(pool, ens, y, r=1.0, x=x, gamma=0.1)
        assert counts == {"_forward_stack": groups, "loss": 0}


def test_candidate_set_empty_pool_and_pool_outside_ball(tiny_setup):
    ens, data = tiny_setup
    x, y = data.X_test[3], int(data.y_test[3])
    empty = B.CandidateSetXr.build([], ens, y, r=1.0, x=x, gamma=0.1)
    assert empty.candidates.shape == (0, x.size)
    assert empty.losses.shape == (ens.size, 0)
    assert B.candidate_losses(empty, ens.stack, y) == ([], [])
    far = [np.clip(x + s * 0.5, 0, 1) for s in (-1.0, 1.0)]
    assert all(np.max(np.abs(c - x)) > 0.1 for c in far)
    assert B.CandidateSetXr.build(far, ens, y, r=1.0, x=x,
                                  gamma=0.1).candidates.shape == (0, x.size)
    # a (3, 4) pool is not six 2-wide candidates
    assert x.size == 2
    with pytest.raises(ValueError, match="pool must hold 2-wide points"):
        B.CandidateSetXr.build(np.zeros((3, 4)), ens, y, r=1.0, x=x, gamma=0.1)


# csv_row of the bounds below, recorded before the empty-set branches went
NO_CANDIDATE_ROWS = {
    "tv": "tv,0,1,0,0.11534765906843769,0,0,0.85185935400404744,"
          "1.2841037650951728,0.30387314167363511",
    "kl": "kl,0,1.2564,1,0.11534765906843769,0,0.026122256817941059,"
          "0.85185935400404744,1.2841037650951728,0.30387314167363511",
    "chi2": "chi2,0,1,0.25,0.11534765906843769,0,0.0083167270638883958,"
            "0.85185935400404744,1.2841037650951728,0.30387314167363511",
}


@pytest.mark.parametrize("phi", B.PHIS)
def test_assemble_bound_with_no_candidate_kept(quad_setup, phi):
    ens, data = quad_setup
    x, y = data.X_test[2], int(data.y_test[2])
    # the bounded loss is > 0 everywhere, so r = 0 keeps no candidate
    rep = B.assemble_bound(x, x, 0.1, ens, ens.pretrained, y,
                           B.BoundConfig(phi=phi), 0.0, seed=3,
                           sharpness_steps=4)
    assert rep.num_candidates == 0 and rep.d_hat == 0.0
    assert rep.assembled == (rep.empirical_risk + rep.sharpness + rep.c2 * 0
                             + rep.eps_pac)
    assert rep.csv_row() == NO_CANDIDATE_ROWS[phi]


@pytest.mark.parametrize("name, setting", [
    ("gamma", {"gamma": np.nan}), ("gamma", {"gamma": np.inf}),
    ("gamma", {"gamma": -0.1}),
    ("sharpness_steps", {"sharpness_steps": 2.5}),
    ("sharpness_restarts", {"sharpness_restarts": -1}),
], ids=["nan", "inf", "negative", "fractional_steps", "negative_restarts"])
def test_assemble_bound_checks_gamma_before_any_work(quad_setup, monkeypatch,
                                                     name, setting):
    ens, data = quad_setup
    x, y = data.X_test[2], int(data.y_test[2])
    monkeypatch.setattr(B, "profile", lambda *a, **k: pytest.fail("profiled"))
    kwargs = {"gamma": 0.1, **setting}
    gamma = kwargs.pop("gamma")
    before = M.GRAD_CALLS.value
    with pytest.raises(ValueError, match=f"^{name} must be"):
        B.assemble_bound(x, x, gamma, ens, ens.pretrained, y, B.BoundConfig(),
                         0.5, **kwargs)
    assert M.GRAD_CALLS.value == before


def test_assemble_bound_checks_the_shape_of_x_before_any_work(quad_setup, monkeypatch):
    ens, data = quad_setup
    x_hat, y = data.X_test[2], int(data.y_test[2])
    counts = count_calls(monkeypatch, "_forward_stack")
    with pytest.raises(ValueError, match=r"^x has shape \(5,\), x_hat has shape \(6,\)"):
        B.assemble_bound(x_hat, x_hat[:5], 0.1, ens, ens.pretrained, y,
                         B.BoundConfig(), 0.5)
    # a non-finite point fails here too, for every phi, not as a NaN bound
    # or a chi2 threshold blamed on the coefficients
    bad = x_hat.copy()
    for phi in B.PHIS:
        for value in (np.nan, np.inf):
            bad[1] = value
            for pair in ((bad, x_hat), (x_hat, bad)):
                with pytest.raises(ValueError, match="^x_hat or x holds non-finite values$"):
                    B.assemble_bound(*pair, 0.1, ens, ens.pretrained, y,
                                     B.BoundConfig(phi=phi), 0.5)
    assert counts == {"_forward_stack": 0}


# ---------------------------------------------------------------------------
# one scoring pass per model set, against the code it replaced
# ---------------------------------------------------------------------------
#
# Frozen copies of the replaced code: ``profile`` with one ``loss_matrix``
# call per component and the target losses it also returned,
# ``CandidateSetXr.build`` without its loss columns, and
# ``candidate_losses`` re-scoring the candidates on the surrogate members.


def frozen_profile(x_hat, ensemble, label, target_models):
    """The surrogate profile and the target loss column at x_hat."""
    kind = M.bounded_error(label)
    point = x_hat[None]
    comps = [M.loss_matrix(M.member_stack(comp), point, kind)[:, 0]
             for comp in ensemble.components]
    target = M.loss_matrix(M.member_stack(target_models), point, kind)[:, 0]
    return B.LossProfile(comps), target


def frozen_candidates(pool, ensemble, label, r, x=None, gamma=None):
    if len(pool) == 0:
        return []
    pts = np.asarray(pool, dtype=np.float64)
    if x is not None and gamma is not None:
        pts = pts[np.max(np.abs(pts - x), axis=1) <= gamma + 1e-12]
    risk = M.loss_matrix(M.member_stack(list(ensemble.all_members())), pts,
                         M.bounded_error(label)).mean(axis=0)
    return list(pts[risk <= r])


def frozen_candidate_losses(candidates, ensemble, target_models, label):
    if len(target_models) == 0:
        raise ValueError("target model set must be nonempty")
    kind = M.bounded_error(label)
    if len(candidates) == 0:
        return [], []
    pts = np.stack(candidates)
    s_mat = M.loss_matrix(M.member_stack(list(ensemble.all_members())), pts, kind)
    t_mat = M.loss_matrix(M.member_stack(list(target_models)), pts, kind)
    return [s_mat[:, c] for c in range(pts.shape[0])], \
           [t_mat[:, c] for c in range(pts.shape[0])]


def bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("point", ["benign", "mifgsm"])
@pytest.mark.parametrize("setup", ["tiny_setup", "quad_setup"])
def test_one_pass_scoring_equals_per_component_code_bitwise(request, setup,
                                                             point):
    ens, data = request.getfixturevalue(setup)
    targets, gamma = ens.pretrained, 0.1
    for idx in (0, 1):
        x, y = data.X_test[idx], int(data.y_test[idx])
        x_hat = x
        if point == "mifgsm":
            cfg = A.AttackConfig(gamma=gamma, beta_x=0.02, method="mifgsm",
                                 seed=idx)
            x_hat = A.run_attack(x, y, ens, cfg).x_hat
        prof = B.profile(x_hat, ens, y)
        want, want_targets = frozen_profile(x_hat, ens, y, targets)
        assert bits(prof.losses_by_component) == bits(want.losses_by_component)
        # the bound scores the targets at x_hat; its realized risk is their mean
        rep = B.assemble_bound(x_hat, x, gamma, ens, targets, y, B.BoundConfig(),
                               1.0, seed=idx, sharpness_steps=0)
        assert want_targets.size == len(targets)
        assert (np.float64(rep.realized_target_risk).tobytes()
                == np.float64(np.mean(want_targets)).tobytes())

        rng = np.random.default_rng(idx)
        pool = [x_hat] + [np.clip(x + rng.uniform(-gamma, gamma, size=x.size),
                                  0.0, 1.0) for _ in range(B.N_CANDIDATES)]
        kept = set()
        for r in (prof.surrogate_risk + 0.05, 1.0):
            cands = B.CandidateSetXr.build(pool, ens, y, r, x=x, gamma=gamma)
            old = frozen_candidates(pool, ens, y, r, x=x, gamma=gamma)
            assert bits(cands.candidates) == bits(old)
            kept.add(len(old))
            got = B.candidate_losses(cands, M.member_stack(targets), y)
            for new, frozen in zip(got, frozen_candidate_losses(old, ens,
                                                                targets, y)):
                assert bits(new) == bits(frozen)
        assert min(kept) > 0


# ---------------------------------------------------------------------------
# assembled bound
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bound_setup(tiny_setup):
    ens, data = tiny_setup
    protos = [
        F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.05,
                          epochs=3, seed=901),
        F.PrototypeConfig(spec=M.ModelSpec("mlp", 2, 2, hidden=(8,),
                                           activation="tanh"),
                          lr=0.05, epochs=3, seed=902),
    ]
    target_ens = F.build_ensemble(protos, data, pretrain_epochs=15)
    return ens, data, list(target_ens.all_members())


def test_assemble_bound_all_phis_cover(bound_setup):
    ens, data, targets = bound_setup
    gamma = 0.08
    for idx in (0, 5, 9):
        x = data.X_test[idx]
        y = int(data.y_test[idx])
        prof = B.profile(x, ens, y)
        r = prof.surrogate_risk + 0.05
        for phi in B.PHIS:
            thr = B.feasibility(1.0, 0.0, prof.all_losses, phi).threshold
            cfg = B.BoundConfig(phi=phi, c1=1.0, c2=thr + 0.01, rho=0.05)
            rep = B.assemble_bound(x, x, gamma, ens, targets, y, cfg, r,
                                   seed=idx)
            assert rep.in_localized_space
            assert rep.num_candidates >= 1
            assert rep.sharpness >= 0.0
            assert rep.d_hat >= 0.0
            assert rep.assembled >= rep.realized_target_risk - 1e-9
            row = rep.csv_row()
            assert len(row.split(",")) == len(B.BOUND_COLUMNS.split(","))


def test_assemble_bound_flags_a_point_outside_the_localized_space(bound_setup,
                                                                   caplog):
    ens, data, targets = bound_setup
    x, y = data.X_test[0], int(data.y_test[0])
    x_hat = np.clip(x + 0.05, 0.0, 1.0)
    risk = B.profile(x_hat, ens, y).surrogate_risk
    r = risk / 2
    with caplog.at_level(logging.WARNING, logger=B.log.name):
        rep = B.assemble_bound(x_hat, x, 0.08, ens, targets, y,
                               B.BoundConfig(phi="chi2", c1=1.0, c2=1.0), r,
                               seed=0, sharpness_steps=2)
    assert rep.in_localized_space is False
    assert rep.empirical_risk == risk > r
    assert [rec.getMessage() for rec in caplog.records
            if "localization threshold" in rec.getMessage()] == [
        f"surrogate risk {risk:.4f} exceeds the localization threshold "
        f"r={r:.4f}; the bound's precondition fails here"]


def test_assemble_bound_scores_through_loss_matrix(bound_setup, monkeypatch):
    ens, data, targets = bound_setup
    x, y = data.X_test[6], int(data.y_test[6])
    counts = count_calls(monkeypatch, "loss")
    cfg = B.BoundConfig(phi="kl", c1=1.2564, c2=1.0, rho=0.05)
    rep = B.assemble_bound(x, x, 0.08, ens, targets, y, cfg, r=1.0, seed=6)
    assert rep.num_candidates >= 1
    assert counts == {"loss": 0}


def test_assemble_bound_monotone_in_r(bound_setup):
    ens, data, targets = bound_setup
    x = data.X_test[4]
    y = int(data.y_test[4])
    prof = B.profile(x, ens, y)
    cfg = B.BoundConfig(phi="tv", c1=1.0, c2=0.1, rho=0.05)
    base_r = prof.surrogate_risk + 0.02
    rep_small = B.assemble_bound(x, x, 0.08, ens, targets, y, cfg, base_r, seed=0)
    rep_big = B.assemble_bound(x, x, 0.08, ens, targets, y, cfg, base_r + 0.3,
                               seed=0)
    # candidate growth and the explicit c2*r term both push upward
    assert rep_big.d_hat >= rep_small.d_hat - 1e-12
    assert rep_big.assembled >= rep_small.assembled - 1e-9


def test_assemble_bound_infeasible(bound_setup):
    ens, data, targets = bound_setup
    x = data.X_test[0]
    y = int(data.y_test[0])
    cfg = B.BoundConfig(phi="kl", c1=1.0, c2=0.0, rho=0.05)
    with pytest.raises(B.InfeasibleError, match="kl needs"):
        B.assemble_bound(x, x, 0.08, ens, targets, y, cfg, r=0.9)
    with pytest.raises(ValueError):
        B.assemble_bound(x, x, 0.08, ens, [], y,
                         B.BoundConfig(phi="tv", c1=1.0, c2=0.0, rho=0.05),
                         r=0.9)


def test_bound_config_validation():
    with pytest.raises(ValueError):
        B.BoundConfig(phi="l2")
    with pytest.raises(ValueError):
        B.BoundConfig(delta=0.0)
    with pytest.raises(ValueError):
        B.BoundConfig(rho=0.0)
    for c1 in (0.0, -1.0):
        with pytest.raises(ValueError, match="c1 must be > 0"):
            B.BoundConfig(phi="kl", c1=c1)


@pytest.mark.parametrize("phi", B.PHIS)
def test_bound_config_defaults_are_feasible(phi):
    cfg = B.BoundConfig(phi=phi)
    assert (cfg.c1, cfg.c2) == B.PHI_DEFAULTS[phi]
    rng = np.random.default_rng(7)
    for losses in ([0.0, 1.0], [0.0] * 9 + [1.0], [0.5] * 4, [0.0] * 3,
                   [1.0] * 3, rng.uniform(size=50), rng.beta(0.2, 0.2, 50)):
        check = B.feasibility(cfg.c1, cfg.c2, np.asarray(losses), phi)
        assert check.feasible, (losses, check)
    # an unset coefficient takes its phi default, a set one is kept
    partial = B.BoundConfig(phi=phi, c2=0.75)
    assert (partial.c1, partial.c2) == (B.PHI_DEFAULTS[phi][0], 0.75)


def test_bound_report_renders_inf():
    rep = B.BoundReport(phi="chi2", r=0.5, c1=1.0, c2=0.25,
                        empirical_risk=0.3, sharpness=0.01,
                        d_hat=math.inf, k_s_at_c1=0.02, eps_pac=0.9,
                        assembled=math.inf, realized_target_risk=0.4,
                        feasible_margin=0.1, num_candidates=3,
                        in_localized_space=True)
    row = rep.csv_row()
    cells = row.split(",")
    assert cells[0] == "chi2"
    assert cells[5] == "inf" and cells[8] == "inf"
    assert len(cells) == 10
