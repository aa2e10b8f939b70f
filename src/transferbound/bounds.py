"""Transferability bound diagnostics.

The machinery audits how far target-ensemble risk at an adversarial
example can exceed its surrogate risk.  Risk is always the bounded loss
(1 - probability of the attacked class), so every quantity lives in
[0, 1] and the variational estimators below are well defined.  Each model
set is scored as a ``models.MemberStack``, by one ``models.loss_matrix``
call per point set (a stacked forward per spec group).  The surrogates
are ``ensemble.stack``, grouped when the ensemble was made.  The
profile scores all surrogates at x_hat at once, and candidate filtering
keeps their loss columns, so ``candidate_losses`` scores only the
targets.  ``assemble_bound`` groups the target list it is given, once,
and scores that stack at x_hat and at the candidates.  Sharpness runs
its restarts as rows: one ``models.vjp_stack`` call per step for all
restarts, and one last scoring pass; x_hat's own risk is row 0 of the
first pass.

The discrepancy between surrogate and target is measured only over a
candidate set of perturbed inputs whose surrogate risk stays below a
threshold r (the localized low-loss region the attack actually explores);
growing r can only grow the estimate.  Three divergences are supported:

  tv    sup over candidates of |target mean - surrogate mean|
  kl    sup over candidates and a t-grid of t*E_T - log E_S exp(t*loss)
  chi2  sup over candidates of (mean gap)^2 / Var_S, the closed-form
        optimum of t*gap - t^2/4 * Var_S

Each estimator scores all candidates in one pass: the candidates'
surrogate and target loss vectors become one (C, n_s) and one (C, n_t)
row matrix per sample-size pair, each sorted once along its rows, and
kl's grid search runs over every (candidate, t) pair at once.  Every
candidate's value equals scoring it alone bit for bit, and the supremum
is folded in candidate order as a loop over candidates would.

The mean-removed generator k_s(t) controls which coefficient pairs
(c1, c2) make the localized bound valid: the condition is
k_s(c1) <= c1 * c2 * E_S[loss].  For kl a data-free sufficient threshold
is (e^{c1} - 1 - c1)/c1; for chi2 it is (c1/4) * Var/E; tv needs only
0 < c1 <= 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import models as M
from .forge import SurrogateEnsemble

log = logging.getLogger(__name__)

PHIS = ("tv", "kl", "chi2")

VAR_FLOOR = 1e-12

BOUND_COLUMNS = "phi,r,c1,c2,sharpness,d_hat,k_s,eps_pac,assembled,realized_target_risk"


class InfeasibleError(ValueError):
    """The requested (c1, c2) pair violates the bound's validity condition."""


# ---------------------------------------------------------------------------
# loss profiles
# ---------------------------------------------------------------------------


@dataclass
class LossProfile:
    """Bounded losses of one input across an ensemble, by component."""

    losses_by_component: list

    @property
    def all_losses(self) -> np.ndarray:
        return np.concatenate(self.losses_by_component)

    @property
    def surrogate_risk(self) -> float:
        # equal weight per component
        return float(np.mean([float(np.mean(c)) for c in self.losses_by_component]))


def profile(x_hat: np.ndarray, ensemble: SurrogateEnsemble,
            label: int) -> LossProfile:
    losses = M.loss_matrix(ensemble.stack, x_hat[None], M.bounded_error(label))
    return LossProfile(list(losses.reshape(ensemble.num_components, -1)))


# ---------------------------------------------------------------------------
# candidate sets
# ---------------------------------------------------------------------------


@dataclass
class CandidateSetXr:
    """Perturbed inputs with surrogate risk at most r within the
    gamma-ball around x, and the surrogate members' bounded losses there,
    one column per candidate, as the filter pass scored them."""

    candidates: np.ndarray  # (C, d), one row per kept candidate
    losses: np.ndarray

    @classmethod
    def build(cls, pool: Sequence[np.ndarray], ensemble: SurrogateEnsemble,
              label: int, r: float, x: np.ndarray,
              gamma: float) -> "CandidateSetXr":
        pts = np.asarray(pool, dtype=np.float64)
        if pts.size != len(pool) * x.size:
            raise ValueError(f"pool must hold {x.size}-wide points, got {pts.shape}")
        pts = pts.reshape(len(pool), x.size)
        pts = pts[np.max(np.abs(pts - x), axis=1) <= gamma + 1e-12]
        losses = M.loss_matrix(ensemble.stack, pts, M.bounded_error(label))
        keep = losses.mean(axis=0) <= r
        return cls(candidates=pts[keep], losses=losses[:, keep])


def candidate_losses(cands: CandidateSetXr, targets: M.MemberStack,
                     label: int):
    """Per-candidate surrogate and target bounded-loss vectors; only the
    target stack is scored here."""
    t_mat = M.loss_matrix(targets, cands.candidates, M.bounded_error(label))
    return list(cands.losses.T), list(t_mat.T)


# ---------------------------------------------------------------------------
# divergence estimators
# ---------------------------------------------------------------------------


def default_t_grid(lo: float = 1e-3, hi: float = 50.0,
                   points_per_sign: int = 1000) -> np.ndarray:
    """Symmetric log-spaced grid through zero (2 * points_per_sign + 1)."""
    mags = np.logspace(math.log10(lo), math.log10(hi), points_per_sign)
    return np.concatenate([-mags[::-1], [0.0], mags])


def _check_grid(t_grid: np.ndarray) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t grid must be a nonempty vector")
    if not np.isfinite(t_grid).all():
        raise ValueError("t grid must be finite")
    if not np.any(t_grid == 0.0):
        raise ValueError("t grid must contain 0")
    return t_grid


def _smean(values: np.ndarray) -> np.ndarray:
    """Mean over sorted samples along the last axis: invariant under
    permutation of the samples, so profiles that agree as multisets
    produce exactly equal means.  Each row of a (C, n) matrix gets the
    mean of that row alone, bit for bit."""
    return np.mean(np.sort(np.asarray(values, dtype=np.float64), axis=-1), axis=-1)


def _per_candidate(s_losses, t_losses, score) -> list:
    """``score(S, T)`` of every candidate, in candidate order, as Python
    floats.  Candidates are grouped by their (surrogate, target) sample
    sizes, and each group is scored once, on its (C, n_s) and (C, n_t)
    row matrices; the loss lists of one bound make one group."""
    _check_pairs(s_losses, t_losses)
    by_size = {}
    for i, (s, t) in enumerate(zip(s_losses, t_losses)):
        by_size.setdefault((len(s), len(t)), []).append(i)
    out = np.empty(len(s_losses))
    for idx in by_size.values():
        S = np.array([s_losses[i] for i in idx], dtype=np.float64)
        T = np.array([t_losses[i] for i in idx], dtype=np.float64)
        out[idx] = score(S, T)
    return out.tolist()


def d_tv(s_losses: Sequence[np.ndarray], t_losses: Sequence[np.ndarray]) -> float:
    """Exact total-variation discrepancy: sup of |mean gap| over candidates."""
    gaps = _per_candidate(s_losses, t_losses,
                          lambda S, T: np.abs(_smean(T) - _smean(S)))
    return max(gaps) if gaps else 0.0


# coarse stride of the d_kl search; the search also keeps the last point
KL_STRIDE = 16
# (candidate, t, sample) elements the d_kl search evaluates at once
KL_CHUNK = 2 ** 14


def _kl_objective(t: np.ndarray, s: np.ndarray, mean_t) -> np.ndarray:
    """t * E_T - log E_S exp(t * s) at each entry of t, with the samples s
    along their last axis and t and mean_t matching s's other axes.  Each
    entry is its own row of the generator, so any subset of a grid, for
    any set of candidates, gets the same values bit for bit."""
    e = t[..., None] * s
    return t * mean_t - np.log(np.mean(np.exp(e, out=e), axis=-1))


def _kl_pairs(t: np.ndarray, cand: np.ndarray, S: np.ndarray,
              mean_t: np.ndarray) -> np.ndarray:
    """``_kl_objective`` at the flat pairs (t[i], candidate cand[i]) of the
    rows S, KL_CHUNK elements at a time."""
    step = max(1, KL_CHUNK // S.shape[1])
    return np.concatenate([
        _kl_objective(t[i : i + step], S[cand[i : i + step]],
                      mean_t[cand[i : i + step]])
        for i in range(0, cand.size, step)])


def _kl_search(grid: np.ndarray, S: np.ndarray, mean_t: np.ndarray) -> np.ndarray:
    """Max of ``_kl_objective`` over a sorted grid for each candidate (row
    of S, with its target mean), evaluating only part of the grid.

    The objective is concave in t (a cumulant generating function is
    convex), so its true values on the grid rise to one peak and fall.
    The coarse pass evaluates every KL_STRIDE-th point and the last one;
    the peak lies between the neighbours of the coarse argmax, and the
    fine pass evaluates every grid point from one neighbour to the other.
    Computed values carry rounding error of at most ``noise``.  A coarse
    interval whose two ends both read more than 2 * noise below the
    coarse max holds no point that can beat it (by concavity); the fine
    pass evaluates every grid point from the first interval not ruled out
    to the last, where no point is NaN if the coarse values are finite.
    So the result is the full-grid max bit for bit, and on a clear peak
    only the two intervals next to the coarse argmax are evaluated.  A
    non-finite coarse value falls back to the full grid.

    Both passes run over all candidates at once: the coarse pass over
    every (candidate, coarse point) pair, the fine pass over each
    candidate's own points, gathered flat and reduced per candidate.
    """
    C, n = S.shape[0], grid.size
    coarse = np.append(np.arange(0, n - 1, KL_STRIDE), n - 1)
    cand = np.repeat(np.arange(C), coarse.size)
    vals = _kl_pairs(np.tile(grid[coarse], C), cand, S, mean_t).reshape(C, -1)
    # a generous bound on the rounding of t*m, exp, the mean and log
    noise = 8 * np.finfo(np.float64).eps * (
        np.max(np.abs(grid)) * (np.abs(mean_t) + np.max(np.abs(S), axis=1))
        + S.shape[1] + 8)
    # a candidate with a non-finite coarse value or noise takes the full grid
    finite = np.isfinite(vals).all(axis=1) & np.isfinite(noise)
    near = np.ones_like(vals, dtype=bool)
    top = vals[finite].max(axis=1) - 2 * noise[finite]
    near[finite] = vals[finite] >= top[:, None]
    # coarse point j covers the segments on both sides of it; every
    # candidate covers at least one, and its fine interval runs from the
    # first covered segment to the last
    if coarse.size == 1:
        covered, seg_lo, seg_hi = near, coarse, coarse
    else:
        covered, seg_lo, seg_hi = near[:, :-1] | near[:, 1:], coarse[:-1], coarse[1:]
    lo = seg_lo[np.argmax(covered, axis=1)]
    size = seg_hi[-1 - np.argmax(covered[:, ::-1], axis=1)] - lo + 1
    start = np.cumsum(size) - size
    idx = np.arange(size.sum()) - np.repeat(start - lo, size)
    fine = _kl_pairs(grid[idx], np.repeat(np.arange(C), size), S, mean_t)
    return np.maximum.reduceat(fine, start)


def d_kl(s_losses: Sequence[np.ndarray], t_losses: Sequence[np.ndarray],
         t_grid: Optional[np.ndarray] = None) -> float:
    """Grid supremum of t * E_T[loss] - log E_S[exp(t * loss)], equal bit
    for bit to evaluating the whole grid (the full-grid oracle in
    ``tests/test_bounds.py``) but found by a concave search over the
    sorted grid (``_kl_search``) for all candidates at once.

    Nonnegative because the grid contains t = 0.
    """
    t_grid = np.sort(_check_grid(default_t_grid() if t_grid is None else t_grid))
    sups = _per_candidate(s_losses, t_losses,
                          lambda S, T: _kl_search(t_grid, S, _smean(T)))
    # Python's max in candidate order, as the loop folded: NaN never wins
    return max([0.0, *sups])


def _chi2_scores(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """gap^2 / Var_S per candidate; a degenerate spread scores +inf with a
    nonzero gap and 0 without one."""
    delta = _smean(T) - _smean(S)
    var = np.var(S, axis=1)
    # not `var >= VAR_FLOOR`: a NaN variance scores NaN, which the fold skips
    spread = ~(var < VAR_FLOOR)
    out = np.where(delta != 0.0, math.inf, 0.0)
    out[spread] = delta[spread] * delta[spread] / var[spread]
    return out


def d_chi2(s_losses: Sequence[np.ndarray], t_losses: Sequence[np.ndarray]) -> float:
    """Closed-form chi-square discrepancy: sup of gap^2 / Var_S.

    Degenerate surrogate spread (variance below 1e-12) with a nonzero mean
    gap yields +inf; with a zero gap the candidate contributes 0.
    """
    return max([0.0, *_per_candidate(s_losses, t_losses, _chi2_scores)])


def _check_pairs(s_losses, t_losses):
    if len(s_losses) != len(t_losses):
        raise ValueError("surrogate and target candidate lists differ in length")
    for s, t in zip(s_losses, t_losses):
        if len(s) == 0 or len(t) == 0:
            raise ValueError("loss samples must be nonempty for every candidate")


# ---------------------------------------------------------------------------
# generator, feasibility, auxiliary identities
# ---------------------------------------------------------------------------


def k_s(t: float, losses: np.ndarray, phi: str) -> float:
    """Mean-removed generator of the surrogate loss distribution.

    kl:   log E[exp(t*loss)] - t*E[loss]   (the centered cgf)
    chi2: t^2/4 * Var(loss)
    tv:   identically 0 under the |t| <= 1 restriction
    """
    if phi not in PHIS:
        raise ValueError(f"unknown phi {phi!r}")
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        raise ValueError("loss sample must be nonempty")
    if phi == "tv":
        return 0.0
    if phi == "kl":
        return float(np.log(np.mean(np.exp(t * losses))) - t * np.mean(losses))
    return float(t * t / 4.0 * np.var(losses))


# per-phi (c1, c2) defaults, each feasible for any loss in [0, 1]
PHI_DEFAULTS = {"tv": (1.0, 0.0), "kl": (1.2564, 1.0), "chi2": (1.0, 0.25)}


@dataclass
class FeasibilityCheck:
    feasible: bool
    margin: float
    threshold: float
    condition: str


def feasibility(c1: float, c2: float, losses: np.ndarray,
                phi: str) -> FeasibilityCheck:
    """Is (c1, c2) admissible for the localized bound with this phi?

    Returns the data threshold that c2 must clear and the margin
    c2 - threshold (negative margin means infeasible).
    """
    if phi not in PHIS:
        raise ValueError(f"unknown phi {phi!r}")
    M.check_real("c1", c1, 0, above=True)
    M.check_real("c2", c2)
    losses = np.asarray(losses, dtype=np.float64)
    if phi == "tv":
        threshold = 0.0
        ok = c1 <= 1.0 and c2 >= 0.0
        return FeasibilityCheck(ok, c2 - threshold, threshold,
                                "tv needs 0 < c1 <= 1 and c2 >= 0")
    if phi == "kl":
        threshold = (math.exp(c1) - 1.0 - c1) / c1
        return FeasibilityCheck(c2 >= threshold, c2 - threshold, threshold,
                                "kl needs c2 >= (e^c1 - 1 - c1)/c1")
    mean = float(np.mean(losses)) if losses.size else 0.0
    var = float(np.var(losses)) if losses.size else 0.0
    if mean < VAR_FLOOR:
        threshold = 0.0 if var < VAR_FLOOR else math.inf
    else:
        threshold = (c1 / 4.0) * var / mean
    margin = c2 - threshold if math.isfinite(threshold) else -math.inf
    return FeasibilityCheck(c2 >= threshold, margin, threshold,
                            "chi2 needs c2 >= (c1/4) * Var/E of surrogate loss")


def require_feasible(cfg: "BoundConfig", losses) -> FeasibilityCheck:
    """``feasibility`` of cfg's (c1, c2) at these losses, raising
    InfeasibleError when it fails."""
    feas = feasibility(cfg.c1, cfg.c2, losses, cfg.phi)
    if not feas.feasible:
        raise InfeasibleError(
            f"(c1={cfg.c1:g}, c2={cfg.c2:g}) is infeasible: {feas.condition} "
            f"(threshold {feas.threshold:g})")
    return feas


@dataclass
class VarianceSplit:
    between: float
    within: float
    total: float


def variance_decomposition(prof: LossProfile) -> VarianceSplit:
    """Split the equal-weight mixture variance into between-component and
    mean within-component parts; total is computed independently so the
    mixture identity between + within = total stays a real check."""
    comps = [np.asarray(c, dtype=np.float64) for c in prof.losses_by_component]
    if not comps:
        raise ValueError("profile has no components")
    means = np.array([c.mean() for c in comps])
    grand = float(means.mean())
    between = float(np.var(means))
    within = float(np.mean([c.var() for c in comps]))
    total = float(np.mean([np.mean(c * c) for c in comps]) - grand * grand)
    return VarianceSplit(between, within, total)


def eps_pac(d: int, K: int, gamma: float, rho: float, delta: float,
            r: float) -> float:
    """Statistical slack of the K-snapshot posterior certificate.

    Decreases in K and in rho (for gamma > 0); the gamma = 0 case drops
    the geometry term entirely.
    """
    M.check_count("d", d, 1)
    M.check_count("K", K, 2)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    M.check_real("rho", rho, 0, above=True)
    M.check_real("gamma", gamma, 0)
    M.check_real("r", r, 0)
    logK = math.log(K)
    geometry = (d / 2.0) * math.log1p(
        (gamma * gamma / (rho * rho)) * (1.0 + math.sqrt(logK / d)) ** 2)
    residual = 0.5 + 2.0 * math.log(
        2.0 + 3.0 * d + 6.0 * r * r * K
        + 4.0 * d * math.log(math.sqrt(d) + math.sqrt(logK)))
    return math.sqrt((geometry + math.log(K / delta) + residual)
                     / (2.0 * (K - 1)))


# ---------------------------------------------------------------------------
# sharpness
# ---------------------------------------------------------------------------


def sharpness(x_hat: np.ndarray, ensemble: SurrogateEnsemble, label: int,
              rho: float, steps: int = 20, restarts: int = 3,
              seed: int = 0) -> float:
    """max over ||eps||_2 <= rho of R(x_hat + eps) - R(x_hat), estimated by
    projected gradient ascent with random restarts.

    The zero perturbation is always a candidate, so the result is >= 0.
    Every pass scores ``ensemble.stack``, grouped when the ensemble was
    made.  The restarts run in lockstep as (R, 1, d) rows: ``steps + 1``
    ``models.vjp_stack`` calls, each giving every row's risk and, on all
    but the last, one gradient call per member per row, from one softmax.
    Row 0 starts at x_hat, so row 0 of the first pass is R(x_hat).  A row
    stops, and leaves the later passes, when its gradient vanishes.  Each
    row equals a one-restart run bit for bit.
    """
    M.check_real("rho", rho, 0)
    M.check_count("steps", steps, 0)
    M.check_count("restarts", restarts, 0)
    if rho == 0 or restarts == 0:
        return 0.0
    kind = M.bounded_error(label)
    rng = np.random.default_rng(seed)
    d = x_hat.size
    # row 0 starts at x_hat; the others at a uniform draw from the ball
    eps = np.zeros((restarts, d))
    for i in range(1, restarts):
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        eps[i] = u * rho * rng.uniform() ** (1.0 / d)
    live = np.arange(restarts)
    for step in range(steps + 1):
        if live.size == 0:
            break
        logits, pullback = M.vjp_stack(ensemble.stack, (x_hat + eps[live])[:, None])
        lse = M._logsumexp(logits)
        # each row's risk is a member mean over one contiguous run, as for a
        # one-point loss column; Python's max keeps best at a NaN risk
        losses = M.loss_from_logits(logits, kind, lse)[..., 0]
        risks = np.ascontiguousarray(losses.T).mean(axis=1)
        if step == 0:
            base = best = float(risks[0])
        for v in risks:
            best = max(best, float(v))
        if step == steps:
            break
        g = np.mean(pullback(M.dloss_dlogits(logits, kind, lse))[:, :, 0], axis=0)
        norm = M._l2_rows(g)
        # not `norm >= 1e-15`: a NaN norm keeps its row moving
        moving = ~(norm[:, 0] < 1e-15)
        live, g, norm = live[moving], g[moving], norm[moving]
        moved = eps[live] + 2.0 * rho / steps * g / norm
        scale = M._l2_rows(moved)[:, 0]
        out = scale > rho
        moved[out] = moved[out] * (rho / scale[out])[:, None]
        eps[live] = moved
    return best - base


# ---------------------------------------------------------------------------
# bound assembly
# ---------------------------------------------------------------------------


@dataclass
class BoundConfig:
    """Bound settings; c1 and c2 left unset take ``PHI_DEFAULTS[phi]``."""

    phi: str = "chi2"
    c1: Optional[float] = None
    c2: Optional[float] = None
    rho: float = 0.05
    delta: float = 0.05

    def __post_init__(self):
        if self.phi not in PHIS:
            raise ValueError(f"unknown phi {self.phi!r}")
        c1, c2 = PHI_DEFAULTS[self.phi]
        self.c1 = c1 if self.c1 is None else self.c1
        self.c2 = c2 if self.c2 is None else self.c2
        M.check_real("c1", self.c1, 0, above=True)
        M.check_real("c2", self.c2)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        M.check_real("rho", self.rho, 0, above=True)


@dataclass
class BoundReport:
    phi: str
    r: float
    c1: float
    c2: float
    empirical_risk: float
    sharpness: float
    d_hat: float
    k_s_at_c1: float
    eps_pac: float
    assembled: float
    realized_target_risk: float
    feasible_margin: float
    num_candidates: int
    in_localized_space: bool

    def csv_row(self) -> str:
        return ",".join([self.phi, *(f"{v:.17g}" for v in (
            self.r, self.c1, self.c2, self.sharpness, self.d_hat,
            self.k_s_at_c1, self.eps_pac, self.assembled,
            self.realized_target_risk))])


# random points drawn around x into each candidate pool, next to x_hat
N_CANDIDATES = 64


def assemble_bound(x_hat: np.ndarray, x: np.ndarray, gamma: float,
                   ensemble: SurrogateEnsemble,
                   target_models: Sequence[M.Weights], label: int,
                   cfg: BoundConfig, r: float, seed: int = 0,
                   sharpness_steps: int = 20,
                   sharpness_restarts: int = 3) -> BoundReport:
    """Evaluate every term of the transfer bound at one adversarial example.

    assembled = (risk + sharpness) + d_hat / c1 + c2 * r + eps_pac

    The target list is grouped once here, and that stack gives both the
    realized target risk at x_hat and the candidates' target losses.
    Raises InfeasibleError when (c1, c2) violates the validity condition
    for the chosen phi.  The realized target risk is recorded alongside
    and soft-checked against the assembled value (a warning, not an
    error: the certificate holds with probability 1 - delta).
    """
    M.check_real("gamma", gamma, 0)
    M.check_real("r", r, 0)
    M.check_count("sharpness_steps", sharpness_steps, 0)
    M.check_count("sharpness_restarts", sharpness_restarts, 0)
    if np.shape(x) != np.shape(x_hat):
        raise ValueError(f"x has shape {np.shape(x)}, x_hat has shape {np.shape(x_hat)}")
    if not (np.isfinite(x_hat).all() and np.isfinite(x).all()):
        raise ValueError("x_hat or x holds non-finite values")
    targets = M.member_stack(target_models)
    prof = profile(x_hat, ensemble, label)
    losses_here = prof.all_losses
    feas = require_feasible(cfg, losses_here)

    # one (N, d) draw gives the numbers of N draws of d, in their order
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-gamma, gamma, size=(N_CANDIDATES, x.size))
    pool = np.vstack([x_hat[None], np.clip(x + draws, 0.0, 1.0)])
    candidates = CandidateSetXr.build(pool, ensemble, label, r,
                                      x=x, gamma=gamma)

    s_losses, t_losses = candidate_losses(candidates, targets, label)
    if cfg.phi == "tv":
        d_hat = d_tv(s_losses, t_losses)
    elif cfg.phi == "kl":
        grid = np.unique(np.concatenate([default_t_grid(), [0.0, cfg.c1, -cfg.c1]]))
        d_hat = d_kl(s_losses, t_losses, grid)
    else:
        d_hat = d_chi2(s_losses, t_losses)

    sharp = sharpness(x_hat, ensemble, label, cfg.rho, steps=sharpness_steps,
                      restarts=sharpness_restarts, seed=seed)
    risk = prof.surrogate_risk
    slack = eps_pac(d=x_hat.size, K=ensemble.size, gamma=gamma, rho=cfg.rho,
                    delta=cfg.delta, r=r)
    assembled = (risk + sharp) + d_hat / cfg.c1 + cfg.c2 * r + slack
    realized = float(np.mean(
        M.loss_matrix(targets, x_hat[None], M.bounded_error(label))[:, 0]))
    in_space = risk <= r + 1e-12
    if not in_space:
        log.warning("surrogate risk %.4f exceeds the localization threshold "
                    "r=%.4f; the bound's precondition fails here", risk, r)
    if realized > assembled + 1e-9:
        log.warning("realized target risk %.4f exceeds the assembled bound "
                    "%.4f", realized, assembled)
    return BoundReport(
        phi=cfg.phi, r=r, c1=cfg.c1, c2=cfg.c2,
        empirical_risk=risk, sharpness=sharp, d_hat=d_hat,
        k_s_at_c1=k_s(cfg.c1, losses_here, cfg.phi),
        eps_pac=slack, assembled=assembled,
        realized_target_risk=realized,
        feasible_margin=feas.margin,
        num_candidates=len(candidates.candidates),
        in_localized_space=in_space,
    )
