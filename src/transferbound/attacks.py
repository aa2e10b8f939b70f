"""Transfer attack runners over snapshot ensembles.

All methods share the minimization framing: the attack objective is the
negative cross-entropy of the true class (untargeted) or the cross-entropy
of the target class (targeted), and every outer update descends it inside
the L-infinity budget intersected with the unit box.  The reverse
("inner") perturbations ascend the same objective, probing how bad the
loss can get near the current iterate before the outer step commits.

Every method is one instance of a single step loop (``run_attack``); the
per-method plan picks the models of each step, the objective, whether a
reverse ascent runs from the late start on, and the update rule.

Query accounting: one unit is one input-gradient computation on one model.
Every run predicts its own total from the cost model up front and verifies
the realized count against it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import models as M

METHODS = ("ifgsm", "mifgsm", "rap", "flat_rap", "flat_cwa", "drap")

MOMENTUM_NORM_FLOOR = 1e-12

TRACE_COLUMNS = "iter,component,snapshot,loss_pre,loss_post,grad_calls"


class NumericError(RuntimeError):
    """An attack run produced non-finite numbers or broke its accounting."""


@dataclass
class AttackConfig:
    """Shared knobs for every attack method.

    beta_eps is the inner (reverse) step size; for flat_cwa it is the
    radius of the single reverse step (the usual choice is gamma / 15) and
    micro_step is the per-model update scale (the usual choice is 50).
    The implied reverse-perturbation radius in the infinity norm is
    inner_T * beta_eps.
    """

    gamma: float = 4 / 255
    beta_x: float = 2 / 255
    beta_eps: float = 0.1 / 255
    inner_T: int = 5
    n_ls: int = 5
    mu: float = 1.0
    targeted: bool = False
    method: str = "drap"
    n_iter: Optional[int] = None
    seed: int = 0
    schedule_mode: str = "trajectory"
    micro_step: float = 50.0
    record_trace: bool = True
    keep_iterates: bool = False

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.beta_x <= 0:
            raise ValueError("beta_x must be > 0")
        if self.beta_eps < 0:
            raise ValueError("beta_eps must be >= 0")
        if self.inner_T < 0:
            raise ValueError("inner_T must be >= 0")
        if self.n_ls < 0:
            raise ValueError("n_ls must be >= 0")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.schedule_mode not in ("trajectory", "random"):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")

    @property
    def rho_inf(self) -> float:
        return self.inner_T * self.beta_eps


@dataclass
class TraceRow:
    iter: int
    component: int
    snapshot: int
    loss_pre: float
    loss_post: float
    grad_calls: int


@dataclass
class AttackState:
    x: np.ndarray
    label: int
    targeted: bool
    method: str
    x_hat: np.ndarray = None
    m: np.ndarray = None
    grad_calls: int = 0
    predicted_grad_calls: int = 0
    trace: Optional[list] = None
    iterates: Optional[list] = None


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def project(x_hat: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """Clamp into the gamma-infinity ball around x intersected with [0,1]^d."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    lo = np.maximum(x - gamma, 0.0)
    hi = np.minimum(x + gamma, 1.0)
    return np.clip(x_hat, lo, hi)


def momentum_step(m: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    """m' = mu * m + g / ||g||_1, with the normalized term zeroed for
    vanishing gradients."""
    l1 = float(np.abs(g).sum())
    if l1 < MOMENTUM_NORM_FLOOR:
        return mu * m
    return mu * m + g / l1


def attack_loss_kind(targeted: bool, label: int) -> M.LossKind:
    if targeted:
        return M.targeted_cross_entropy(label)
    return M.neg_cross_entropy(label)


def _grad(w, z, kind, where):
    g = M.input_gradient(w, z, kind)
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient at {where}")
    return g


def fused_loss_and_grad(models: Sequence[M.Weights], x: np.ndarray,
                        kind: M.LossKind):
    """Loss of the averaged logits and its input gradient.

    Consumes one gradient call per model: each per-model chain contribution
    is a separate backward pass.
    """
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
        raise NumericError("non-finite fused gradient")
    return value, g


def _objective_grad(batch, z, kind, fused, where) -> np.ndarray:
    """Input gradient of the step objective: the fused-logit loss, or the
    per-model loss average (a single model's own gradient for a batch of
    one).  One gradient call per model."""
    if fused:
        return fused_loss_and_grad(batch, z, kind)[1]
    g = _grad(batch[0], z, kind, where)
    for w in batch[1:]:
        g = g + _grad(w, z, kind, where)
    return g / len(batch)


def _objective(batch, z, kind, fused) -> float:
    """Value of the step objective (forwards only, no gradient calls)."""
    if fused:
        return float(M.loss_from_logits(
            np.mean([M.forward(w, z) for w in batch], axis=0), kind))
    return float(np.mean(M.loss_matrix(batch, z[None], kind)))


def _ascend(x_hat, batch, kind, fused, cfg) -> np.ndarray:
    """inner_T sign-ascent steps of the objective from x_hat; returns eps.

    No projection is applied: ||eps||_inf <= inner_T * beta_eps holds by
    construction.
    """
    eps = np.zeros_like(x_hat)
    for t in range(cfg.inner_T):
        g = _objective_grad(batch, x_hat + eps, kind, fused, f"inner step {t}")
        eps = eps + cfg.beta_eps * np.sign(g)
    return eps


def inner_max_per_model(x_hat: np.ndarray, w: M.Weights, kind: M.LossKind,
                        cfg: AttackConfig) -> np.ndarray:
    """T sign-ascent steps on one model; consumes exactly T gradient calls."""
    return _ascend(x_hat, [w], kind, False, cfg)


def inner_max_global(x_hat: np.ndarray, batch: Sequence[M.Weights],
                     kind: M.LossKind, cfg: AttackConfig) -> np.ndarray:
    """T sign-ascent steps on the fused (logit-averaged) objective;
    consumes inner_T * len(batch) gradient calls."""
    if len(batch) == 0:
        raise ValueError("empty model batch")
    return _ascend(x_hat, batch, kind, True, cfg)


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def predict_ngrad(method: str, n_iter: int, num_components: int,
                  T: Optional[int] = None,
                  late_start: Optional[int] = None) -> int:
    """Exact gradient-call count for one attack run.

    ``late_start=None`` applies the standard schedule: RAP-family methods
    switch their inner loop on after iteration 50 (never, for runs of at
    most 50 iterations); the per-model method keeps n_ls = 5 component
    epochs unless the run is so short (n_iter / I <= 5) that the inner
    loop never starts.
    """
    method = method.lower()
    if n_iter < 0 or num_components < 1:
        raise ValueError("need n_iter >= 0 and num_components >= 1")
    I = num_components
    if method in ("ifgsm", "mifgsm", "mi", "pi"):
        return n_iter * I
    if method in ("flat_cwa", "cwa"):
        return n_iter * 2 * I
    if method in ("rap", "flat_rap"):
        T = 10 if T is None else T
        ls = late_start if late_start is not None else (0 if n_iter <= 50 else 50)
        return min(n_iter, ls) * I + max(0, n_iter - ls) * (T + 1) * I
    if method == "drap":
        T = 5 if T is None else T
        ls = late_start if late_start is not None else (0 if n_iter / I <= 5 else 5)
        threshold = ls * I
        if n_iter < threshold:
            return n_iter
        return threshold + (n_iter - threshold) * (T + 1)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# the step loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """How one method instantiates the step loop.

    models:  "snapshot" (one scheduled snapshot per step, I * n steps),
             "list" (the fixed model list every step, n_iter steps) or
             "components" (one snapshot per component, n_iter steps);
    fused:   the objective is the loss of the averaged logits, otherwise
             the average of the per-model losses;
    reverse: from the late start on, ascend the objective for inner_T sign
             steps and take the outer gradient at the shifted point;
    update:  "sign", "momentum" (L1-normalized) or "cwa" (a reverse step,
             then L2-momentum micro-steps through the batch).
    """

    models: str
    fused: bool
    reverse: bool
    update: str


_PLANS = {
    "ifgsm": _Plan("snapshot", False, False, "sign"),
    "mifgsm": _Plan("snapshot", False, False, "momentum"),
    "drap": _Plan("snapshot", False, True, "momentum"),
    "rap": _Plan("list", False, True, "sign"),
    "flat_rap": _Plan("components", True, True, "momentum"),
    "flat_cwa": _Plan("components", True, False, "cwa"),
}


def _start(x, label, targeted, method, cfg) -> AttackState:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("attacks operate on single examples")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("benign input must lie in [0,1]^d")
    state = AttackState(x=x, label=int(label), targeted=targeted, method=method)
    state.x_hat = project(x.copy(), x, cfg.gamma)
    state.m = np.zeros_like(x)
    state.trace = [] if cfg.record_trace else None
    state.iterates = [] if cfg.keep_iterates else None
    return state


def _finish(state, tally, predicted):
    state.grad_calls = tally.count
    state.predicted_grad_calls = predicted
    if state.grad_calls != predicted:
        raise NumericError(
            f"gradient-call accounting drifted: observed {state.grad_calls}, "
            f"cost model predicts {predicted}")
    if not np.all(np.isfinite(state.x_hat)):
        raise NumericError("non-finite adversarial example")
    return state


def _schedule(method, plan, ensemble, models, cfg):
    """Validate the run length.  Returns the cost-model prediction and the
    steps as (step, component, snapshot, batch, late) tuples; component and
    snapshot are -1 where a step does not use a single one."""
    if plan.models == "list":
        if len(models) == 0:
            raise ValueError("empty model batch")
        if cfg.n_iter is None:
            raise ValueError("this method needs an explicit n_iter")
        if cfg.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        predicted = predict_ngrad(method, cfg.n_iter, len(models),
                                  T=cfg.inner_T, late_start=cfg.n_ls)
        return predicted, ((it, -1, -1, models, it >= cfg.n_ls)
                           for it in range(cfg.n_iter))
    I, n = ensemble.num_components, ensemble.snapshots_per_component
    K = ensemble.size
    rng = np.random.default_rng(cfg.seed)

    def pick(j, i):
        return ensemble.schedule(j, i, mode=cfg.schedule_mode, rng=rng)

    if plan.models == "components":
        n_iter = cfg.n_iter if cfg.n_iter is not None else K
        if n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        predicted = predict_ngrad(method, n_iter, I, T=cfg.inner_T,
                                  late_start=cfg.n_ls)
        return predicted, ((it, -1, it % n, [pick(it % n, i) for i in range(I)],
                            it >= cfg.n_ls) for it in range(n_iter))
    if cfg.n_iter is not None and cfg.n_iter != K:
        if plan.reverse:
            raise ValueError(
                f"this attack consumes the ensemble exactly once: n_iter must "
                f"be {K} (= I * n), got {cfg.n_iter}")
        raise ValueError(
            f"an ensemble sweep visits every snapshot once: n_iter must be "
            f"{K}, got {cfg.n_iter}")
    if plan.reverse and cfg.n_ls > n:
        raise ValueError(f"n_ls {cfg.n_ls} exceeds snapshots per component {n}")
    # the cost model counts drap in single-model steps and the sweeps in
    # component epochs of I models; the late start is in component epochs
    predicted = predict_ngrad(method, K if plan.reverse else n, I,
                              T=cfg.inner_T, late_start=cfg.n_ls)
    return predicted, ((j * I + i, i, j, [pick(j, i)], j >= cfg.n_ls)
                       for j in range(n) for i in range(I))


def _cwa_step(state, batch, kind, cfg, it) -> np.ndarray:
    """One fused ascent step of radius beta_eps from the iterate, then
    L2-normalized momentum micro-updates of scale micro_step through the
    batch; returns the iterate moved by a sign step along the net
    displacement."""
    _, g = fused_loss_and_grad(batch, state.x_hat, kind)
    cur = project(state.x_hat + cfg.beta_eps * np.sign(g), state.x, cfg.gamma)
    for w in batch:
        g = _grad(w, cur, kind, f"micro step at iteration {it}")
        l2 = float(np.linalg.norm(g))
        if l2 < MOMENTUM_NORM_FLOOR:
            state.m = cfg.mu * state.m
        else:
            state.m = cfg.mu * state.m + g / l2
        cur = project(cur - cfg.micro_step * state.m, state.x, cfg.gamma)
        if state.iterates is not None:
            state.iterates.append(cur.copy())
    net = cur - state.x_hat
    return project(state.x_hat + cfg.beta_x * np.sign(net), state.x, cfg.gamma)


def run_attack(x, label, ensemble, cfg: AttackConfig,
               models: Optional[Sequence[M.Weights]] = None) -> AttackState:
    """Run cfg.method on one example as an instance of the step loop.

    Each step takes a model batch from the method's plan, optionally
    shifts the iterate by a reverse (flatness) ascent of the objective
    from the late start on, and descends the objective inside the
    gamma-ball intersected with the unit box.  rap attacks the explicit
    model list, else the ensemble prototypes; ifgsm and mifgsm attack the
    explicit list when one is given, else sweep the ensemble schedule.
    """
    method = cfg.method
    plan = _PLANS[method]
    if method == "rap":
        models = models if models is not None else ensemble.pretrained
        if not models:
            raise ValueError("rap needs a model batch (or ensemble prototypes)")
    elif method in ("ifgsm", "mifgsm") and models is not None:
        plan = replace(plan, models="list")
    predicted, steps = _schedule(method, plan, ensemble, models, cfg)
    kind = attack_loss_kind(cfg.targeted, label)
    state = _start(x, label, cfg.targeted, method, cfg)
    with M.GRAD_CALLS.scope() as tally:
        for step, comp, snap, batch, late in steps:
            if state.trace is not None:
                loss_pre = _objective(batch, state.x_hat, kind, plan.fused)
            if plan.update == "cwa":
                state.x_hat = _cwa_step(state, batch, kind, cfg, step)
            else:
                z = state.x_hat
                if plan.reverse and late and cfg.inner_T > 0:
                    z = z + _ascend(z, batch, kind, plan.fused, cfg)
                d = _objective_grad(batch, z, kind, plan.fused,
                                    f"outer step {step}")
                if plan.update == "momentum":
                    state.m = momentum_step(state.m, d, cfg.mu)
                    d = state.m
                state.x_hat = project(state.x_hat - cfg.beta_x * np.sign(d),
                                      state.x, cfg.gamma)
            if state.iterates is not None:
                state.iterates.append(state.x_hat.copy())
            if state.trace is not None:
                loss_post = _objective(batch, state.x_hat, kind, plan.fused)
                state.trace.append(TraceRow(step, comp, snap, loss_pre,
                                            loss_post, tally.count))
    return _finish(state, tally, predicted)


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------


def trace_to_csv(state: AttackState, cfg: AttackConfig) -> str:
    if state.trace is None:
        raise ValueError("run was configured without a trace")
    buf = io.StringIO()
    buf.write(
        f"# method={state.method} targeted={state.targeted} "
        f"gamma={cfg.gamma:.17g} beta_x={cfg.beta_x:.17g} "
        f"beta_eps={cfg.beta_eps:.17g} inner_T={cfg.inner_T} n_ls={cfg.n_ls} "
        f"mu={cfg.mu:.17g} micro_step={cfg.micro_step:.17g} seed={cfg.seed}\n")
    buf.write(TRACE_COLUMNS + "\n")
    for row in state.trace:
        buf.write(f"{row.iter},{row.component},{row.snapshot},"
                  f"{row.loss_pre:.17g},{row.loss_post:.17g},{row.grad_calls}\n")
    return buf.getvalue()


def write_trace(state: AttackState, cfg: AttackConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_csv(state, cfg))
