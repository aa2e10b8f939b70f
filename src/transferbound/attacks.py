"""Transfer attack runners over snapshot ensembles.

All methods share the minimization framing: the attack objective is the
negative cross-entropy of the true class (untargeted) or the cross-entropy
of the target class (targeted), and every outer update descends it inside
the L-infinity budget intersected with the unit box.  The reverse
("inner") perturbations ascend the same objective, probing how bad the
loss can get near the current iterate before the outer step commits.

Every method is one instance of a single step loop (``run_attack``); the
per-method plan picks the models of each step, the objective, whether a
reverse ascent runs from the late start on, and the update rule.  Each
step groups its model batch into one ``models.MemberStack`` (a fixed list
is grouped once per run), and each evaluation of the objective on it, its
gradient or its traced value, is one ``models.vjp_stack`` call.

One call attacks a (B, d) batch of examples, one label per row; one (d,)
example is a one-row batch.  The rows share the schedule and run through
the loop together, but are otherwise independent: the objectives evaluate
each row as its own point (``vjp_stack`` on (B, 1, d) rows), and the
momentum, its norm floors and the projection act per row.  So every
row's adversarial example equals that of a one-example run on it,
bitwise.  The trace follows row 0 alone, as one-point objective values.

Query accounting: one unit is one input-gradient computation on one model
at one example.  Every run predicts its own total from the cost model up
front, B times the per-example count, and verifies the realized count
against it.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import models as M
from .models import _l2_rows

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
        M.check_real("gamma", self.gamma, 0)
        M.check_real("beta_x", self.beta_x, 0, above=True)
        M.check_real("beta_eps", self.beta_eps, 0)
        M.check_count("inner_T", self.inner_T, 0)
        M.check_count("n_ls", self.n_ls, 0)
        if self.n_iter is not None:
            M.check_count("n_iter", self.n_iter, 1)
        M.check_count("seed", self.seed, 0)
        M.check_real("mu", self.mu, 0)
        M.check_real("micro_step", self.micro_step, 0, above=True)
        if not isinstance(self.targeted, bool):
            raise ValueError(f"targeted must be a bool, got {self.targeted!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.schedule_mode not in ("trajectory", "random"):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")


@dataclass
class TraceRow:
    """One step of row 0: the objective at its iterate before and after
    the step, and the gradient calls per example so far."""

    iter: int
    component: int
    snapshot: int
    loss_pre: float
    loss_post: float
    grad_calls: int


@dataclass
class AttackState:
    """A run on a batch (x of shape (B, d), a (B,) label array), or one
    example of it (x of shape (d,), an int label).  A batched run's
    gradient-call counts are totals over its examples, and its trace is
    row 0's; ``example`` splits it."""

    x: np.ndarray
    label: int | np.ndarray
    targeted: bool
    method: str
    x_hat: np.ndarray = None
    m: np.ndarray = None
    grad_calls: int = 0
    predicted_grad_calls: int = 0
    trace: Optional[list] = None
    iterates: Optional[list] = None

    def example(self, i: int) -> "AttackState":
        """Example i of a batched run as a one-example state, with the run's
        gradient-call counts divided by the batch size; row 0 keeps the
        trace, every other row has none."""
        B = len(self.x)
        return AttackState(
            x=self.x[i], label=int(self.label[i]), targeted=self.targeted,
            method=self.method, x_hat=self.x_hat[i], m=self.m[i],
            grad_calls=self.grad_calls // B,
            predicted_grad_calls=self.predicted_grad_calls // B,
            trace=self.trace if i == 0 else None,
            iterates=None if self.iterates is None
            else [it[i] for it in self.iterates])


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def project(x_hat: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """Clamp into the gamma-infinity ball around x intersected with [0,1]^d."""
    M.check_real("gamma", gamma, 0)
    lo = np.maximum(x - gamma, 0.0)
    hi = np.minimum(x + gamma, 1.0)
    return np.clip(x_hat, lo, hi)


def _momentum(m: np.ndarray, g: np.ndarray, mu: float,
              norm: np.ndarray) -> np.ndarray:
    """mu * m + g / norm per row of (..., d) arrays, with the normalized term
    dropped for rows whose (..., 1) norm vanishes."""
    out = mu * m
    live = ~(norm < MOMENTUM_NORM_FLOOR)
    step = np.divide(g, norm, out=np.zeros_like(g), where=live)
    return np.add(out, step, out=out, where=live)


def momentum_step(m: np.ndarray, g: np.ndarray, mu: float) -> np.ndarray:
    """m' = mu * m + g / ||g||_1 per row, with the normalized term zeroed
    for vanishing gradients."""
    return _momentum(m, g, mu, np.abs(g).sum(axis=-1, keepdims=True))


def attack_loss_kind(targeted: bool, label) -> M.LossKind:
    if targeted:
        return M.targeted_cross_entropy(label)
    return M.neg_cross_entropy(label)


def _objective_grad(stack, z, kind, fused) -> np.ndarray:
    """Input gradient of the step objective on a model batch's
    ``MemberStack`` at one point (d,) or at each row of a (B, d) batch:
    the loss of the averaged logits, or the average of the per-model
    losses (a single model's own gradient for a batch of one).  One
    ``vjp_stack`` call on the points as rows, one gradient call per model
    per row; the member gradients are summed in model order."""
    logits, pullback = M.vjp_stack(stack, z[..., None, :])
    if fused:
        dl = M.dloss_dlogits(logits.mean(axis=0), kind) / stack.size
        g = pullback(np.broadcast_to(dl, logits.shape)).sum(axis=0)
    else:
        g = pullback(M.dloss_dlogits(logits, kind)).sum(axis=0) / stack.size
    if not np.isfinite(g).all():
        raise NumericError("non-finite gradient of the step objective")
    return g[..., 0, :]


def _objective(stack, z, kind, fused) -> float:
    """Value of the step objective on a ``MemberStack`` at one point z
    (d,): forwards only, no gradient calls."""
    logits = M.vjp_stack(stack, z[None])[0]
    if fused:
        return float(M.loss_from_logits(logits.mean(axis=0), kind)[0])
    return float(M.loss_from_logits(logits, kind)[:, 0].mean())


def _ascend(x_hat, stack, kind, fused, cfg) -> np.ndarray:
    """inner_T sign-ascent steps of the objective on a ``MemberStack`` from
    x_hat (one point or a batch of rows); returns eps.

    No projection is applied: ||eps||_inf <= inner_T * beta_eps holds by
    construction.
    """
    eps = np.zeros_like(x_hat)
    for t in range(cfg.inner_T):
        g = _objective_grad(stack, x_hat + eps, kind, fused)
        eps = eps + cfg.beta_eps * np.sign(g)
    return eps


def inner_max_per_model(x_hat: np.ndarray, w: M.Weights, kind: M.LossKind,
                        cfg: AttackConfig) -> np.ndarray:
    """T sign-ascent steps on one model; consumes exactly T gradient calls."""
    return _ascend(x_hat, w.stack, kind, False, cfg)


def inner_max_global(x_hat: np.ndarray, batch: Sequence[M.Weights],
                     kind: M.LossKind, cfg: AttackConfig) -> np.ndarray:
    """T sign-ascent steps on the fused (logit-averaged) objective;
    consumes inner_T * len(batch) gradient calls."""
    return _ascend(x_hat, M.member_stack(batch), kind, True, cfg)


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
    M.check_count("n_iter", n_iter, 0)
    M.check_count("num_components", num_components, 1)
    for name, value in (("T", T), ("late_start", late_start)):
        if value is not None:
            M.check_count(name, value, 0)
    I = num_components
    if method in ("ifgsm", "mifgsm"):
        return n_iter * I
    if method == "flat_cwa":
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
             "list" (the fixed model list every step) or "components"
             (one snapshot per component), both n_iter steps, default I * n;
    fused:   the objective is the loss of the averaged logits, otherwise
             the average of the per-model losses;
    reverse: from the late start on, ascend the objective for inner_T sign
             steps and take the outer gradient at the shifted point;
    update:  "sign", "momentum" (L1-normalized) or "walk" (CWA's reverse
             step, then L2-momentum micro-steps through the batch).
    """

    models: str
    fused: bool
    reverse: bool
    update: str


_PLANS = {
    "ifgsm": _Plan("snapshot", False, False, "sign"),
    "mifgsm": _Plan("snapshot", False, False, "momentum"),
    "rap": _Plan("list", False, True, "sign"),
    "flat_rap": _Plan("components", True, True, "momentum"),
    "flat_cwa": _Plan("components", True, False, "walk"),
    "drap": _Plan("snapshot", False, True, "momentum"),
}
METHODS = tuple(_PLANS)


def _start(x, label, method, cfg) -> AttackState:
    """The state of a run on a (B, d) batch with a (B,) label array; one
    example (d,) with one label is a one-row batch."""
    x, label = np.asarray(x, dtype=np.float64), np.asarray(label)
    if x.ndim not in (1, 2) or len(x) == 0:
        raise ValueError("attacks take one example (d,) or a (B, d) batch")
    if label.shape != x.shape[:-1]:
        raise ValueError(f"need one label per example: {label.size} labels "
                         f"for {x.size // x.shape[-1]} examples")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("benign input must lie in [0,1]^d")
    x = np.atleast_2d(x)
    state = AttackState(x=x, label=label.reshape(-1), targeted=cfg.targeted,
                        method=method)
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


def _schedule(method, plan, ensemble, models, cfg):
    """Validate the run length.  Returns the cost-model prediction and the
    steps as (step, component, snapshot, batch, late) tuples; component and
    snapshot are -1 where a step does not use a single one.  A sweep runs
    one step per member, any other plan n_iter steps (K by default).  Step
    j takes snapshot j of each component under the trajectory schedule, a
    uniform draw from ``default_rng(cfg.seed)`` under the random one (per
    step, components in order)."""
    I, n = ensemble.num_components, ensemble.snapshots_per_component
    K = ensemble.size
    trajectory = cfg.schedule_mode == "trajectory"
    rng = np.random.default_rng(cfg.seed)

    def snap(j):
        return j if trajectory else int(rng.integers(n))

    if plan.models != "snapshot":
        n_iter = K if cfg.n_iter is None else cfg.n_iter
        listed = plan.models == "list"
        predicted = predict_ngrad(method, n_iter, len(models) if listed else I,
                                  T=cfg.inner_T, late_start=cfg.n_ls)
        # under the random schedule the I snapshots of a step differ
        return predicted, ((it, -1, it % n if trajectory and not listed else -1,
                            models if listed else
                            [ensemble.components[i][snap(it % n)]
                             for i in range(I)], it >= cfg.n_ls)
                           for it in range(n_iter))
    if cfg.n_iter is not None and cfg.n_iter != K:
        raise ValueError(
            f"an ensemble sweep visits every snapshot once: n_iter must be "
            f"{K} (= I * n), got {cfg.n_iter}")
    if plan.reverse and cfg.n_ls > n:
        raise ValueError(f"n_ls {cfg.n_ls} exceeds snapshots per component {n}")
    # the cost model counts drap in single-model steps and the sweeps in
    # component epochs of I models; the late start is in component epochs
    predicted = predict_ngrad(method, K if plan.reverse else n, I,
                              T=cfg.inner_T, late_start=cfg.n_ls)

    def step(j, i):
        s = snap(j)
        return j * I + i, i, s, [ensemble.components[i][s]], j >= cfg.n_ls

    return predicted, (step(j, i) for j in range(n) for i in range(I))


def _cwa_step(state, batch, stack, kind, cfg) -> np.ndarray:
    """One fused ascent step of radius beta_eps from the iterate on the
    batch's stack, then L2-normalized momentum micro-updates of scale
    micro_step through the batch, one member at a time; returns the
    iterate moved by a sign step along the net displacement."""
    g = _objective_grad(stack, state.x_hat, kind, True)
    cur = project(state.x_hat + cfg.beta_eps * np.sign(g), state.x, cfg.gamma)
    for w in batch:
        g = _objective_grad(w.stack, cur, kind, False)
        state.m = _momentum(state.m, g, cfg.mu, _l2_rows(g))
        cur = project(cur - cfg.micro_step * state.m, state.x, cfg.gamma)
        if state.iterates is not None:
            state.iterates.append(cur.copy())
    net = cur - state.x_hat
    return project(state.x_hat + cfg.beta_x * np.sign(net), state.x, cfg.gamma)


def run_attack(x, label, ensemble, cfg: AttackConfig,
               models: Optional[Sequence[M.Weights]] = None) -> AttackState:
    """Run cfg.method on a (B, d) batch with one label per row, or on one
    example (x of shape (d,), an int label), as an instance of the step
    loop.

    Each step takes a model batch from the method's plan, optionally
    shifts the iterate by a reverse (flatness) ascent of the objective
    from the late start on, and descends the objective inside the
    gamma-ball intersected with the unit box.  rap attacks the explicit
    model list, else the ensemble prototypes; ifgsm and mifgsm attack the
    explicit list when one is given, else sweep the ensemble schedule;
    the other methods refuse a list.  Every run that is not a sweep takes
    n_iter steps, default I * n.

    The B examples of a batch share the schedule and every step; each
    row's result equals a one-example run on it bitwise
    (``AttackState.example``).  A batched run's gradient calls total B
    times the per-example cost model, and its trace is row 0's.  One
    example runs as a one-row batch and returns that row's state.
    """
    method = cfg.method
    plan = _PLANS[method]
    if method == "rap":
        models = models if models is not None else ensemble.pretrained
        if not models:
            raise ValueError("rap needs a model batch (or ensemble prototypes)")
    elif models is not None:
        if method not in ("ifgsm", "mifgsm"):
            raise ValueError(f"{method} attacks the ensemble, not a model list")
        plan = replace(plan, models="list")
    # a fixed model list is grouped once per run, any other batch per step
    fixed = M.member_stack(models) if plan.models == "list" else None
    predicted, steps = _schedule(method, plan, ensemble, models, cfg)
    state = _start(x, label, method, cfg)
    B = len(state.x)
    kind = attack_loss_kind(cfg.targeted, state.label[:, None])
    # the trace follows row 0, as a one-point objective with its own label
    kind0 = attack_loss_kind(cfg.targeted, int(state.label[0]))
    with M.GRAD_CALLS.scope() as tally:
        for step, comp, snap, batch, late in steps:
            stack = fixed or M.member_stack(batch)
            if state.trace is not None:
                loss_pre = _objective(stack, state.x_hat[0], kind0, plan.fused)
            if plan.update == "walk":
                state.x_hat = _cwa_step(state, batch, stack, kind, cfg)
            else:
                z = state.x_hat
                if plan.reverse and late and cfg.inner_T > 0:
                    z = z + _ascend(z, stack, kind, plan.fused, cfg)
                d = _objective_grad(stack, z, kind, plan.fused)
                if plan.update == "momentum":
                    state.m = momentum_step(state.m, d, cfg.mu)
                    d = state.m
                state.x_hat = project(state.x_hat - cfg.beta_x * np.sign(d),
                                      state.x, cfg.gamma)
            if state.iterates is not None:
                state.iterates.append(state.x_hat.copy())
            if state.trace is not None:
                loss_post = _objective(stack, state.x_hat[0], kind0,
                                       plan.fused)
                state.trace.append(TraceRow(step, comp, snap, loss_pre,
                                            loss_post, tally.count // B))
    _finish(state, tally, B * predicted)
    return state if np.ndim(x) == 2 else state.example(0)


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
