"""In-memory span tracer for the benchmark's traced run.

The package itself is not instrumented.  ``Tracer.install`` replaces public
functions of the ``transferbound`` modules with timing wrappers, and
``Tracer.uninstall`` puts the originals back.  Callers inside the package
reach each other through module attributes (``H.run_experiment``,
``B.profile``, ...), so the wrappers see every call on the paths the
workloads use.  ``models.input_gradient`` is deliberately not wrapped: it
runs hundreds of thousands of times per round, and ``models.GRAD_CALLS``
already counts it, so each span records the counter's delta instead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

from transferbound import attacks as A
from transferbound import bounds as B
from transferbound import cli as C
from transferbound import forge as F
from transferbound import harness as H
from transferbound import models as M

SETUP = "bench.setup"
ROUND = "bench.round"

ASSEMBLE = "bounds.assemble_bound"
RUN_EXPERIMENT = "harness.run_experiment"
BUILD_ENSEMBLE = "forge.build_ensemble"

# bounds functions reported as self time per assemble_bound instance
BOUND_PARTS = {
    "bounds.profile": "profile",
    "bounds.CandidateSetXr.build": "candidate_build",
    "bounds.candidate_losses": "candidate_losses",
    "bounds.d_tv": "d_tv",
    "bounds.d_kl": "d_kl",
    "bounds.d_chi2": "d_chi2",
    "bounds.sharpness": "sharpness",
    ASSEMBLE: "assemble_self",
}

HARNESS_PHASES = {
    ("forge",): "forge",
    ("asr", "attack"): "attack_asr",
    ("bounds",): "bounds",
    ("bench",): "bench",
}

CLI_COMMANDS = ("forge", "eval", "bound", "bench")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    grad_calls: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _phases(args, kwargs, result):
    phases = kwargs.get("phases", args[1] if len(args) > 1 else None)
    return {"phases": sorted(H.ALL_PHASES if phases is None else phases)}


def _method(args, kwargs, result):
    return {"method": result.method}


def _pool(args, kwargs, result):
    pool = kwargs.get("pool", args[0] if args else ())
    return {"pool": len(pool), "kept": len(result.candidates)}


def _command(args, kwargs, result):
    argv = kwargs.get("argv", args[0] if args else None)
    return {"command": argv[0], "exit": result}


# (owner, attribute, span name, attrs taken from the call and its result)
WRAPPED = (
    (M, "save_weights", "models.save_weights", None),
    (F, "build_ensemble", BUILD_ENSEMBLE, None),
    (F.SurrogateEnsemble, "save", "forge.SurrogateEnsemble.save", None),
    (A, "run_attack", "attacks.run_attack", _method),
    (B, "assemble_bound", ASSEMBLE, None),
    (B, "profile", "bounds.profile", None),
    (B.CandidateSetXr, "build", "bounds.CandidateSetXr.build", _pool),
    (B, "candidate_losses", "bounds.candidate_losses", None),
    (B, "d_tv", "bounds.d_tv", None),
    (B, "d_kl", "bounds.d_kl", None),
    (B, "d_chi2", "bounds.d_chi2", None),
    (B, "sharpness", "bounds.sharpness", None),
    (H, "run_experiment", RUN_EXPERIMENT, _phases),
    (H, "evaluate_asr", "harness.evaluate_asr", None),
    (C, "main", "cli.main", _command),
)


class Tracer:
    """Records spans (name, start, end, parent, grad-call delta) in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter(),
                 attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        calls0 = M.GRAD_CALLS.value
        try:
            yield s
        finally:
            s.grad_calls = M.GRAD_CALLS.value - calls0
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, fn, name, describe):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if describe is not None:
                    s.attrs.update(describe(args, kwargs, result))
                return result
        return traced

    def install(self) -> None:
        for owner, attr, name, describe in WRAPPED:
            raw = vars(owner)[attr]
            traced = self._wrapper(getattr(owner, attr), name, describe)
            if isinstance(raw, classmethod):
                # getattr already bound the class; keep it bound
                traced = staticmethod(traced)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start_s": s.start - t0, "end_s": s.end - t0,
                    "self_s": own, "grad_calls": s.grad_calls,
                    "attrs": s.attrs}) + "\n")


def self_times(spans) -> list:
    """Duration minus the time covered by direct children (spans nest on
    one thread, so children never overlap each other)."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def layer_metrics(spans) -> dict:
    """Per-layer numbers for forge, attacks, bounds, harness and cli.

    Set-up spans sit under a ``bench.setup`` root; everything else the
    workload does (preparing inputs and the measured round) counts as work.
    """
    selfs = self_times(spans)
    in_setup, in_bound, retrain = [], [], []
    for s in spans:
        up = s.parent
        in_setup.append(s.name == SETUP or (up is not None and in_setup[up]))
        in_bound.append(s.name == ASSEMBLE or (up is not None and in_bound[up]))
        non_forge = (s.name == RUN_EXPERIMENT
                     and "forge" not in s.attrs.get("phases", ()))
        retrain.append(non_forge or (up is not None and retrain[up]))

    def total(name, where):
        return sum(s.duration for s, w in zip(spans, where) if w
                   and s.name == name)

    work = [not w for w in in_setup]
    out = {
        "forge.build_ensemble_s": total(BUILD_ENSEMBLE, in_setup),
        "forge.save_s": total("forge.SurrogateEnsemble.save", in_setup),
    }

    attacks = [s for s, w in zip(spans, work) if w
               and s.name == "attacks.run_attack"]
    for method in A.METHODS:
        mine = [s for s in attacks if s.attrs.get("method") == method]
        secs = sum(s.duration for s in mine)
        calls = sum(s.grad_calls for s in mine)
        n = len(mine)
        out[f"attacks.{method}.ms_per_example"] = 1e3 * secs / n if n else 0.0
        out[f"attacks.{method}.grad_calls_per_example"] = calls / n if n else 0.0
        out[f"attacks.{method}.us_per_grad_call"] = (
            1e6 * secs / calls if calls else 0.0)
    out["attacks.run_attack.calls"] = len(attacks)

    instances = sum(1 for s, w in zip(spans, work) if w and s.name == ASSEMBLE)
    for name, label in BOUND_PARTS.items():
        secs = sum(t for s, t, b, w in zip(spans, selfs, in_bound, work)
                   if b and w and s.name == name)
        out[f"bounds.{label}_ms"] = 1e3 * secs / instances if instances else 0.0
    builds = [s for s, b, w in zip(spans, in_bound, work) if b and w
              and s.name == "bounds.CandidateSetXr.build"]
    pool = sum(s.attrs.get("pool", 0) for s in builds)
    out["bounds.candidates_kept_ratio"] = (
        sum(s.attrs.get("kept", 0) for s in builds) / pool if pool else 0.0)
    sharp = [s for s, b, w in zip(spans, in_bound, work) if b and w
             and s.name == "bounds.sharpness"]
    out["bounds.sharpness.grad_calls_per_instance"] = (
        sum(s.grad_calls for s in sharp) / len(sharp) if sharp else 0.0)

    phase_s = dict.fromkeys(HARNESS_PHASES.values(), 0.0)
    for s in spans:
        label = HARNESS_PHASES.get(tuple(s.attrs.get("phases", ())))
        if s.name == RUN_EXPERIMENT and label is not None:
            phase_s[label] += s.duration
    for label, secs in phase_s.items():
        out[f"harness.phase.{label}_s"] = secs
    out["harness.evaluate_asr_ms"] = 1e3 * total("harness.evaluate_asr", work)
    out["harness.retrain_s"] = total(BUILD_ENSEMBLE, retrain)

    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = sum(s.duration for s in spans
                                  if s.name == "cli.main"
                                  and s.attrs.get("command") == cmd)
    return out
