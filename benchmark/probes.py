"""Micro-probes: host speed, and the `models` layer on a workload's own
trained members.

Each `models` probe reports the median per-call time in microseconds over
a few repeats, each repeat long enough to dwarf the timer's resolution.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from transferbound import models as M

REPEATS = 5
REPEAT_S = 0.02
STARTUP_REPEATS = 3

# host_calibration_s() on a 2-core x86-64 virtual machine at its usual
# speed (Python 3.11, numpy 2.4, one OpenBLAS thread)
REFERENCE_CALIBRATION_S = 0.175


def host_calibration_s() -> float:
    """Wall time of a fixed kernel of small numpy operations, the kind the
    package spends its time in.  It shares no code with the package, so
    its drift from REFERENCE_CALIBRATION_S measures the host, not the
    program."""
    rng = np.random.default_rng(0)
    W1 = rng.normal(size=(16, 20))
    W2 = rng.normal(size=(3, 16))
    x = rng.uniform(size=20)
    t0 = time.perf_counter()
    for _ in range(20000):
        h = np.maximum(W1 @ x + 0.1, 0.0)
        z = W2 @ h
        p = np.exp(z - z.max())
        p /= p.sum()
        g = (W2.T @ p) * (h > 0.0)
        x = np.clip(x - 1e-3 * np.sign(W1.T @ g), 0.0, 1.0)
    return time.perf_counter() - t0


def per_call_us(fn) -> float:
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= REPEAT_S / 4 or n >= 1 << 16:
            break
        n *= 4
    n = max(1, int(n * REPEAT_S / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e6 * statistics.median(samples)


def probe_models(ensemble, data, tracer) -> dict:
    """forward and input_gradient at batch sizes 1 and 200 for the first
    linear and mlp members, and the mlp training weight gradient at 32."""
    out = {}
    x1 = data.X_test[0]
    x200 = data.X_test[:200]
    kind = M.neg_cross_entropy(int(data.y_test[0]))
    members = {arch: next(w for w in ensemble.all_members()
                          if w.spec.arch == arch)
               for arch in ("linear", "mlp")}
    for arch, w in members.items():
        for batch, x in (("b1", x1), ("b200", x200)):
            name = f"models.forward.{arch}.{batch}_us"
            with tracer.span(name):
                out[name] = per_call_us(lambda: M.forward(w, x))
            name = f"models.input_gradient.{arch}.{batch}_us"
            with tracer.span(name):
                out[name] = per_call_us(lambda: M.input_gradient(w, x, kind))
    Xb, yb = data.X_train[:32], data.y_train[:32]
    name = "models.weight_grad.mlp.b32_us"
    with tracer.span(name):
        out[name] = per_call_us(
            lambda: M.batch_ce_value_and_weight_grad(members["mlp"], Xb, yb))
    return out


def cli_startup_s(env) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    samples = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import transferbound.cli"],
                       env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)
