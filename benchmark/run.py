#!/usr/bin/env python3
"""Benchmark for transferbound: three workloads, end to end and per layer.

Run from the repository root:

    python3 benchmark/run.py --workload transfer_sweep --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median) and then repeats whole rounds of measured work for about
``--seconds`` seconds.  ``--trace 1`` runs one untraced round, then the
set-up and one round again with span tracing on, then the `models` probes,
and reports per-layer metrics and the tracing overhead.  ``--workload all``
runs every workload in turn.

Human-readable lines name every metric with its unit; the last line of
standard output is one JSON object with the metrics that ``BENCHMARK.json``
lists for the chosen ``--trace`` mode.  A run record (environment, every
metric, output digests) and, for traced runs, the spans go to
``.bench_out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("transfer_sweep", "bound_audit", "phased_cli")

# One BLAS thread: with the interpreter's own thread that keeps every
# process within the two cores the workloads were sized on, and the
# matrices here are far too small for BLAS threading to pay.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = sum(p.read_bytes().count(b"\n")
                    for p in (SRC / "transferbound").glob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "seed": seed,
            "src_lines": src_lines}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def measure(workload, seconds: float):
    """Set up SETUP_REPEATS times, then run whole rounds until the next one
    would end after ``seconds`` (always at least one).  The host is
    calibrated before and after the set-ups and after every round."""
    import probes

    calibrations = [probes.host_calibration_s()]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
    calibrations.append(probes.host_calibration_s())
    workload.prepare()
    rounds = []
    t0 = time.perf_counter()
    while True:
        rounds.append(workload.round())
        calibrations.append(probes.host_calibration_s())
        typical = statistics.median(r.seconds for r in rounds)
        if time.perf_counter() - t0 + typical > seconds:
            return setups, rounds, calibrations


def end_to_end(workload, setups, rounds, calibrations):
    """The gated metrics, which every workload reports, and the report
    named after what each workload's users see.

    Gated times are scaled to the reference host speed: multiplied by
    REFERENCE_CALIBRATION_S over the run's median host calibration.  The
    host's speed drifts by 10-25% for minutes at a time, far more than the
    program's own run-to-run spread; the median ignores a calibration hit
    by a momentary stall.  The raw times are reported alongside.
    """
    import probes

    host = statistics.median(calibrations)
    scale = probes.REFERENCE_CALIBRATION_S / host
    raw_setup = statistics.median(setups)
    raw_round = statistics.median(r.seconds for r in rounds)
    metrics = {
        "setup_s": raw_setup * scale,
        "round_s": raw_round * scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "setup_s": (metrics["setup_s"], "s", len(setups)),
        "round_s": (metrics["round_s"], "s", len(rounds)),
        "setup_raw_s": (raw_setup, "s", len(setups)),
        "round_raw_s": (raw_round, "s", len(rounds)),
        "host_calibration_s": (host, "s", len(calibrations)),
    }
    report.update(workload.report(rounds))
    report["failed_pct"] = (100.0 * workload.failed / workload.attempted,
                            "%", workload.attempted)
    report["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB", 1)
    return metrics, report


def traced(workload, record_dir: Path):
    """One untraced round, then set-up and a round under the tracer."""
    import probes
    import tracing

    workload.in_process = True
    workload.setup()
    workload.prepare()
    base = workload.round()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span(tracing.SETUP):
            workload.setup()
        with tracer.span("bench.prepare"):
            workload.prepare()
        with tracer.span(tracing.ROUND) as round_span:
            traced_round = workload.round()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["models.grad_calls"] = round_span.grad_calls
    metrics["forge.checkpoint_bytes"] = workload.checkpoint_bytes()
    ensemble, data = workload.members()
    metrics.update(probes.probe_models(ensemble, data, tracer))
    metrics["cli.startup_s"] = (probes.cli_startup_s(os.environ)
                                if workload.name == "phased_cli" else 0.0)
    metrics["trace.overhead_pct"] = 100.0 * (
        traced_round.seconds / base.seconds - 1.0)
    metrics["trace.spans"] = len(tracer.spans)
    tracer.write(record_dir / "spans.jsonl")
    return metrics, [base, traced_round]


def run_one(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(record_dir, ignore_errors=True)
    work = record_dir / "work"
    work.mkdir(parents=True)
    env = environment(args.seed)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            metrics, rounds = traced(workload, record_dir)
            wanted = spec["per_layer"]
            report = {m["name"]: (metrics[m["name"]], m["unit"], 1)
                      for m in wanted}
        else:
            setups, rounds, calibrations = measure(workload, args.seconds)
            metrics, report = end_to_end(workload, setups, rounds,
                                         calibrations)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = sorted({r.digest for r in rounds})
    for name, (value, unit, n) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={n})")
    print(f"{args.workload} rounds = {len(rounds)}; output digest "
          f"{', '.join(digests)}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env, "digests": digests,
              "round_s": [r.seconds for r in rounds],
              "round_outputs": [r.outputs for r in rounds],
              "metrics": {name: {"value": value, "unit": unit, "n": n}
                          for name, (value, unit, n) in report.items()}}
    (record_dir / "record.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)])
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "transferbound" / "__init__.py").is_file():
        print(f"benchmark: no package at {SRC / 'transferbound'}; run from "
              f"a checkout that holds the sources", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
