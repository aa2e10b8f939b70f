#!/usr/bin/env python3
"""Record this checkout's benchmark numbers in ``BENCH_<TAG>.json``.

Run from the repository root:

    python3 scripts/bench_record.py --tag baseline

For every workload, with ``--trace 0`` and ``--trace 1``, it runs the
benchmark as it stands (``benchmark/run.py --workload W --seed 0
--seconds 30 --trace T``) and reads the ``record.json`` that the run
writes under ``.bench_out/``.  It adds what the runner does not measure:
the wall time of ``transferbound all`` on the default desk config, the
wall time of the tier-1 suite, and the source line count (``wc -l
src/transferbound/*.py``).  The runner's numbers are copied as it
reports them; the notes in the file say which of them are known wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("transfer_sweep", "bound_audit", "phased_cli")
SEED, SECONDS = 0, 30
CLI_REPEATS = 5

NOTES = [
    "Workload metrics are benchmark/run.py's, copied unchanged.",
    "Known wrong in --trace 1: attacks.<method>.ms_per_example, "
    ".grad_calls_per_example and .us_per_grad_call divide by the number of "
    "run_attack spans, and each span attacks every example of a seed, so "
    "they read per run, not per example.",
    "Known wrong in --trace 1: forge.build_ensemble_s wraps only "
    "forge.build_ensemble, and the harness trains through "
    "forge.build_ensembles, so it reads 0 on transfer_sweep and phased_cli.",
    "A gain under about 10% needs at least 10 alternating pairs of runs "
    "from two checkouts; one record cannot show it.",
]


def child_env() -> dict:
    """The environment the runner gives its own processes: the package on
    the path and one BLAS thread."""
    out = dict(os.environ)
    out["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        out[var] = "1"
    return out


def timed(cmd) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True)
    return time.perf_counter() - t0, proc


def workload(name: str, trace: int) -> dict:
    _, proc = timed([sys.executable, "benchmark/run.py", "--workload", name,
                     "--seed", str(SEED), "--seconds", str(SECONDS),
                     "--trace", str(trace)])
    if proc.returncode != 0:
        sys.exit(f"benchmark/run.py --workload {name} --trace {trace} "
                 f"exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{name}-seed{SEED}-trace{trace}"
                         / "record.json").read_text(encoding="utf-8"))
    return {"attempted": result["attempted"], "failed": result["failed"],
            "digests": record["digests"], "round_s": record["round_s"],
            "metrics": {k: v["value"] for k, v in record["metrics"].items()},
            "env": record["env"]}


def cli_all_s() -> list:
    """Wall seconds of ``transferbound all`` on the default config, one
    fresh output directory per run."""
    out = []
    for _ in range(CLI_REPEATS):
        with tempfile.TemporaryDirectory() as tmp:
            seconds, proc = timed([sys.executable, "-m", "transferbound.cli",
                                   "all", "--out", tmp])
        if proc.returncode != 0:
            sys.exit(f"transferbound all exited {proc.returncode}:\n"
                     f"{proc.stderr}")
        out.append(seconds)
    return out


def tier1() -> dict:
    seconds, proc = timed([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider", "--continue-on-collection-errors"])
    lines = proc.stdout.strip().splitlines()
    return {"seconds": seconds, "exit_code": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True,
                        help="names the output file BENCH_<TAG>.json")
    args = parser.parse_args(argv)
    sources = sorted((SRC / "transferbound").glob("*.py"))
    runs = {name: {f"trace{t}": workload(name, t) for t in (0, 1)}
            for name in WORKLOADS}
    # every run records the same environment; keep it once
    environment = [run.pop("env") for traces in runs.values()
                   for run in traces.values()][0]
    cli = cli_all_s()
    record = {
        "tag": args.tag,
        "command": f"python3 scripts/bench_record.py --tag {args.tag}",
        "runner": f"benchmark/run.py --seed {SEED} --seconds {SECONDS}",
        "env": environment,
        "notes": NOTES,
        "end_to_end": {
            "transferbound_all_s": statistics.median(cli),
            "transferbound_all_runs_s": cli,
            "tier1": tier1(),
            "source_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                                for p in sources),
        },
        "workloads": runs,
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
