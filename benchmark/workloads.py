"""The three benchmark workloads: transfer_sweep, bound_audit, phased_cli.

Each workload derives all of its inputs from one seed, sets up its
ensembles (``setup``, timed as ``setup_s``), and then repeats a *round* of
measured work whose outputs it checks.  Workloads call only public entry
points of the package, always through the module object
(``H.run_experiment``, ``B.assemble_bound``, ``C.main``), so that the
traced run can swap those attributes for timing wrappers.

Every check that fails counts one failed operation.  An operation is one
adversarial example (transfer_sweep), one bound instance (bound_audit) or
one CLI command (phased_cli).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from transferbound import attacks as A
from transferbound import bounds as B
from transferbound import cli as C
from transferbound import forge as F
from transferbound import harness as H
from transferbound import models as M

TOL = 1e-12
CLI_TIMEOUT_S = 150


@dataclass
class Round:
    """One round of measured work and what its checks found."""

    seconds: float
    digest: str
    latencies_ms: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def csv_body(path) -> list:
    """The lines of a harness CSV below its `# generated` timestamp line."""
    return Path(path).read_text(encoding="utf-8").splitlines()[1:]


def csv_rows(path) -> list:
    """Data rows of a harness CSV: no timestamp, header or comment lines."""
    return [line.split(",") for line in csv_body(path)[1:]
            if not line.startswith("#")]


def rows_in_ball(adv, X, gamma) -> np.ndarray:
    """Per-row flag: finite and inside the gamma-ball around X within [0,1]^d."""
    adv = np.asarray(adv, dtype=np.float64)
    if adv.shape != X.shape:
        return np.zeros(X.shape[0], dtype=bool)
    finite = np.isfinite(adv).all(axis=1)
    ball = (np.abs(adv - X) <= gamma + TOL).all(axis=1)
    box = ((adv >= 0.0) & (adv <= 1.0)).all(axis=1)
    return finite & ball & box


def predicted_grad_calls(cfg: H.ExperimentConfig) -> dict:
    """Gradient calls per example and method for the configs the harness
    runs: ensemble sweeps for ifgsm/mifgsm, rap on the I prototypes with
    n_iter = K, and drap's late start clamped to the run length."""
    I, n = cfg.components, cfg.snapshots
    K = I * n
    T, ls = cfg.attack.inner_T, cfg.attack.n_ls
    drap_ls = ls if ls <= n else (0 if n <= 5 else 5)
    return {
        "ifgsm": A.predict_ngrad("ifgsm", n, I),
        "mifgsm": A.predict_ngrad("mifgsm", n, I),
        "rap": A.predict_ngrad("rap", K, I, T=T, late_start=ls),
        "flat_rap": A.predict_ngrad("flat_rap", K, I, T=T, late_start=ls),
        "flat_cwa": A.predict_ngrad("flat_cwa", K, I),
        "drap": A.predict_ngrad("drap", K, I, T=T, late_start=drap_ls),
    }


def clear(root: Path, keep=()) -> None:
    """Delete what an earlier set-up or round left in ``root``.

    Outputs are always written as new files: on ext4, replacing a file by
    truncating it forces a flush of its data when it is closed, so
    rewriting a previous round's files would time the disk, not the program.
    """
    if not root.exists():
        return
    for entry in root.iterdir():
        if entry.name in keep:
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def tree_bytes(root) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


class Workload:
    """Shared bookkeeping: operations attempted and failed across the run."""

    name = ""
    in_process = False  # phased_cli: call cli.main instead of a subprocess

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> None:
        """Build inputs after set-up and before the rounds (untimed)."""

    def checkpoint_bytes(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# transfer_sweep
# ---------------------------------------------------------------------------


class TransferSweep(Workload):
    """The c12 desk protocol run through `harness.run_experiment`.

    Single-row input gradients inside `attacks` do nearly all the work and
    `bounds` does none; this is where batching the attack core must show.
    """

    name = "transfer_sweep"
    GAMMA = 0.12

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.seed = seed
        self.cfg = H.ExperimentConfig(
            out_dir=str(work / "sweep"), input_dim=20, num_classes=3,
            n_train=900, n_test=260, separation=4.0, components=4,
            snapshots=10, pretrain_epochs=15, n_examples=200, seeds=(seed,),
            attack=A.AttackConfig(gamma=self.GAMMA, beta_x=self.GAMMA / 4,
                                  beta_eps=self.GAMMA / 16, inner_T=5,
                                  n_ls=5, method="drap"))
        self.out = Path(self.cfg.out_dir)
        self.ops = self.cfg.n_examples * len(self.cfg.methods)
        self.expected_calls = self.cfg.n_examples * sum(
            predicted_grad_calls(self.cfg).values())
        self.data = F.make_dataset(
            "gaussian_mixture", self.cfg.n_train, self.cfg.n_test, seed,
            input_dim=self.cfg.input_dim, num_classes=self.cfg.num_classes,
            separation=self.cfg.separation)

    def setup(self) -> None:
        clear(self.out)
        H.run_experiment(self.cfg, {"forge"})

    def round(self) -> Round:
        clear(self.out, keep={"ensembles"})
        calls0 = M.GRAD_CALLS.value
        t0 = time.perf_counter()
        written = H.run_experiment(self.cfg, {"attack", "asr"})
        seconds = time.perf_counter() - t0
        calls = M.GRAD_CALLS.value - calls0

        X = self.data.X_test[: self.cfg.n_examples]
        bad = 0
        for method in self.cfg.methods:
            adv = np.load(self.out / f"adv_{method}_seed{self.seed}.npy")
            bad += int(np.sum(~rows_in_ball(adv, X, self.GAMMA)))
        if calls != self.expected_calls:
            print(f"grad calls {calls} != predicted {self.expected_calls}",
                  file=sys.stderr)
            bad = self.ops
        self.attempted += self.ops
        self.failed += bad
        rate = written["asr_table"].rows[("drap", "heldout")].rate
        return Round(seconds, digest(csv_body(written["asr"])),
                     outputs={"grad_calls": calls, "asr_drap_pct": 100 * rate})

    def members(self):
        ens = F.SurrogateEnsemble.load(
            self.out / "ensembles" / f"seed{self.seed}" / "surrogate")
        return ens, self.data

    def checkpoint_bytes(self) -> int:
        return tree_bytes(self.out / "ensembles")

    def report(self, rounds) -> dict:
        rates = [self.ops / r.seconds for r in rounds]
        return {
            "adv_per_s": (float(np.median(rates)), "examples/s", len(rates)),
            "asr_drap_pct": (rounds[-1].outputs["asr_drap_pct"], "%",
                             self.cfg.n_examples),
        }


# ---------------------------------------------------------------------------
# bound_audit
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    index: int
    x: np.ndarray
    x_hat: np.ndarray
    label: int
    cfg: B.BoundConfig


class BoundAudit(Workload):
    """`bounds.assemble_bound` per instance on the c14 shape.

    Batched forwards, candidate filtering, `d_kl`'s grid and sharpness do
    almost all the work and attacks nearly none; this is where stacked
    ensemble scoring must show and batching attacks must not.
    """

    name = "bound_audit"
    GAMMA = 0.1
    INSTANCES = 120
    R_MARGIN = 0.05

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.seed = seed
        self.instances = []

    def setup(self) -> None:
        seed = self.seed
        self.data = F.make_dataset("gaussian_mixture", 600, 300, seed,
                                   input_dim=6, num_classes=3, separation=5.0)
        self.surrogate = F.build_ensemble(
            F.desk_prototypes(6, 3, gamma=self.GAMMA,
                              base_seed=1000 * seed + 17),
            self.data, pretrain_epochs=15)
        self.targets = list(F.build_ensemble(
            F.desk_prototypes(6, 3, gamma=self.GAMMA,
                              base_seed=1000 * seed + 563),
            self.data, pretrain_epochs=15).all_members())

    def prepare(self) -> None:
        """Odd instances are mifgsm-attacked, even ones stay benign; phi
        cycles through tv, kl and chi2 at the CLI's default coefficients."""
        attack = A.AttackConfig(gamma=self.GAMMA, beta_x=self.GAMMA / 4,
                                method="mifgsm", seed=self.seed)
        self.instances = []
        for i in range(self.INSTANCES):
            x = self.data.X_test[i]
            label = int(self.data.y_test[i])
            x_hat = x
            if i % 2:
                x_hat = A.run_attack(x, label, self.surrogate, attack).x_hat
            phi = B.PHIS[i % 3]
            c1, c2 = C.PHI_DEFAULTS[phi]
            self.instances.append(Instance(
                i, x, x_hat, label,
                B.BoundConfig(phi=phi, c1=c1, c2=c2, rho=0.05, delta=0.05)))
        attacked = self.instances[1::2]
        adv = np.stack([inst.x_hat for inst in attacked])
        X = np.stack([inst.x for inst in attacked])
        labels = np.array([inst.label for inst in attacked])
        self.bad_attacks = {inst.index for inst, ok in
                            zip(attacked, rows_in_ball(adv, X, self.GAMMA))
                            if not ok}
        table = H.evaluate_asr(adv, labels, {"heldout": self.targets},
                               method="mifgsm")
        self.asr_pct = 100.0 * table.rows[("mifgsm", "heldout")].rate

    def round(self) -> Round:
        reports, latencies = [], []
        failed = set(self.bad_attacks)
        calls0 = M.GRAD_CALLS.value
        t0 = time.perf_counter()
        for inst in self.instances:
            r = B.profile(inst.x_hat, self.surrogate,
                          inst.label).surrogate_risk + self.R_MARGIN
            t1 = time.perf_counter()
            try:
                rep = B.assemble_bound(inst.x_hat, inst.x, self.GAMMA,
                                       self.surrogate, self.targets,
                                       inst.label, inst.cfg, r,
                                       seed=1000 * self.seed + inst.index)
            except B.InfeasibleError:
                traceback.print_exc()
                failed.add(inst.index)
                continue
            latencies.append(1e3 * (time.perf_counter() - t1))
            reports.append(rep)
            if not self.report_ok(rep):
                failed.add(inst.index)
        seconds = time.perf_counter() - t0
        calls = M.GRAD_CALLS.value - calls0

        self.attempted += self.INSTANCES
        self.failed += len(failed)
        covered = sum(rep.realized_target_risk <= rep.assembled
                      for rep in reports)
        nonvacuous = sum(rep.assembled < 1.0 for rep in reports)
        return Round(seconds, digest(rep.csv_row() for rep in reports),
                     latencies_ms=latencies,
                     outputs={"grad_calls": calls,
                              "coverage_pct": 100.0 * covered / len(reports),
                              "nonvacuous_pct":
                                  100.0 * nonvacuous / len(reports)})

    @staticmethod
    def report_ok(rep: B.BoundReport) -> bool:
        terms = (rep.empirical_risk + rep.sharpness + rep.d_hat / rep.c1
                 + rep.c2 * rep.r + rep.eps_pac)
        return (abs(rep.assembled - terms) <= TOL and rep.d_hat >= 0.0
                and rep.sharpness >= 0.0
                and 0.0 <= rep.realized_target_risk <= 1.0)

    def members(self):
        return self.surrogate, self.data

    def report(self, rounds) -> dict:
        lat = [v for r in rounds for v in r.latencies_ms]
        return {
            "bound_ms_p50": (float(np.percentile(lat, 50)), "ms", len(lat)),
            "bound_ms_p90": (float(np.percentile(lat, 90)), "ms", len(lat)),
            "bound_coverage_pct": (rounds[-1].outputs["coverage_pct"], "%",
                                   self.INSTANCES),
            "bound_nonvacuous_pct": (rounds[-1].outputs["nonvacuous_pct"],
                                     "%", self.INSTANCES),
            "asr_mifgsm_pct": (self.asr_pct, "%", self.INSTANCES // 2),
        }


# ---------------------------------------------------------------------------
# phased_cli
# ---------------------------------------------------------------------------


class PhasedCli(Workload):
    """The CLI as a user drives it: `forge`, then `eval`, `bound` and
    `bench`, each its own process on one output directory and config file.

    Training, checkpoint writes, interpreter start-up and retraining in
    every command after `forge` dominate here, with a small K and many
    seeds.  With ``in_process`` set (the traced run) each command calls
    `cli.main` in this process instead.
    """

    name = "phased_cli"
    COMMANDS = ("eval", "bound", "bench")
    SEEDS_PER_RUN = 4
    N_EXAMPLES = 20
    BOUND_EXAMPLES = 4

    def __init__(self, seed: int, work: Path):
        super().__init__()
        self.seeds = tuple(range(self.SEEDS_PER_RUN * seed,
                                 self.SEEDS_PER_RUN * (seed + 1)))
        self.out = work / "cli"
        self.config = work / "cli.cfg"
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_text(
            "gamma = 0.1\nbeta_x = 0.025\nbeta_eps = 0.00625\n"
            "components = 4\nn = 4\n"
            f"seeds = {','.join(str(s) for s in self.seeds)}\n"
            f"n_examples = {self.N_EXAMPLES}\n"
            f"bound_examples = {self.BOUND_EXAMPLES}\n", encoding="utf-8")
        out = self.out
        self.expected = {
            "forge": [out / "ensembles" / f"seed{s}" / role / "manifest.txt"
                      for s in self.seeds for role in ("surrogate", "target")],
            "eval": [out / "asr.csv", out / "asr_summary.csv"] + [
                out / f"adv_{m}_seed{s}.npy"
                for m in A.METHODS for s in self.seeds],
            "bound": [out / "bounds.csv"],
            "bench": [out / "bench.csv"],
        }

    def command(self, name: str) -> float:
        """Run one CLI command; returns its wall time in seconds."""
        if name == "forge":
            clear(self.out)
        for path in self.expected[name] + [self.out / "config_used.txt"]:
            path.unlink(missing_ok=True)
        argv = [name, "--config", str(self.config), "--out", str(self.out)]
        t0 = time.perf_counter()
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = C.main(argv)
        else:
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "transferbound.cli", *argv],
                    capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
            else:
                if code != 0:
                    sys.stderr.write(proc.stderr)
        seconds = time.perf_counter() - t0
        ok = code == 0 and all(p.is_file() for p in self.expected[name])
        if ok and name == "bench":
            rows = csv_rows(self.out / "bench.csv")
            ok = (len(rows) == len(A.METHODS) * len(self.seeds)
                  and all(row[4] == row[5] for row in rows))
        if not ok:
            print(f"{name}: exit {code}, checks failed", file=sys.stderr)
        self.attempted += 1
        self.failed += not ok
        return seconds

    def setup(self) -> None:
        self.command("forge")

    def round(self) -> Round:
        clear(self.out, keep={"ensembles"})
        seconds = [self.command(name) for name in self.COMMANDS]
        bounds = csv_rows(self.out / "bounds.csv")
        covered = sum(float(row[9]) <= float(row[8]) for row in bounds)
        nonvacuous = sum(float(row[8]) < 1.0 for row in bounds)
        asr = next(float(row[4])
                   for row in csv_rows(self.out / "asr_summary.csv")
                   if row[0] == "drap" and row[1] == "heldout")
        return Round(sum(seconds),
                     digest(csv_body(self.out / "asr.csv")
                            + csv_body(self.out / "bounds.csv")),
                     outputs={"asr_drap_pct": asr,
                              "coverage_pct": 100.0 * covered / len(bounds),
                              "nonvacuous_pct":
                                  100.0 * nonvacuous / len(bounds),
                              "bound_rows": len(bounds)})

    def members(self):
        seed = self.seeds[0]
        ens = F.SurrogateEnsemble.load(
            self.out / "ensembles" / f"seed{seed}" / "surrogate")
        data = F.make_dataset("gaussian_mixture", 600, 300, seed,
                              input_dim=6, num_classes=3, separation=5.0)
        return ens, data

    def checkpoint_bytes(self) -> int:
        return tree_bytes(self.out / "ensembles")

    def report(self, rounds) -> dict:
        last = rounds[-1]
        return {
            "pipeline_s": (float(np.median([r.seconds for r in rounds])), "s",
                           len(rounds)),
            "asr_drap_pct": (last.outputs["asr_drap_pct"], "%",
                             self.N_EXAMPLES * len(self.seeds)),
            "bound_coverage_pct": (last.outputs["coverage_pct"], "%",
                                   last.outputs["bound_rows"]),
            "bound_nonvacuous_pct": (last.outputs["nonvacuous_pct"], "%",
                                     last.outputs["bound_rows"]),
        }


WORKLOADS = {w.name: w for w in (TransferSweep, BoundAudit, PhasedCli)}
