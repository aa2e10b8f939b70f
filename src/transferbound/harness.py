"""Experiment orchestration: data ingestion, attack-success tables, CSV output.

Everything here is plumbing around the other modules: build (or load the
saved) surrogate and held-out target ensembles from disjoint seeds, run
each configured attack method once over the batch of test examples (one
``run_attack`` call per method and seed), score transfer success, evaluate
bound diagnostics, and emit schema-stable CSV files plus a ``run.json``
run record.  Reruns with the same seeds produce byte-identical CSV, trace
and adversarial-example files apart from the single timestamp comment line
at the top of each CSV; ``run.json`` holds wall times and so differs.
"""

from __future__ import annotations

import datetime
import json
import platform
import time
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import attacks as A
from . import bounds as B
from . import forge as F
from . import models as M

CIFAR_RECORD = 3073  # 1 label byte + 32*32*3 pixel bytes

ASR_COLUMNS = "method,target_set,seed,examples,asr_percent"
ASR_SUMMARY_COLUMNS = "method,target_set,seeds,examples,asr_percent"
BENCH_COLUMNS = "method,n_iter,components,snapshots,predicted,observed"

DATASETS = (*F.DATASET_KINDS, "cifar10")

ALL_PHASES = frozenset({"forge", "attack", "asr", "bounds", "bench"})


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def load_cifar10_binary(path, records: int) -> tuple:
    """Read the first ``records`` records of a CIFAR-10 binary batch:
    3073-byte records of one label byte followed by 3072 channel-planar
    pixel bytes, scaled to [0, 1].  Every record's label is checked; only
    the rows returned are converted."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read dataset file {path}: {exc}") from exc
    if len(raw) % CIFAR_RECORD != 0:
        offset = (len(raw) // CIFAR_RECORD) * CIFAR_RECORD
        raise ValueError(
            f"corrupt batch file {path}: {len(raw) - offset} trailing bytes "
            f"at byte offset {offset} (records are {CIFAR_RECORD} bytes)")
    buf = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    bad = np.nonzero(buf[:, 0] > 9)[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{path}: invalid label {int(buf[i, 0])} at byte offset "
            f"{i * CIFAR_RECORD}")
    if len(buf) < records:
        raise ValueError(
            f"cifar batch {path} holds {len(buf)} records, need {records}")
    return buf[:records, 1:] / 255.0, buf[:records, 0].astype(np.int64)


# ---------------------------------------------------------------------------
# attack-success tables
# ---------------------------------------------------------------------------


@dataclass
class AsrCell:
    rate: float
    examples: int
    seeds: int


@dataclass
class AsrTable:
    """Success rates keyed by (method, target-set name)."""

    rows: dict

    def __post_init__(self):
        for key, cell in self.rows.items():
            if not 0.0 <= cell.rate <= 1.0:
                raise ValueError(f"rate out of range for {key}: {cell.rate}")
            if cell.examples <= 0 or cell.seeds <= 0:
                raise ValueError(f"counts must be positive for {key}")


def evaluate_asr(x_hat, labels, target_sets: Mapping[str, Sequence[M.Weights]],
                 targeted: bool = False, target_labels=None,
                 method: str = "attack") -> AsrTable:
    """Score adversarial examples against named model sets.

    Untargeted success is argmax != y; targeted success is argmax == the
    intended class.  The rate averages over every (example, model) pair
    in a set.  Each set is grouped into a ``models.MemberStack`` here and
    costs one stacked forward per spec group.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    labels = np.asarray(labels)
    if x_hat.ndim != 2 or len(x_hat) == 0 or labels.shape != (len(x_hat),):
        raise ValueError("need a nonempty (n, d) batch with one label per row")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
    if targeted:
        if target_labels is None:
            raise ValueError("targeted evaluation needs target labels")
        target_labels = np.asarray(target_labels)
        if target_labels.shape != labels.shape:
            raise ValueError("target labels must align with labels")
        if target_labels.dtype.kind not in "iu":
            raise ValueError(f"target labels must have an integer dtype, "
                             f"got {target_labels.dtype}")
    if not target_sets:
        raise ValueError("need at least one target set")
    compared = target_labels if targeted else labels
    what = "target labels" if targeted else "labels"
    rows = {}
    for name, models in target_sets.items():
        if len(models) == 0:
            raise ValueError(f"target set {name!r} is empty")
        k = models[0].spec.num_classes
        if not np.all((compared >= 0) & (compared < k)):
            raise ValueError(f"{what} must lie in [0, {k}) for target set {name!r}")
        pred = M.predict_matrix(M.member_stack(models), x_hat)
        hits = int(np.sum((pred == compared) if targeted else (pred != compared)))
        rows[(method, name)] = AsrCell(hits / (len(models) * labels.size),
                                       int(labels.size), 1)
    return AsrTable(rows)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    out_dir: str
    dataset: str = "gaussian_mixture"
    dataset_path: Optional[str] = None
    input_dim: int = 6
    num_classes: int = 3
    n_train: int = 600
    n_test: int = 300
    separation: float = 5.0
    components: int = 4
    snapshots: int = 4
    pretrain_epochs: int = 15
    proto_lr: float = 0.05
    n_examples: int = 6
    bound_examples: int = 4
    seeds: tuple = (0,)
    methods: tuple = A.METHODS
    attack: A.AttackConfig = field(default_factory=A.AttackConfig)
    bound: B.BoundConfig = field(default_factory=B.BoundConfig)
    bound_r: Optional[float] = None  # None: adapt to each example's risk

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        for name in ("n_train", "n_test", "input_dim", "components", "snapshots",
                     "n_examples"):
            M.check_count(name, getattr(self, name), 1)
        M.check_count("num_classes", self.num_classes, 2)
        if self.n_examples > self.n_test:
            raise ValueError(f"n_examples must be in [1, n_test = {self.n_test}], "
                             f"got {self.n_examples}")
        M.check_count("bound_examples", self.bound_examples, 0)
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.dataset == "cifar10" and not self.dataset_path:
            raise ValueError("cifar10 needs dataset_path")
        bad = [m for m in self.methods if m not in A.METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods repeat a method: {list(self.methods)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds repeat a seed: {list(self.seeds)}")
        for seed in self.seeds:
            M.check_count("seeds", seed, 0)
        M.check_count("pretrain epochs", self.pretrain_epochs, 0)
        if self.bound_r is not None:
            M.check_real("r (bound_r)", self.bound_r, 0)
        if self.attack.method not in self.methods:
            # bound diagnostics run on the primary configured method
            raise ValueError(
                f"primary method {self.attack.method!r} missing from methods")


def _datasets(cfg: ExperimentConfig) -> dict:
    """seed -> Dataset.  The seeds share one Dataset of a CIFAR batch, read
    once, holding only the rows it uses."""
    if cfg.dataset == "cifar10":
        n = cfg.n_train
        X, y = load_cifar10_binary(cfg.dataset_path, n + cfg.n_test)
        data = F.Dataset(X[:n], y[:n], X[n:], y[n:], num_classes=10)
        return dict.fromkeys(cfg.seeds, data)
    return {seed: F.make_dataset(cfg.dataset, cfg.n_train, cfg.n_test, seed,
                                 input_dim=cfg.input_dim,
                                 num_classes=cfg.num_classes,
                                 separation=cfg.separation)
            for seed in cfg.seeds}


def _prototypes(cfg: ExperimentConfig, data: F.Dataset, base_seed: int) -> list:
    d = data.input_dim
    k = data.num_classes
    desk = F.desk_prototypes(d, k, gamma=cfg.attack.gamma, base_seed=base_seed,
                             epochs=cfg.snapshots, lr=cfg.proto_lr)
    protos = []
    for i in range(cfg.components):
        proto = desk[i % len(desk)]
        if i >= len(desk):
            proto = replace(proto, seed=proto.seed + 7919 * (i // len(desk)))
        protos.append(proto)
    return protos


ROLE_SEEDS = (("surrogate", 17), ("target", 563))  # base_seed offsets


def _ensembles(cfg: ExperimentConfig, datasets: dict, out: Path,
               reuse: bool) -> dict:
    """seed -> (surrogate, target, "loaded" or "built").  With ``reuse``, a
    seed with anything saved under ``out/ensembles/seed<s>`` loads both,
    each checked against the fingerprint and shape this config trains; one
    role only, an unreadable checkpoint or a mismatch raises CheckpointError
    rather than retraining.  Every seed is checked before the other seeds
    train, in one lockstep call."""
    rerun = "; re-run `forge` with this config"
    ensembles, pairs = {}, []
    for seed, data in datasets.items():
        root = out / "ensembles" / f"seed{seed}"
        protos = {role: _prototypes(cfg, data, base_seed=1000 * seed + offset)
                  for role, offset in ROLE_SEEDS}
        saved = [role for role in protos if (root / role).exists()]
        if not reuse or not saved:
            pairs += [(p, data) for p in protos.values()]
            continue
        if len(saved) < len(protos):
            raise M.CheckpointError(
                f"{root}: holds only {saved[0]}/ of the saved ensembles{rerun}")
        for role, p in protos.items():
            try:
                ens = F.SurrogateEnsemble.load(root / role)
            except M.CheckpointError as exc:
                raise M.CheckpointError(f"{exc}{rerun}") from exc
            want = F.fingerprint(p, data, pretrain_epochs=cfg.pretrain_epochs)
            if ens.fingerprint != want:
                raise M.CheckpointError(
                    f"{root / role}: saved ensemble has fingerprint "
                    f"{ens.fingerprint[:12]}..., this config trains "
                    f"{want[:12]}...{rerun}")
            shape = (ens.num_components, ens.snapshots_per_component)
            if shape != (cfg.components, cfg.snapshots):
                raise M.CheckpointError(
                    f"{root / role}: saved ensemble holds I = {shape[0]}, n = "
                    f"{shape[1]}, this config trains I = {cfg.components}, n = "
                    f"{cfg.snapshots}{rerun}")
            ensembles.setdefault(seed, []).append(ens)
    built = iter(F.build_ensembles(pairs, pretrain_epochs=cfg.pretrain_epochs)
                 if pairs else ())
    return {seed: (*ensembles[seed], "loaded") if seed in ensembles
            else (next(built), next(built), "built") for seed in datasets}


def _method_config(cfg: ExperimentConfig, method: str, seed: int,
                   ensemble: F.SurrogateEnsemble) -> A.AttackConfig:
    n_ls = cfg.attack.n_ls
    if method == "drap" and n_ls > ensemble.snapshots_per_component:
        # a late start longer than the run makes no sense; fall back to the
        # standard schedule (no late start on short runs, 5 epochs otherwise)
        n_ls = 0 if ensemble.snapshots_per_component <= 5 else 5
    # every method runs its default length: one step per surrogate member
    return replace(cfg.attack, method=method, seed=seed, n_iter=None,
                   n_ls=n_ls, record_trace=True)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def _write_csv(path: Path, header: str, lines: Sequence[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# generated {_timestamp()}\n")
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
    return path


def _config_lines(cfg, prefix: str = "") -> list:
    pairs = []
    for f in sorted(cfg.__dataclass_fields__):
        value = getattr(cfg, f)
        if is_dataclass(value):
            pairs += _config_lines(value, f"{prefix}{f}.")
        else:
            pairs.append(f"{prefix}{f} = {value!r}")
    return pairs


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, phases=None) -> dict:
    """Run the configured protocol and write artifacts under cfg.out_dir.

    phases selects what gets produced: "forge" trains and saves the
    ensembles under ``out/ensembles/seed<s>/``, "attack" saves adversarial
    batches and traces (example 0's), "asr" the success tables, "bounds"
    the bound-diagnostic rows (the primary method's, as its run ends),
    "bench" the per-example gradient-call accounting.  Default:
    everything.  Without "forge", a seed whose ensembles were saved reuses
    them (checked by fingerprint; a mismatch raises CheckpointError) and a
    seed without them trains both in memory, all seeds in one forge pass
    before any attack.  Whenever attacks run, ``run.json`` records the
    config, the Python and numpy versions, seconds per phase ("forge"
    covers that pass), per method the examples, wall seconds and gradient
    calls (predicted and observed) summed over seeds, and per seed whether
    its ensembles were "loaded" or "built" and the surrogate's fingerprint.
    """
    phases = ALL_PHASES if phases is None else frozenset(phases)
    unknown = phases - ALL_PHASES
    if unknown:
        raise ValueError(f"unknown phases {sorted(unknown)}")
    if "bounds" in phases:
        if cfg.components * cfg.snapshots < 2:
            raise ValueError(
                f"bounds need components * n >= 2 (K >= 2 snapshots), "
                f"got components = {cfg.components}, n = {cfg.snapshots}")
        # exact for tv and kl; for chi2 only c2 >= 0, the rest needs losses
        B.require_feasible(cfg.bound, [])
    out = Path(cfg.out_dir)
    need_attacks = bool(phases & {"attack", "asr", "bounds", "bench"})

    written = {}
    asr_cells = {}  # (method, target set) -> one AsrCell per seed
    asr_lines = []
    bound_lines = []
    bench_lines = []
    phase_s = dict.fromkeys(["forge", "attack", *sorted(phases & {"asr", "bounds"})],
                            0.0)
    totals = {m: {"examples": 0, "seconds": 0.0, "grad_calls_predicted": 0,
                  "grad_calls_observed": 0} for m in cfg.methods}

    t0 = time.perf_counter()
    datasets = _datasets(cfg)
    ensembles = _ensembles(cfg, datasets, out, reuse="forge" not in phases)
    # nothing is written before every seed's data and ensembles exist
    out.mkdir(parents=True, exist_ok=True)
    if "forge" in phases:
        written["ensembles"] = root = out / "ensembles"
        for seed, (surrogate, target_ens, _) in ensembles.items():
            surrogate.save(root / f"seed{seed}" / "surrogate")
            target_ens.save(root / f"seed{seed}" / "target")
    phase_s["forge"] = time.perf_counter() - t0
    sources = {str(seed): {"source": source, "fingerprint": surrogate.fingerprint}
               for seed, (surrogate, _, source) in ensembles.items()}

    for seed in cfg.seeds if need_attacks else ():
        data, (surrogate, target_ens, _) = datasets[seed], ensembles[seed]
        targets = {"heldout": list(target_ens.all_members())}
        X = data.X_test[: cfg.n_examples]
        y = data.y_test[: cfg.n_examples].astype(int)
        y_t = (y + 1) % data.num_classes

        labels = y_t if cfg.attack.targeted else y
        for method in cfg.methods:
            acfg = _method_config(cfg, method, seed, surrogate)
            t0 = time.perf_counter()
            # one run over every example; example 0's trace is written
            state = A.run_attack(X, labels, surrogate, acfg)
            seconds = time.perf_counter() - t0
            tally = totals[method]
            tally["examples"] += cfg.n_examples
            tally["seconds"] += seconds
            tally["grad_calls_predicted"] += state.predicted_grad_calls
            tally["grad_calls_observed"] += state.grad_calls

            if "attack" in phases:
                np.save(out / f"adv_{method}_seed{seed}.npy", state.x_hat)
                trace_dir = out / "traces"
                trace_dir.mkdir(exist_ok=True)
                (trace_dir / f"trace_{method}_seed{seed}.csv").write_text(
                    A.trace_to_csv(state.example(0), acfg), encoding="utf-8")
                written.setdefault("traces", trace_dir)
            if "bench" in phases:
                s0 = state.example(0)
                bench_lines.append(
                    f"{method},{len(s0.trace)},{surrogate.num_components},"
                    f"{surrogate.snapshots_per_component},"
                    f"{s0.predicted_grad_calls},{s0.grad_calls}")
            phase_s["attack"] += time.perf_counter() - t0

            if "asr" in phases:
                t0 = time.perf_counter()
                table = evaluate_asr(state.x_hat, y, targets,
                                     targeted=cfg.attack.targeted,
                                     target_labels=y_t, method=method)
                for (meth, name), cell in sorted(table.rows.items()):
                    asr_lines.append(f"{meth},{name},{seed},{cell.examples},"
                                     f"{100.0 * cell.rate:.1f}")
                    asr_cells.setdefault((meth, name), []).append(cell)
                phase_s["asr"] += time.perf_counter() - t0

            if "bounds" in phases and method == cfg.attack.method:
                t0 = time.perf_counter()
                for idx in range(min(cfg.bound_examples, cfg.n_examples)):
                    x_hat = state.x_hat[idx]
                    lbl = int(y[idx])
                    r = cfg.bound_r if cfg.bound_r is not None else (
                        B.profile(x_hat, surrogate, lbl).surrogate_risk + 0.05)
                    rep = B.assemble_bound(
                        x_hat, X[idx], cfg.attack.gamma, surrogate,
                        targets["heldout"], lbl, cfg.bound, r,
                        seed=1000 * seed + idx)
                    bound_lines.append(f"# seed={seed} example={idx} "
                                       f"method={method}")
                    bound_lines.append(rep.csv_row())
                phase_s["bounds"] += time.perf_counter() - t0

    if "asr" in phases:
        written["asr"] = _write_csv(out / "asr.csv", ASR_COLUMNS, asr_lines)
        # equal weight per seed; every seed scores n_examples rows
        combined = AsrTable({
            key: AsrCell(float(np.mean([c.rate for c in cells])),
                         cells[0].examples, len(cells))
            for key, cells in asr_cells.items()})
        summary_lines = [
            f"{meth},{name},{cell.seeds},{cell.examples},{100.0 * cell.rate:.1f}"
            for (meth, name), cell in sorted(combined.rows.items())]
        written["asr_summary"] = _write_csv(out / "asr_summary.csv",
                                            ASR_SUMMARY_COLUMNS, summary_lines)
        written["asr_table"] = combined
    if "bounds" in phases:
        written["bounds"] = _write_csv(out / "bounds.csv", B.BOUND_COLUMNS,
                                       bound_lines)
    if "bench" in phases:
        written["bench"] = _write_csv(out / "bench.csv", BENCH_COLUMNS,
                                      bench_lines)
    if need_attacks:
        record = {"config": _config_lines(cfg),
                  "python": platform.python_version(), "numpy": np.__version__,
                  "phase_s": phase_s, "methods": totals,
                  "ensembles": sources}
        written["run"] = out / "run.json"
        written["run"].write_text(json.dumps(record, indent=2) + "\n",
                                  encoding="utf-8")

    cfg_path = out / "config_used.txt"
    cfg_path.write_text("\n".join(_config_lines(cfg)) + "\n", encoding="utf-8")
    written["config"] = cfg_path
    return written
