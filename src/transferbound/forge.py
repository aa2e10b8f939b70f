"""Synthetic datasets and surrogate snapshot ensembles.

A surrogate ensemble approximates I model posteriors by fine-tuning I
prototype classifiers with constant-rate SGD and keeping one snapshot per
epoch: component i contributes n snapshots, K = I * n models total.  The
scheduler maps (outer step j, component i) to a snapshot either
deterministically (epoch order, a bijection over the whole ensemble) or by
seeded uniform sampling.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import models as M

log = logging.getLogger(__name__)

DATASET_KINDS = ("gaussian_mixture", "two_rings")
TRAINING_MODES = ("normal", "adversarial")

# pretraining defaults of build_ensemble; fingerprint must use the same ones
PRETRAIN_EPOCHS = 30
PRETRAIN_LR = 0.25


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


@dataclass
class Dataset:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    @property
    def input_dim(self) -> int:
        return self.X_train.shape[1]


def make_dataset(kind: str, n_train: int, n_test: int, seed: int, *,
                 input_dim: int = 2, num_classes: int = 2,
                 separation: float = 6.0) -> Dataset:
    """Deterministic synthetic classification data with features in [0,1]^d.

    gaussian_mixture: one isotropic unit-variance Gaussian blob per class,
    class means spaced ``separation`` apart (in sigma units), then mapped
    into the unit box by a fixed affine transform and clipped.

    two_rings: two concentric noisy rings in the first two coordinates
    (binary labels); any remaining coordinates are small noise around 0.5.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    if n_train < 1 or n_test < 1:
        raise ValueError("need at least one train and one test sample")
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    n = n_train + n_test

    if kind == "gaussian_mixture":
        k, d = num_classes, input_dim
        if k <= d:
            means = np.zeros((k, d))
            for i in range(k):
                means[i, i % d] = separation
        else:
            dirs = rng.normal(size=(k, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            means = dirs * separation
        labels = rng.permutation(np.arange(n) % k)
        X = means[labels] + rng.normal(size=(n, d))
        lo, hi = means.min() - 4.0, means.max() + 4.0
        X = np.clip((X - lo) / (hi - lo), 0.0, 1.0)
    else:
        if input_dim < 2:
            raise ValueError("two_rings needs input_dim >= 2")
        if num_classes != 2:
            raise ValueError("two_rings is a binary problem")
        labels = rng.permutation(np.arange(n) % 2)
        radius = np.where(labels == 0, 0.15, 0.35) + rng.normal(0, 0.02, n)
        angle = rng.uniform(0, 2 * np.pi, n)
        X = np.full((n, input_dim), 0.5)
        X[:, 0] += radius * np.cos(angle)
        X[:, 1] += radius * np.sin(angle)
        if input_dim > 2:
            X[:, 2:] += rng.normal(0, 0.02, (n, input_dim - 2))
        X = np.clip(X, 0.0, 1.0)

    return Dataset(X[:n_train], labels[:n_train].astype(np.int64),
                   X[n_train:], labels[n_train:].astype(np.int64),
                   num_classes)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrototypeConfig:
    """How one ensemble component is fine-tuned from its prototype."""

    spec: M.ModelSpec
    training: str = "normal"
    lr: float = 0.05
    epochs: int = 10
    seed: int = 0
    adv_eps: float = 0.0
    adv_steps: int = 5
    batch_size: int = 32

    def __post_init__(self):
        if self.training not in TRAINING_MODES:
            raise ValueError(f"unknown training mode {self.training!r}")
        if self.training == "adversarial" and self.adv_eps <= 0:
            raise ValueError("adversarial training needs adv_eps > 0")
        if self.lr < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _pgd_batch(w: M.Weights, X: np.ndarray, y: np.ndarray,
               eps: float, steps: int) -> np.ndarray:
    """Ascend cross-entropy in the eps-infinity ball around X (training PGD)."""
    step = 2.5 * eps / max(steps, 1)
    lo, hi = np.clip(X - eps, 0, 1), np.clip(X + eps, 0, 1)
    Xa = X.copy()
    kind = M.targeted_cross_entropy(y)
    for _ in range(steps):
        g = M.batch_ce_input_gradients(w, Xa, kind)
        Xa = np.clip(Xa + step * np.sign(g), lo, hi)
    return Xa


def _sgd_epochs(params: np.ndarray, cfg: PrototypeConfig, data: Dataset,
                rng: np.random.Generator, epochs: int, collect: bool):
    X, y = data.X_train, data.y_train
    snapshots = []
    for epoch in range(epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            Xb, yb = X[idx], y[idx]
            w = M.Weights(cfg.spec, params)
            if cfg.training == "adversarial":
                Xb = _pgd_batch(w, Xb, yb, cfg.adv_eps, cfg.adv_steps)
            _, grad = M.batch_ce_value_and_weight_grad(w, Xb, yb)
            params = params - cfg.lr * grad
        if not np.all(np.isfinite(params)):
            raise DivergenceError(f"training diverged at epoch {epoch}")
        w = M.Weights(cfg.spec, params)
        check = float(np.mean(M.loss_matrix(
            M.member_stack([w]), X, M.targeted_cross_entropy(y))))
        if not np.isfinite(check):
            raise DivergenceError(
                f"training diverged at epoch {epoch}: loss={check!r}")
        if collect:
            snapshots.append(w)
    return params, snapshots


def pretrain(cfg: PrototypeConfig, data: Dataset, *,
             epochs: int = PRETRAIN_EPOCHS,
             lr: Optional[float] = None) -> M.Weights:
    """Train a prototype from random init (same regime as fine-tuning)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF0]))
    w0 = M.init_weights(cfg.spec, rng)
    train_cfg = replace(cfg, lr=cfg.lr if lr is None else lr)
    params, _ = _sgd_epochs(w0.params.copy(), train_cfg, data, rng, epochs, False)
    return M.Weights(cfg.spec, params)


def fine_tune_collect(cfg: PrototypeConfig, pretrained: M.Weights,
                      data: Dataset) -> list:
    """Fine-tune with constant-lr SGD, one snapshot per epoch.

    With lr = 0 every snapshot equals the prototype.  Returns cfg.epochs
    snapshot Weights; raises DivergenceError (naming the epoch) if the loss
    leaves the reals.
    """
    if pretrained.spec != cfg.spec:
        raise ValueError("pretrained weights do not match the prototype spec")
    if data.num_classes != cfg.spec.num_classes:
        raise ValueError("dataset and model disagree on class count")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF1]))
    _, snapshots = _sgd_epochs(pretrained.params.copy(), cfg, data, rng,
                               cfg.epochs, True)
    base = accuracy(pretrained, data.X_test, data.y_test)
    got = np.mean([accuracy(s, data.X_test, data.y_test) for s in snapshots])
    if got < base - 0.05:
        log.warning("snapshot accuracy %.3f fell more than 5 points below "
                    "prototype accuracy %.3f", got, base)
    return snapshots


def accuracy(w: M.Weights, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(M.predict_matrix(M.member_stack([w]), X)[0] == y))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


@dataclass
class SurrogateEnsemble:
    """I components x n snapshots, plus the prototypes they came from, and
    ``stack``, the ``models.MemberStack`` of all members, built once here."""

    components: list
    seed: int = 0
    pretrained: Optional[list] = None
    component_seeds: Optional[list] = None
    fingerprint: Optional[str] = None  # what trained it (``fingerprint``)
    stack: M.MemberStack = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.components or not all(self.components):
            raise ValueError("ensemble needs at least one non-empty component")
        n = len(self.components[0])
        if any(len(c) != n for c in self.components):
            raise ValueError("all components must hold the same snapshot count")
        self.stack = M.member_stack(list(self.all_members()))

    @property
    def num_components(self) -> int:
        return len(self.components)

    @property
    def snapshots_per_component(self) -> int:
        return len(self.components[0])

    @property
    def size(self) -> int:
        return self.num_components * self.snapshots_per_component

    def schedule_index(self, j: int, i: int, mode: str = "trajectory",
                       rng: Optional[np.random.Generator] = None) -> int:
        """Index of the snapshot for outer step j, component i.

        trajectory mode is the deterministic bijection: step j of component
        i returns snapshot j, so a full sweep over (j, i) visits every
        member exactly once.  random mode draws uniformly from component i
        using the supplied generator.
        """
        if not 0 <= i < self.num_components:
            raise ValueError(f"component index {i} out of range")
        if mode == "trajectory":
            if not 0 <= j < self.snapshots_per_component:
                raise ValueError(f"outer step {j} out of range")
            return j
        if mode == "random":
            if rng is None:
                raise ValueError("random schedule needs a generator")
            return int(rng.integers(self.snapshots_per_component))
        raise ValueError(f"unknown schedule mode {mode!r}")

    def schedule(self, j: int, i: int, mode: str = "trajectory",
                 rng: Optional[np.random.Generator] = None) -> M.Weights:
        """Snapshot for outer step j, component i (see ``schedule_index``)."""
        s = self.schedule_index(j, i, mode, rng)
        return self.components[i][s]

    def all_members(self):
        for comp in self.components:
            yield from comp

    def save(self, root) -> None:
        if None in (self.fingerprint, self.pretrained, self.component_seeds):
            raise ValueError("only an ensemble from build_ensemble (which "
                             "records its fingerprint, prototypes and their "
                             "seeds) can be saved")
        os.makedirs(root, exist_ok=True)
        for i, comp in enumerate(self.components):
            cdir = os.path.join(root, f"component_{i}")
            os.makedirs(cdir, exist_ok=True)
            for j, w in enumerate(comp):
                M.save_weights(w, os.path.join(cdir, f"snapshot_{j}.fxw"))
            M.save_weights(self.pretrained[i], os.path.join(cdir, "pretrained.fxw"))
        lines = [
            f"I = {self.num_components}",
            f"n = {self.snapshots_per_component}",
            f"seed = {self.seed}",
            f"fingerprint = {self.fingerprint}",
        ]
        for i, comp in enumerate(self.components):
            lines.append(f"component_{i}_spec = {spec_to_string(comp[0].spec)}")
            lines.append(f"component_{i}_seed = {self.component_seeds[i]}")
        with open(os.path.join(root, "manifest.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, root) -> "SurrogateEnsemble":
        """Read what ``save`` wrote; any missing or inconsistent piece
        raises ``CheckpointError`` naming the offending path."""
        manifest = os.path.join(root, "manifest.txt")
        try:
            with open(manifest, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise M.CheckpointError(f"{manifest}: cannot read: {exc}") from exc
        kv = {}
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                kv[key.strip()] = value.strip()
        missing = [k for k in ("I", "n", "seed", "fingerprint") if not kv.get(k)]
        if missing:
            raise M.CheckpointError(f"{manifest}: no {', '.join(missing)}")
        try:
            I, n = int(kv["I"]), int(kv["n"])
            specs = [spec_from_string(kv[f"component_{i}_spec"])
                     for i in range(I)]
            seeds = [int(kv[f"component_{i}_seed"]) for i in range(I)]
            seed = int(kv["seed"])
        except (KeyError, ValueError) as exc:
            raise M.CheckpointError(f"{manifest}: malformed: {exc!r}") from exc
        if I < 1 or n < 1:
            raise M.CheckpointError(f"{manifest}: I and n must be >= 1")

        def read(path, spec):
            if not os.path.isfile(path):
                raise M.CheckpointError(f"{path}: missing")
            w = M.load_weights(path)
            if w.spec != spec:
                raise M.CheckpointError(
                    f"{path}: spec {spec_to_string(w.spec)} differs from the "
                    f"manifest's {spec_to_string(spec)}")
            return w

        components, pretrained = [], []
        for i, spec in enumerate(specs):
            cdir = os.path.join(root, f"component_{i}")
            components.append([read(os.path.join(cdir, f"snapshot_{j}.fxw"), spec)
                               for j in range(n)])
            pretrained.append(read(os.path.join(cdir, "pretrained.fxw"), spec))
        return cls(components, seed=seed, pretrained=pretrained,
                   component_seeds=seeds, fingerprint=kv["fingerprint"])


def spec_to_string(spec: M.ModelSpec) -> str:
    parts = [f"arch={spec.arch}", f"d={spec.input_dim}", f"k={spec.num_classes}",
             f"act={spec.activation}"]
    if spec.arch == "mlp":
        parts.append("hidden=" + "x".join(str(h) for h in spec.hidden))
    if spec.arch == "conv_tiny":
        parts.append(f"channels={spec.channels}")
    return ",".join(parts)


def spec_from_string(text: str) -> M.ModelSpec:
    kv = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        kv[key.strip()] = value.strip()
    arch = kv["arch"]
    hidden = tuple(int(h) for h in kv["hidden"].split("x")) if "hidden" in kv else ()
    return M.ModelSpec(
        arch=arch,
        input_dim=int(kv["d"]),
        num_classes=int(kv["k"]),
        hidden=hidden if arch == "mlp" else (),
        channels=int(kv.get("channels", 0)) if arch == "conv_tiny" else 0,
        activation=kv.get("act", "relu"),
    )


def fingerprint(prototypes: Sequence[PrototypeConfig], data: Dataset, *,
                pretrain_epochs: int = PRETRAIN_EPOCHS,
                pretrain_lr: float = PRETRAIN_LR) -> str:
    """SHA-256 hex digest of everything ``build_ensemble`` trains from.

    It covers the dataset arrays and class count, the ``repr`` of each
    prototype config, and the pretraining epochs and rate, so a saved
    ensemble whose digest matches is exactly what this call would train.
    """
    h = hashlib.sha256()
    for arr in (data.X_train, data.y_train, data.X_test, data.y_test):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(repr((data.num_classes, pretrain_epochs, pretrain_lr,
                   list(prototypes))).encode())
    return h.hexdigest()


def build_ensemble(prototypes: Sequence[PrototypeConfig], data: Dataset, *,
                   pretrain_epochs: int = PRETRAIN_EPOCHS,
                   pretrain_lr: float = PRETRAIN_LR) -> SurrogateEnsemble:
    """Pretrain each prototype, then fine-tune it into a snapshot component."""
    components, pres, seeds = [], [], []
    for cfg in prototypes:
        pre = pretrain(cfg, data, epochs=pretrain_epochs, lr=pretrain_lr)
        components.append(fine_tune_collect(cfg, pre, data))
        pres.append(pre)
        seeds.append(cfg.seed)
    return SurrogateEnsemble(
        components, seed=prototypes[0].seed, pretrained=pres,
        component_seeds=seeds,
        fingerprint=fingerprint(prototypes, data,
                                pretrain_epochs=pretrain_epochs,
                                pretrain_lr=pretrain_lr))


def desk_prototypes(input_dim: int, num_classes: int, gamma: float,
                    base_seed: int, *, epochs: int = 10, lr: float = 0.05,
                    hidden: tuple = (16,)) -> list:
    """The standard four-prototype set: {linear, mlp} x {normal, adversarial}.

    Adversarially trained prototypes use 5-step PGD at eps = gamma (the
    attack budget under study).
    """
    linear = M.ModelSpec("linear", input_dim, num_classes)
    mlp = M.ModelSpec("mlp", input_dim, num_classes, hidden=hidden, activation="relu")
    out = []
    for idx, (spec, mode) in enumerate([
        (linear, "normal"), (linear, "adversarial"),
        (mlp, "normal"), (mlp, "adversarial"),
    ]):
        out.append(PrototypeConfig(
            spec=spec, training=mode, lr=lr, epochs=epochs,
            seed=base_seed + idx,
            adv_eps=gamma if mode == "adversarial" else 0.0,
        ))
    return out
