"""Synthetic datasets and surrogate snapshot ensembles.

A surrogate ensemble approximates I model posteriors by fine-tuning I
prototype classifiers with constant-rate SGD and keeping one snapshot per
epoch: component i contributes n snapshots, K = I * n models total.
``build_ensembles`` is the one way in to training (``build_ensemble`` is
its one-pair call). It trains every seed's (prototype set, dataset)
pairs at once, each spec's prototypes in lockstep as one stack of members
on their own datasets: pretrained for ``pretrain_epochs``, then fine-tuned.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import models as M

log = logging.getLogger(__name__)

DATASET_KINDS = ("gaussian_mixture", "two_rings")
TRAINING_MODES = ("normal", "adversarial")

# the training recipe; fingerprint hashes each of these
PRETRAIN_LR = 0.25
BATCH_SIZE = 32
ADV_STEPS = 5  # PGD steps per adversarial-training minibatch


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
    M.check_count("n_train", n_train, 1)
    M.check_count("n_test", n_test, 1)
    M.check_count("input_dim", input_dim, 1)
    M.check_count("num_classes", num_classes, 2)
    M.check_real("separation", separation)
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

    def __post_init__(self):
        if self.training not in TRAINING_MODES:
            raise ValueError(f"unknown training mode {self.training!r}")
        if self.training == "adversarial":
            M.check_real("adv_eps", self.adv_eps, 0, above=True)
        M.check_real("learning rate", self.lr, 0)
        M.check_count("epochs", self.epochs, 1)


def _train(P: np.ndarray, cfgs: Sequence[PrototypeConfig], lr: np.ndarray,
           X: np.ndarray, y: np.ndarray, src: np.ndarray, rngs: Sequence,
           epochs: int) -> Iterator[np.ndarray]:
    """SGD in place on the (M, P) stack of one spec's prototypes ``cfgs``
    (normal ones first), one step for all per minibatch: member i trains on
    rows X[src[i]], y[src[i]] of (S, N, d) and (S, N) stacks, draws its
    permutations from rngs[i], steps at lr[i] and, if adversarial, on PGD
    examples at its adv_eps.  Yields P itself (no copy) after each epoch,
    and raises DivergenceError, naming whose, after the first epoch at
    which any member's parameters or training loss leave the reals."""
    spec, na = cfgs[0].spec, sum(cfg.training == "normal" for cfg in cfgs)
    eps = np.array([cfg.adv_eps for cfg in cfgs[na:]])[:, None, None]
    step = 2.5 * eps / ADV_STEPS
    layers, adv = M._layers(spec, P, 0), M._layers(spec, P[na:], 0)
    for epoch in range(epochs):
        perms = np.array([rng.permutation(X.shape[1]) for rng in rngs])
        for start in range(0, X.shape[1], BATCH_SIZE):
            idx = perms[:, start : start + BATCH_SIZE]
            Xb, yb = X[src[:, None], idx], y[src[:, None], idx]
            if na < len(P):  # PGD in each adversarial member's eps-ball
                Xa, ka = Xb[na:], M.targeted_cross_entropy(yb[na:])
                lo, hi = np.clip(Xa - eps, 0, 1), np.clip(Xa + eps, 0, 1)
                for _ in range(ADV_STEPS):
                    g = M.batch_ce_grads(spec, adv, Xa, ka)[1]
                    Xa = np.clip(Xa + step * np.sign(g), lo, hi)
                Xb[na:] = Xa
            kind = M.targeted_cross_entropy(yb)
            P -= lr[:, None] * M.batch_ce_grads(spec, layers, Xb, kind, True)[1]
        bad, loss = ~np.all(np.isfinite(P), axis=1), ""
        if not bad.any():
            check = np.empty(len(P))
            for s, m in enumerate(src == np.arange(len(X))[:, None]):  # m: s's members
                z = M._forward_stack(spec, [(W[m], b[m]) for W, b in layers], X[s])[0]
                check[m] = np.mean(M.loss_from_logits(
                    z, M.targeted_cross_entropy(y[s])), axis=-1)
            bad, loss = ~np.isfinite(check), f": loss={check.tolist()}"
        if bad.any():
            raise DivergenceError(
                f"training diverged at epoch {epoch} for prototype seeds "
                f"{[cfg.seed for cfg, b in zip(cfgs, bad) if b]}{loss}")
        yield P


def _train_group(members: Sequence[tuple], pretrain_epochs: int) -> list:
    """Pretrain one group's (prototype, dataset) ``members`` (normal ones
    first, datasets of one size) as one (M, P) stack from random init, then
    fine-tune it: each member's (pretrained Weights, snapshot Weights).
    Pretraining keeps no epoch's stack; each snapshot copies its row of
    the stack once, when its epoch ends."""
    cfgs, spec = [cfg for cfg, _ in members], members[0][0].spec
    datasets = list({id(data): data for _, data in members}.values())
    if any((d.input_dim, d.num_classes) != (spec.input_dim, spec.num_classes)
           for d in datasets):
        raise ValueError("dataset and model disagree on input dim or class count")
    src = np.array([[id(d) for d in datasets].index(id(data)) for _, data in members])
    X = np.stack([data.X_train for data in datasets])
    y = np.stack([data.y_train for data in datasets])
    pre_rngs, rngs = [[np.random.default_rng(np.random.SeedSequence([cfg.seed, stage]))
                       for cfg in cfgs] for stage in (0xF0, 0xF1)]
    P = np.array([M.init_weights(cfg.spec, rng).params
                  for cfg, rng in zip(cfgs, pre_rngs)])
    for _ in _train(P, cfgs, np.full(len(cfgs), PRETRAIN_LR), X, y, src,
                    pre_rngs, pretrain_epochs):
        pass
    out = [(M.Weights(spec, p), []) for p in P]
    for stack in _train(P, cfgs, np.array([cfg.lr for cfg in cfgs]), X, y, src,
                        rngs, cfgs[0].epochs):
        for (_, snapshots), p in zip(out, stack):
            snapshots.append(M.Weights(spec, p))
    for (pre, snapshots), (_, data) in zip(out, members):
        acc = [accuracy(w, data.X_test, data.y_test) for w in [pre, *snapshots]]
        if np.mean(acc[1:]) < acc[0] - 0.05:
            log.warning("snapshot accuracy %.3f fell more than 5 points below "
                        "prototype accuracy %.3f", np.mean(acc[1:]), acc[0])
    return out


def accuracy(w: M.Weights, X: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(M.predict_matrix(w.stack, X)[0] == y))


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
                kv = read_settings(fh.read(), manifest)
        except (OSError, UnicodeDecodeError) as exc:
            raise M.CheckpointError(f"{manifest}: cannot read: {exc}") from exc
        except ValueError as exc:
            raise M.CheckpointError(str(exc)) from exc
        missing = [k for k in ("I", "n", "seed", "fingerprint") if not kv.get(k)]
        if missing:
            raise M.CheckpointError(f"{manifest}: no {', '.join(missing)}")
        try:
            I, n = int(kv["I"]), int(kv["n"])
            M.check_count("I", I, 1)
            M.check_count("n", n, 1)
            specs = [kv[f"component_{i}_spec"] for i in range(I)]
            seeds = [int(kv[f"component_{i}_seed"]) for i in range(I)]
            seed = int(kv["seed"])
        except (KeyError, ValueError) as exc:
            raise M.CheckpointError(f"{manifest}: malformed: {exc!r}") from exc

        def read(path, spec):
            if not os.path.isfile(path):
                raise M.CheckpointError(f"{path}: missing")
            w = M.load_weights(path)
            if spec_to_string(w.spec) != spec:
                raise M.CheckpointError(
                    f"{path}: spec {spec_to_string(w.spec)} differs from the "
                    f"manifest's {spec}")
            return w

        components, pretrained = [], []
        for i, spec in enumerate(specs):
            cdir = os.path.join(root, f"component_{i}")
            components.append([read(os.path.join(cdir, f"snapshot_{j}.fxw"), spec)
                               for j in range(n)])
            pretrained.append(read(os.path.join(cdir, "pretrained.fxw"), spec))
        return cls(components, seed=seed, pretrained=pretrained,
                   component_seeds=seeds, fingerprint=kv["fingerprint"])


def read_settings(text: str, where, keys=None) -> dict:
    """``key = value`` lines (``#`` comments) as strings; a line without
    ``=``, a key not in ``keys`` (when given) or a repeated key raises
    ValueError naming ``where`` and the line."""
    out, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}:{lineno}: expected 'key = value', "
                             f"got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if keys is not None and key not in keys:
            raise ValueError(f"{where}:{lineno}: unknown key {key!r}")
        if key in first:
            raise ValueError(f"{where}:{lineno}: key {key!r} repeats line "
                             f"{first[key]}")
        first[key] = lineno
        out[key] = value
    return out


def spec_to_string(spec: M.ModelSpec) -> str:
    parts = [f"arch={spec.arch}", f"d={spec.input_dim}", f"k={spec.num_classes}",
             f"act={spec.activation}"]
    if spec.arch == "mlp":
        parts.append("hidden=" + "x".join(str(h) for h in spec.hidden))
    if spec.arch == "conv_tiny":
        parts.append(f"channels={spec.channels}")
    return ",".join(parts)


def fingerprint(prototypes: Sequence[PrototypeConfig], data: Dataset, *,
                pretrain_epochs: int) -> str:
    """SHA-256 hex digest of everything ``build_ensemble`` trains from.

    It covers the dataset arrays and class count, the ``repr`` of each
    prototype config, the pretraining epochs and the fixed training
    constants, so a saved ensemble whose digest matches is exactly what
    this call would train.
    """
    h = hashlib.sha256()
    for arr in (data.X_train, data.y_train, data.X_test, data.y_test):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(repr((data.num_classes, pretrain_epochs, PRETRAIN_LR,
                   BATCH_SIZE, ADV_STEPS, list(prototypes))).encode())
    return h.hexdigest()


def build_ensembles(pairs: Sequence[tuple], *, pretrain_epochs: int) -> list:
    """``build_ensemble`` of each (prototype set, dataset) pair, trained in
    lockstep: the distinct prototypes (a config on one dataset object) of
    all pairs that share a spec, an epoch count and a training-set size
    train as one (M, P) stack, each on its own dataset and to the numbers
    it would get alone."""
    M.check_count("pretrain epochs", pretrain_epochs, 0)
    if not pairs or not all(protos for protos, _ in pairs):
        raise ValueError("need at least one prototype in every set")
    # a Dataset holds arrays and cannot be hashed: one object is one dataset
    unique = {(cfg, id(data)): (cfg, data) for protos, data in pairs for cfg in protos}
    groups, trained = {}, {}
    for key in sorted(unique, key=lambda key: key[0].training != "normal"):
        cfg, data = unique[key]
        groups.setdefault((cfg.spec, cfg.epochs, len(data.X_train)), []).append(key)
    for keys in groups.values():
        trained.update(zip(keys, _train_group([unique[k] for k in keys],
                                              pretrain_epochs)))
    return [SurrogateEnsemble(
        [trained[cfg, id(data)][1] for cfg in protos], seed=protos[0].seed,
        pretrained=[trained[cfg, id(data)][0] for cfg in protos],
        component_seeds=[cfg.seed for cfg in protos],
        fingerprint=fingerprint(protos, data, pretrain_epochs=pretrain_epochs))
        for protos, data in pairs]


def build_ensemble(prototypes: Sequence[PrototypeConfig], data: Dataset, *,
                   pretrain_epochs: int) -> SurrogateEnsemble:
    """Pretrain each prototype, then fine-tune it into a snapshot component."""
    return build_ensembles([(prototypes, data)], pretrain_epochs=pretrain_epochs)[0]


def desk_prototypes(input_dim: int, num_classes: int, gamma: float,
                    base_seed: int, *, epochs: int = 10, lr: float = 0.05) -> list:
    """The standard four-prototype set: {linear, mlp} x {normal, adversarial}.

    Adversarially trained prototypes use ``ADV_STEPS``-step PGD at
    eps = gamma (the attack budget under study).
    """
    linear = M.ModelSpec("linear", input_dim, num_classes)
    mlp = M.ModelSpec("mlp", input_dim, num_classes, hidden=(16,), activation="relu")
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
