import logging
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferbound import forge as F
from transferbound import models as M


def small_data(seed=5, n_train=400, n_test=200, d=2, k=2, sep=6.0):
    return F.make_dataset("gaussian_mixture", n_train, n_test, seed,
                          input_dim=d, num_classes=k, separation=sep)


class TestDatasets:
    def test_deterministic_and_in_unit_box(self):
        for kind, kw in [("gaussian_mixture", dict(input_dim=5, num_classes=3)),
                         ("two_rings", dict(input_dim=4))]:
            a = F.make_dataset(kind, 50, 20, 9, **kw)
            b = F.make_dataset(kind, 50, 20, 9, **kw)
            assert a.X_train.tobytes() == b.X_train.tobytes()
            assert a.X_test.tobytes() == b.X_test.tobytes()
            assert np.array_equal(a.y_train, b.y_train)
            for X in (a.X_train, a.X_test):
                assert X.min() >= 0.0 and X.max() <= 1.0

    def test_different_seeds_differ(self):
        a = small_data(seed=1)
        b = small_data(seed=2)
        assert not np.array_equal(a.X_train, b.X_train)

    def test_labels_cover_all_classes(self):
        data = F.make_dataset("gaussian_mixture", 90, 30, 3,
                              input_dim=6, num_classes=5)
        assert set(np.unique(data.y_train)) == set(range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            F.make_dataset("blobs", 10, 10, 0)
        with pytest.raises(ValueError):
            F.make_dataset("gaussian_mixture", 0, 10, 0)
        with pytest.raises(ValueError):
            F.make_dataset("gaussian_mixture", 10, 10, 0, num_classes=1)
        with pytest.raises(ValueError):
            F.make_dataset("two_rings", 10, 10, 0, input_dim=1)
        with pytest.raises(ValueError):
            F.make_dataset("two_rings", 10, 10, 0, num_classes=3)

    def test_well_separated_mixture_is_linearly_learnable(self):
        # expected value derived by actually training the linear prototype
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), epochs=1, seed=7)
        w, = F.build_ensemble([cfg], data, pretrain_epochs=30).pretrained
        assert F.accuracy(w, data.X_test, data.y_test) >= 0.99

    def test_rings_separate_architectures(self):
        data = F.make_dataset("two_rings", 600, 300, 13, input_dim=2)
        mlp_spec = M.ModelSpec("mlp", 2, 2, hidden=(16,), activation="tanh")
        lin, mlp = F.build_ensemble(
            [F.PrototypeConfig(spec=spec, epochs=1, seed=3)
             for spec in (M.ModelSpec("linear", 2, 2), mlp_spec)],
            data, pretrain_epochs=160).pretrained
        lin_acc = F.accuracy(lin, data.X_test, data.y_test)
        mlp_acc = F.accuracy(mlp, data.X_test, data.y_test)
        assert lin_acc <= 0.70  # rings are not linearly separable
        assert mlp_acc >= 0.95


@pytest.mark.parametrize("change, message", [
    (dict(lr=np.nan), "learning rate must be >= 0 and finite"),
    (dict(lr=np.inf), "learning rate must be >= 0 and finite"),
    (dict(training="adversarial", adv_eps=np.nan), "adv_eps must be > 0 and finite"),
    (dict(training="adversarial", adv_eps=np.inf), "adv_eps must be > 0 and finite"),
    (dict(epochs=2.5), "epochs must be an integer >= 1, got 2.5"),
    (dict(epochs=True), "epochs must be an integer >= 1, got True"),
    (dict(training="mixup"), "unknown training mode 'mixup'"),
], ids=["nan_lr", "inf_lr", "nan_adv_eps", "inf_adv_eps", "fractional_epochs",
        "bool_epochs", "unknown_training"])
def test_prototype_config_rejects_non_finite_settings(change, message):
    with pytest.raises(ValueError, match=message):
        F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), **change)


def test_training_entry_points_check_their_settings():
    data = small_data(n_train=40, n_test=10)
    cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), epochs=1)
    for build in (lambda: F.build_ensemble([cfg], data, pretrain_epochs=2.5),
                  lambda: F.build_ensembles([([cfg], data)], pretrain_epochs=-1)):
        with pytest.raises(ValueError, match="pretrain epochs must be an integer"):
            build()
    for sets in ([[]], [], [[cfg], []]):
        with pytest.raises(ValueError, match="at least one prototype"):
            F.build_ensembles([(protos, data) for protos in sets],
                              pretrain_epochs=1)
    with pytest.raises(ValueError, match="at least one prototype"):
        F.build_ensemble([], data, pretrain_epochs=1)
    wide = F.PrototypeConfig(spec=M.ModelSpec("linear", 3, 2), epochs=1)
    with pytest.raises(ValueError, match="disagree on input dim"):
        F.build_ensemble([wide], data, pretrain_epochs=1)


class TestFineTune:
    def test_zero_lr_freezes_snapshots(self):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.0,
                                epochs=4, seed=11)
        ens = F.build_ensemble([cfg], data, pretrain_epochs=5)
        pre, snaps = ens.pretrained[0], ens.components[0]
        assert len(snaps) == 4
        for s in snaps:
            assert s.params.tobytes() == pre.params.tobytes()

    def test_one_snapshot_per_epoch_and_reproducible(self):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.05,
                                epochs=6, seed=11)
        a, b = (F.build_ensemble([cfg], data, pretrain_epochs=5).components[0]
                for _ in range(2))
        assert len(a) == 6
        for s, t in zip(a, b):
            assert s.params.tobytes() == t.params.tobytes()

    def test_snapshots_move_with_positive_lr(self):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.05,
                                epochs=5, seed=11)
        snaps = F.build_ensemble([cfg], data, pretrain_epochs=5).components[0]
        probe = data.X_test[0]
        kind = M.bounded_error(int(data.y_test[0]))
        vals = np.array([M.loss(s, probe, kind) for s in snaps])
        # population variance over the trajectory is strictly positive
        assert vals.var() > 0.0

    def test_divergence_names_epoch(self):
        data = small_data()
        # cross-entropy gradients are bounded, so the parameters must be
        # driven over the float64 ceiling for the loss to leave the reals
        cfg = F.PrototypeConfig(spec=M.ModelSpec("mlp", 2, 2, hidden=(8,)),
                                lr=1e305, epochs=3, seed=11)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(F.DivergenceError, match="epoch"):
                F.build_ensemble([cfg], data, pretrain_epochs=2)

    @pytest.mark.parametrize("lr, logged", [
        (5.0, ["snapshot accuracy 0.512 fell more than 5 points below "
               "prototype accuracy 1.000"]),
        (0.05, []),
    ], ids=["large_lr", "small_lr"])
    def test_snapshot_accuracy_drop_is_logged(self, caplog, lr, logged):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("mlp", 2, 2, hidden=(8,)),
                                lr=lr, epochs=3, seed=11)
        caplog.set_level(logging.WARNING, logger=F.log.name)
        F.build_ensemble([cfg], data, pretrain_epochs=2)
        assert [r.getMessage() for r in caplog.records
                if r.name == F.log.name] == logged

    def test_one_diverging_member_stops_its_lockstep_group(self):
        data, other = small_data(), small_data(seed=6)
        spec = M.ModelSpec("mlp", 2, 2, hidden=(8,))
        calm = F.PrototypeConfig(spec=spec, lr=0.05, epochs=3, seed=11)
        wild = F.PrototypeConfig(spec=spec, lr=1e305, epochs=3, seed=12)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(F.DivergenceError, match="epoch"):
                F.build_ensemble([calm, wild], data, pretrain_epochs=2)
            # one group spans both datasets; the error names whose run it was
            with pytest.raises(F.DivergenceError) as err:
                F.build_ensembles([([calm], data), ([wild], other)],
                                  pretrain_epochs=2)
        assert str(err.value).startswith(
            "training diverged at epoch 0 for prototype seeds [12]")

    def test_epoch_check_takes_no_weight_gradient(self, monkeypatch):
        data = small_data()
        spec = M.ModelSpec("mlp", 2, 2, hidden=(8,))
        cfgs = [F.PrototypeConfig(spec=spec, lr=0.05, epochs=3, seed=11),
                F.PrototypeConfig(spec=spec, training="adversarial", adv_eps=0.1,
                                  lr=0.05, epochs=3, seed=12)]
        calls = []
        grads = M.batch_ce_grads

        def counted(spec, layers, X, kind, weights=False):
            if weights:
                calls.append(X.shape[:-1])
            return grads(spec, layers, X, kind, weights)

        monkeypatch.setattr(M, "batch_ce_grads", counted)
        F.build_ensemble(cfgs, data, pretrain_epochs=2)
        batches = -(-len(data.X_train) // F.BATCH_SIZE)
        # one per SGD step of the group; the per-epoch divergence check is
        # a forward
        assert len(calls) == (2 + 3) * batches
        assert max(calls) == (2, F.BATCH_SIZE)

    def test_adversarial_mode_changes_training(self):
        data = small_data()
        spec = M.ModelSpec("linear", 2, 2)
        normal = F.PrototypeConfig(spec=spec, lr=0.05, epochs=3, seed=11)
        adv = F.PrototypeConfig(spec=spec, training="adversarial", adv_eps=0.1,
                                lr=0.05, epochs=3, seed=11)
        # with no pretraining both fine-tune from the same init
        ens = F.build_ensemble([normal, adv], data, pretrain_epochs=0)
        pa, pb = ens.pretrained
        assert pa.params.tobytes() == pb.params.tobytes()
        sa, sb = ens.components
        assert sa[-1].params.tobytes() != sb[-1].params.tobytes()

    @pytest.mark.parametrize("spec", [
        M.ModelSpec("linear", 6, 3), M.ModelSpec("mlp", 6, 3, hidden=(8,)),
        M.ModelSpec("conv_tiny", 6, 3, channels=4)], ids=lambda s: s.arch)
    def test_adversarial_minibatch_slices_its_layer_views_once(self,
                                                               monkeypatch, spec):
        data = F.make_dataset("gaussian_mixture", 40, 10, 12, input_dim=6,
                              num_classes=3)
        cfgs = [F.PrototypeConfig(spec=spec, epochs=1, seed=12),
                F.PrototypeConfig(spec=spec, training="adversarial",
                                  adv_eps=0.1, epochs=1, seed=13)]
        want = frozen_build_ensemble(cfgs, data, 1)
        layers, sliced = M._layers, []

        def counted(spec, P, lead):
            sliced.append((len(P), lead))
            return layers(spec, P, lead)

        monkeypatch.setattr(M, "_layers", counted)
        rngs = [np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF1]))
                for cfg in cfgs]
        P = np.array([pre.params for pre in want[1]])
        (stack,) = F._train(P, cfgs, np.full(2, 0.05), data.X_train[None],
                            data.y_train[None], np.zeros(2, int), rngs, 1)
        # both minibatches' 5 PGD steps and weight steps share the views of
        # the group stack and of its adversarial slice
        assert sliced == [(2, 0), (1, 0)]
        assert [s.tobytes() for s in stack] == [
            comp[0].params.tobytes() for comp in want[0]]

    def test_training_holds_no_copy_of_the_stack_per_epoch(self):
        # one wide prototype: its parameters dwarf a 16-row minibatch's
        # activations, so an epoch's stack copy would show in the peak
        data = F.make_dataset("gaussian_mixture", 16, 8, 3, input_dim=64)
        spec = M.ModelSpec("mlp", 64, 2, hidden=(512,))
        cfg = F.PrototypeConfig(spec=spec, epochs=1, seed=3)
        epochs, stack_bytes = 60, 8 * M.param_count(spec)
        tracemalloc.start()
        try:
            ens = F.build_ensemble([cfg], data, pretrain_epochs=epochs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.size == 1
        # per-epoch copies of the pretraining stack alone would hold
        # epochs * stack_bytes at once
        assert peak < 16 * stack_bytes < epochs * stack_bytes


class TestEnsemble:
    def build(self, n=3, seed=17):
        data = small_data(seed=seed)
        protos = F.desk_prototypes(2, 2, gamma=0.08, base_seed=seed,
                                   epochs=n, lr=0.05)
        return F.build_ensemble(protos, data, pretrain_epochs=12), data

    def test_shape_and_schedule_bijection(self):
        ens, _ = self.build()
        assert ens.num_components == 4
        assert ens.snapshots_per_component == 3
        assert ens.size == 12

    def test_members_are_stacked_once_when_the_ensemble_is_made(self):
        ens, data = self.build(n=2)
        members = list(ens.all_members())
        assert ens.stack.size == ens.size
        kind = M.bounded_error(1)
        assert M.loss_matrix(ens.stack, data.X_test, kind).tobytes() == \
            M.loss_matrix(M.member_stack(members), data.X_test, kind).tobytes()
        wider = M.init_weights(M.ModelSpec("linear", 3, 2), np.random.default_rng(0))
        more = M.init_weights(M.ModelSpec("linear", 2, 3), np.random.default_rng(0))
        for odd in (wider, more):
            with pytest.raises(ValueError, match="input dim or the number of classes"):
                F.SurrogateEnsemble([members[:2], [members[2], odd]])

    def test_uniform_snapshot_count_enforced(self):
        ens, _ = self.build()
        bad = [list(c) for c in ens.components]
        bad[0] = bad[0][:-1]
        with pytest.raises(ValueError):
            F.SurrogateEnsemble(bad)
        with pytest.raises(ValueError, match="at least one non-empty component"):
            F.SurrogateEnsemble([list(ens.components[0]), []])

    def test_save_load_round_trip(self, tmp_path):
        ens, _ = self.build()
        root = tmp_path / "ens"
        ens.save(root)
        back = F.SurrogateEnsemble.load(root)
        assert back.num_components == ens.num_components
        assert back.snapshots_per_component == ens.snapshots_per_component
        for ca, cb in zip(ens.components, back.components):
            for wa, wb in zip(ca, cb):
                assert wa.spec == wb.spec
                assert wa.params.tobytes() == wb.params.tobytes()
        assert back.pretrained is not None
        manifest = (root / "manifest.txt").read_text()
        assert "I = 4" in manifest and "n = 3" in manifest
        assert "component_0_spec" in manifest
        assert f"fingerprint = {ens.fingerprint}" in manifest
        assert back.fingerprint == ens.fingerprint
        assert back.component_seeds == ens.component_seeds

    def test_save_needs_a_fingerprint(self, tmp_path):
        ens, _ = self.build(n=1)
        with pytest.raises(ValueError, match="fingerprint"):
            F.SurrogateEnsemble(ens.components).save(tmp_path / "ens")

    def test_save_needs_prototypes_and_their_seeds(self, tmp_path):
        ens, _ = self.build(n=1)
        for missing in ("pretrained", "component_seeds"):
            with pytest.raises(ValueError, match="prototypes"):
                replace(ens, **{missing: None}).save(tmp_path / "ens")
        assert not (tmp_path / "ens").exists()

    def test_load_rejects_a_partial_prototype_set(self, tmp_path):
        ens, _ = self.build(n=1)
        ens.save(tmp_path)
        manifest = tmp_path / "manifest.txt"
        text = manifest.read_text()
        manifest.write_text(text.replace("component_2_seed", "# dropped"))
        with pytest.raises(M.CheckpointError, match="component_2_seed"):
            F.SurrogateEnsemble.load(tmp_path)
        manifest.write_text(text)
        (tmp_path / "component_3" / "pretrained.fxw").unlink()
        with pytest.raises(M.CheckpointError,
                           match=r"component_3.pretrained\.fxw: missing"):
            F.SurrogateEnsemble.load(tmp_path)

    @pytest.mark.parametrize("key", ["I", "n", "seed", "fingerprint"])
    def test_load_rejects_manifest_without(self, tmp_path, key):
        ens, _ = self.build(n=1)
        ens.save(tmp_path)
        manifest = tmp_path / "manifest.txt"
        lines = [l for l in manifest.read_text().splitlines()
                 if not l.startswith(f"{key} =")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(M.CheckpointError, match=f"manifest.txt: no {key}"):
            F.SurrogateEnsemble.load(tmp_path)

    def test_load_rejects_missing_or_broken_files(self, tmp_path):
        ens, _ = self.build(n=2)
        with pytest.raises(M.CheckpointError, match="manifest.txt"):
            F.SurrogateEnsemble.load(tmp_path / "nothing")
        ens.save(tmp_path)
        snap = tmp_path / "component_1" / "snapshot_1.fxw"
        blob = snap.read_bytes()
        snap.write_bytes(blob[:-8])
        with pytest.raises(M.CheckpointError, match="snapshot_1.fxw: truncated"):
            F.SurrogateEnsemble.load(tmp_path)
        snap.unlink()
        with pytest.raises(M.CheckpointError, match="snapshot_1.fxw: missing"):
            F.SurrogateEnsemble.load(tmp_path)
        # a snapshot of another spec than the manifest names for its component
        other = tmp_path / "component_2" / "snapshot_0.fxw"
        snap.write_bytes(other.read_bytes())
        with pytest.raises(M.CheckpointError, match="differs from the manifest"):
            F.SurrogateEnsemble.load(tmp_path)
        (tmp_path / "manifest.txt").write_bytes(b"I = \xff\n")
        with pytest.raises(M.CheckpointError, match="manifest.txt: cannot read"):
            F.SurrogateEnsemble.load(tmp_path)

    @pytest.mark.parametrize("line, message", [
        ("I = 1", r"manifest.txt:\d+: key 'I' repeats line 1"),
        ("seed", r"manifest.txt:\d+: expected 'key = value', got 'seed'"),
    ], ids=["repeated_key", "bare_line"])
    def test_manifest_with_a_repeated_key_or_a_bare_line_is_refused(
            self, tmp_path, line, message):
        ens, _ = self.build(n=1)
        ens.save(tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + line + "\n")
        with pytest.raises(M.CheckpointError, match=message):
            F.SurrogateEnsemble.load(tmp_path)

    def test_prototype_diversity_at_adversarial_probes(self):
        # mean bounded loss at perturbed probes must differ somewhere across
        # prototypes: the components really are different hypotheses
        ens, data = self.build(n=3)
        rng = np.random.default_rng(23)
        idx = rng.integers(0, len(data.X_test), 100)
        probes = np.clip(data.X_test[idx] + rng.uniform(-0.08, 0.08,
                                                        (100, 2)), 0, 1)
        means = []
        for comp in ens.components:
            vals = [np.mean([M.loss(w, p, M.bounded_error(int(y)))
                             for w in comp])
                    for p, y in zip(probes, data.y_test[idx])]
            means.append(np.mean(vals))
        spread = max(means) - min(means)
        assert spread > 0.01

    def test_load_checks_each_architecture_against_its_spec_line(self, tmp_path):
        # load compares each checkpoint's spec, rendered by spec_to_string,
        # with its component's manifest line, so every branch is exercised
        specs = [M.ModelSpec("linear", 9, 4),
                 M.ModelSpec("mlp", 9, 4, hidden=(8, 4), activation="tanh"),
                 M.ModelSpec("conv_tiny", 9, 4, channels=3)]
        rng = np.random.default_rng(0)
        ens = F.SurrogateEnsemble(
            [[M.init_weights(s, rng) for _ in range(2)] for s in specs],
            seed=0, pretrained=[M.init_weights(s, rng) for s in specs],
            component_seeds=[0, 1, 2], fingerprint="0" * 64)
        ens.save(tmp_path)
        back = F.SurrogateEnsemble.load(tmp_path)
        assert [[w.spec for w in c] for c in back.components] == [
            [s, s] for s in specs]
        assert [w.spec for w in back.pretrained] == specs
        assert back.stack.size == 6
        manifest = tmp_path / "manifest.txt"
        text = manifest.read_text()
        assert "component_1_spec = arch=mlp,d=9,k=4,act=tanh,hidden=8x4\n" in text
        manifest.write_text(text.replace("act=tanh", "act=relu"))
        with pytest.raises(M.CheckpointError, match="component_1.snapshot_0.fxw: "
                           "spec .*act=tanh.* differs from the manifest's"):
            F.SurrogateEnsemble.load(tmp_path)


class TestFingerprint:
    PROTO = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2),
                              training="adversarial", adv_eps=0.08, seed=3)

    def test_stable_across_calls_and_equal_to_build(self):
        data = small_data()
        first = F.fingerprint([self.PROTO], data, pretrain_epochs=2)
        assert first == F.fingerprint([self.PROTO], small_data(),
                                      pretrain_epochs=2)
        assert len(first) == 64 and int(first, 16) >= 0
        ens = F.build_ensemble([replace(self.PROTO, epochs=1)], data,
                               pretrain_epochs=2)
        assert ens.fingerprint == F.fingerprint(
            [replace(self.PROTO, epochs=1)], data, pretrain_epochs=2)

    def test_fingerprint_and_build_have_no_default_epochs(self):
        # the harness checks saved ensembles against fingerprint(...), so
        # neither side may fall back to a pretraining length of its own
        protos = [replace(self.PROTO, epochs=1)]
        data = small_data(n_train=100, n_test=20)
        for call in (F.fingerprint, F.build_ensemble):
            with pytest.raises(TypeError, match="pretrain_epochs"):
                call(protos, data)

    @pytest.mark.parametrize("change", [
        {"spec": M.ModelSpec("mlp", 2, 2, hidden=(4,))},
        {"training": "normal"}, {"lr": 0.06}, {"epochs": 11}, {"seed": 4},
        {"adv_eps": 0.09},
    ])
    def test_changed_by_each_prototype_field(self, change):
        data = small_data()
        assert F.fingerprint([self.PROTO], data, pretrain_epochs=30) != \
            F.fingerprint([replace(self.PROTO, **change)], data, pretrain_epochs=30)

    def test_changed_by_data_and_pretraining(self):
        data = small_data()
        fp = partial(F.fingerprint, pretrain_epochs=30)
        base = fp([self.PROTO], data)
        assert base != fp([self.PROTO], small_data(seed=6))
        assert base != fp([self.PROTO], small_data(sep=5.0))
        assert base != F.fingerprint([self.PROTO], data, pretrain_epochs=31)
        assert base != fp([self.PROTO, self.PROTO], data)

    @pytest.mark.parametrize("name, value", [
        ("BATCH_SIZE", 16), ("ADV_STEPS", 6), ("PRETRAIN_LR", 0.2),
    ])
    def test_changed_by_the_training_constants(self, monkeypatch, name, value):
        data = small_data()
        base = F.fingerprint([self.PROTO], data, pretrain_epochs=30)
        monkeypatch.setattr(F, name, value)
        assert base != F.fingerprint([self.PROTO], data, pretrain_epochs=30)


# ---------------------------------------------------------------------------
# lockstep training against the one-prototype-at-a-time code it replaced
# ---------------------------------------------------------------------------
#
# Frozen copies of ``_pgd_batch``, ``_sgd_epochs``, the one-member
# pretraining and fine-tuning calls and ``build_ensemble``'s loop, which
# trained each prototype alone through one-member passes, with the weight
# branch of the one-member backward pass they used.


def frozen_ce_grad(w, X, y, weights):
    """The input gradients of the cross-entropy at a labelled (B, d) batch,
    or the weight gradient of its mean."""
    spec = w.spec
    logits, cache = M._forward_stack(spec, M._layers(spec, w.params[None], 0), X)
    dlogits = M.dloss_dlogits(logits, M.targeted_cross_entropy(y))
    if not weights:
        return M._backward_stack(spec, cache, dlogits)[0]
    dl, layers, grads = dlogits[0] / len(y), cache["layers"], []
    if spec.arch == "linear":
        grads.append((dl.T @ X, dl.sum(axis=0)))
    elif spec.arch == "mlp":
        dh = dl[None]
        for i in range(len(layers) - 1, -1, -1):
            if i < len(layers) - 1:
                dh = dh * M._act_grad(spec, cache["pre"][i], cache["post"][i])
            below = cache["post"][i - 1][0] if i else X
            grads.append((dh[0].T @ below, dh[0].sum(axis=0)))
            dh = dh @ layers[i][0]
    else:
        (K, _), (W, _) = layers
        d = spec.input_dim
        grads.append((dl.T @ cache["pooled"][0], dl.sum(axis=0)))
        da = (((dl[None] @ W)[..., None] / d)
              * M._act_grad(spec, cache["pre"], cache["post"]))
        dK = np.zeros(K.shape[1:])
        for j in range(spec.kernel_size):
            dK[:, j] = np.einsum("bcp,bp->c", da[0], cache["xpad"][:, j : j + d])
        grads.append((dK, da[0].sum(axis=(0, 2))))
    return np.concatenate([np.concatenate([gw.ravel(), gb])
                           for gw, gb in reversed(grads)])


def frozen_pgd_batch(w, X, y, eps):
    step = 2.5 * eps / F.ADV_STEPS
    lo, hi = np.clip(X - eps, 0, 1), np.clip(X + eps, 0, 1)
    Xa = X.copy()
    for _ in range(F.ADV_STEPS):
        g = frozen_ce_grad(w, Xa, y, weights=False)
        Xa = np.clip(Xa + step * np.sign(g), lo, hi)
    return Xa


def frozen_sgd_epochs(w, cfg, lr, data, rng, epochs):
    X, y = data.X_train, data.y_train
    snapshots = []
    for epoch in range(epochs):
        perm = rng.permutation(len(X))
        for start in range(0, len(X), F.BATCH_SIZE):
            idx = perm[start : start + F.BATCH_SIZE]
            Xb, yb = X[idx], y[idx]
            if cfg.training == "adversarial":
                Xb = frozen_pgd_batch(w, Xb, yb, cfg.adv_eps)
            grad = frozen_ce_grad(w, Xb, yb, weights=True)
            w = M.Weights(cfg.spec, w.params - lr * grad)
        if not np.all(np.isfinite(w.params)):
            raise F.DivergenceError(f"training diverged at epoch {epoch}")
        snapshots.append(w)
    return snapshots


def frozen_prototype(cfg, data, epochs):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF0]))
    w0 = M.init_weights(cfg.spec, rng)
    snapshots = frozen_sgd_epochs(w0, cfg, F.PRETRAIN_LR, data, rng, epochs)
    return snapshots[-1] if snapshots else w0


def frozen_snapshots(cfg, pretrained, data):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xF1]))
    return frozen_sgd_epochs(pretrained, cfg, cfg.lr, data, rng, cfg.epochs)


def frozen_build_ensemble(prototypes, data, pretrain_epochs):
    """(components, pretrained) as ``build_ensemble`` trained them."""
    components, pres = [], []
    for cfg in prototypes:
        pre = frozen_prototype(cfg, data, pretrain_epochs)
        components.append(frozen_snapshots(cfg, pre, data))
        pres.append(pre)
    return components, pres


@st.composite
def prototype_sets(draw):
    """1-3 (set, dataset) pairs of 1-4 prototypes over mixed specs, with
    per-set epoch counts and a ragged last minibatch: a set shares the
    last set's dataset object, or draws its own of the same or another
    size, so that a lockstep group often spans several datasets."""
    d, k = draw(st.integers(2, 5)), draw(st.integers(2, 3))
    specs = [M.ModelSpec("linear", d, k),
             M.ModelSpec("mlp", d, k, hidden=(5,), activation="relu"),
             M.ModelSpec("mlp", d, k, hidden=(4, 3), activation="tanh"),
             M.ModelSpec("conv_tiny", d, k, channels=2)]
    # two specs at a time, so that groups of several members are common
    specs = draw(st.sampled_from([specs[:2], specs[1:3], specs[2:], specs[::3]]))
    pairs, seed, n_train = [], 0, draw(st.integers(20, 70))
    for i in range(draw(st.sampled_from([3, 2, 1]))):
        # a set keeps the last one's epochs, or draws its own
        if not i or draw(st.booleans()):
            epochs = draw(st.integers(1, 2))
        protos = []
        for _ in range(draw(st.integers(1, 4))):
            adversarial = draw(st.booleans())
            protos.append(F.PrototypeConfig(
                spec=draw(st.sampled_from(specs)),
                training="adversarial" if adversarial else "normal",
                lr=draw(st.sampled_from([0.0, 0.02, 0.05, 0.3])),
                epochs=epochs, seed=seed,
                adv_eps=draw(st.sampled_from([0.03, 0.1, 0.2])) if adversarial
                else 0.0))
            seed += 1
        source = draw(st.sampled_from(["same_size", "shared", "own_size"])
                      if i else st.just("own_size"))
        if source == "shared":
            data = pairs[-1][1]
        else:
            if source == "own_size":
                n_train = draw(st.integers(20, 70))
            data = F.make_dataset("gaussian_mixture", n_train, 10,
                                  draw(st.integers(0, 3)), input_dim=d,
                                  num_classes=k)
        pairs.append((protos, data))
    return pairs, draw(st.integers(0, 2))


@settings(max_examples=50, deadline=None)
@given(case=prototype_sets())
def test_lockstep_training_equals_one_prototype_at_a_time_bitwise(case):
    pairs, pretrain_epochs = case
    built = F.build_ensembles(pairs, pretrain_epochs=pretrain_epochs)
    for (protos, data), ens in zip(pairs, built):
        components, pres = frozen_build_ensemble(protos, data, pretrain_epochs)
        assert [[w.params.tobytes() for w in comp] for comp in ens.components] \
            == [[w.params.tobytes() for w in comp] for comp in components]
        assert [w.params.tobytes() for w in ens.pretrained] == \
            [w.params.tobytes() for w in pres]
        assert ens.fingerprint == F.fingerprint(protos, data,
                                                pretrain_epochs=pretrain_epochs)
        assert ens.component_seeds == [cfg.seed for cfg in protos]
