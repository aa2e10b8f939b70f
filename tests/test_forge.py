from dataclasses import replace

import numpy as np
import pytest

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
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), seed=7)
        w = F.pretrain(cfg, data)
        assert F.accuracy(w, data.X_test, data.y_test) >= 0.99

    def test_rings_separate_architectures(self):
        data = F.make_dataset("two_rings", 600, 300, 13, input_dim=2)
        lin = F.pretrain(F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), seed=3),
                         data, epochs=80, lr=0.5)
        mlp_spec = M.ModelSpec("mlp", 2, 2, hidden=(16,), activation="tanh")
        mlp = F.pretrain(F.PrototypeConfig(spec=mlp_spec, seed=3), data,
                         epochs=80, lr=0.5)
        lin_acc = F.accuracy(lin, data.X_test, data.y_test)
        mlp_acc = F.accuracy(mlp, data.X_test, data.y_test)
        assert lin_acc <= 0.70  # rings are not linearly separable
        assert mlp_acc >= 0.95


class TestFineTune:
    def test_zero_lr_freezes_snapshots(self):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.0,
                                epochs=4, seed=11)
        pre = F.pretrain(cfg, data, lr=0.25)
        snaps = F.fine_tune_collect(cfg, pre, data)
        assert len(snaps) == 4
        for s in snaps:
            assert s.params.tobytes() == pre.params.tobytes()

    def test_one_snapshot_per_epoch_and_reproducible(self):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.05,
                                epochs=6, seed=11)
        pre = F.pretrain(cfg, data)
        a = F.fine_tune_collect(cfg, pre, data)
        b = F.fine_tune_collect(cfg, pre, data)
        assert len(a) == 6
        for s, t in zip(a, b):
            assert s.params.tobytes() == t.params.tobytes()

    def test_snapshots_move_with_positive_lr(self):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("linear", 2, 2), lr=0.05,
                                epochs=5, seed=11)
        pre = F.pretrain(cfg, data)
        snaps = F.fine_tune_collect(cfg, pre, data)
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
        pre = F.pretrain(cfg, data, lr=0.1, epochs=2)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(F.DivergenceError, match="epoch"):
                F.fine_tune_collect(cfg, pre, data)

    def test_epoch_check_takes_no_weight_gradient(self, monkeypatch):
        data = small_data()
        cfg = F.PrototypeConfig(spec=M.ModelSpec("mlp", 2, 2, hidden=(8,)),
                                lr=0.05, epochs=3, seed=11)
        pre = F.pretrain(cfg, data, epochs=2)
        calls = []
        value_and_grad = M.batch_ce_value_and_weight_grad

        def counted(w, X, y):
            calls.append(len(X))
            return value_and_grad(w, X, y)

        monkeypatch.setattr(M, "batch_ce_value_and_weight_grad", counted)
        F.fine_tune_collect(cfg, pre, data)
        batches = -(-len(data.X_train) // cfg.batch_size)
        # one per SGD step; the per-epoch divergence check is a forward
        assert len(calls) == cfg.epochs * batches
        assert max(calls) == cfg.batch_size

    def test_adversarial_mode_changes_training(self):
        data = small_data()
        spec = M.ModelSpec("linear", 2, 2)
        normal = F.PrototypeConfig(spec=spec, lr=0.05, epochs=3, seed=11)
        adv = F.PrototypeConfig(spec=spec, training="adversarial", adv_eps=0.1,
                                lr=0.05, epochs=3, seed=11)
        pre = F.pretrain(normal, data)
        sa = F.fine_tune_collect(normal, pre, data)
        sb = F.fine_tune_collect(adv, pre, data)
        assert sa[-1].params.tobytes() != sb[-1].params.tobytes()


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
        seen = set()
        for j in range(3):
            for i in range(4):
                seen.add(id(ens.schedule(j, i)))
        assert len(seen) == 12  # every member exactly once

    def test_schedule_bounds_and_random_mode(self):
        ens, _ = self.build()
        with pytest.raises(ValueError):
            ens.schedule(3, 0)
        with pytest.raises(ValueError):
            ens.schedule(0, 4)
        with pytest.raises(ValueError):
            ens.schedule(0, 0, mode="random")
        draws_a = [ens.schedule(0, 1, mode="random", rng=np.random.default_rng(5))
                   for _ in range(6)]
        draws_b = [ens.schedule(0, 1, mode="random", rng=np.random.default_rng(5))
                   for _ in range(6)]
        assert [id(w) for w in draws_a] != [id(ens.schedule(j, 1)) for j in [0] * 6] \
            or True  # random draws may coincide; the real check is reproducibility:
        for a, b in zip(draws_a, draws_b):
            assert a.params.tobytes() == b.params.tobytes()

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

    def test_spec_string_round_trip(self):
        for spec in [M.ModelSpec("linear", 7, 3),
                     M.ModelSpec("mlp", 5, 2, hidden=(8, 4), activation="tanh"),
                     M.ModelSpec("conv_tiny", 9, 4, channels=3)]:
            assert F.spec_from_string(F.spec_to_string(spec)) == spec


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

    def test_defaults_equal_build_ensembles(self):
        # the harness checks saved ensembles against fingerprint(...)
        protos = [replace(self.PROTO, epochs=1)]
        data = small_data(n_train=100, n_test=20)
        assert F.fingerprint(protos, data) == \
            F.build_ensemble(protos, data).fingerprint

    @pytest.mark.parametrize("change", [
        {"spec": M.ModelSpec("mlp", 2, 2, hidden=(4,))},
        {"training": "normal"}, {"lr": 0.06}, {"epochs": 11}, {"seed": 4},
        {"adv_eps": 0.09}, {"adv_steps": 6}, {"batch_size": 16},
    ])
    def test_changed_by_each_prototype_field(self, change):
        data = small_data()
        assert F.fingerprint([self.PROTO], data) != F.fingerprint(
            [replace(self.PROTO, **change)], data)

    def test_changed_by_data_and_pretraining(self):
        data = small_data()
        base = F.fingerprint([self.PROTO], data)
        assert base != F.fingerprint([self.PROTO], small_data(seed=6))
        assert base != F.fingerprint([self.PROTO], small_data(sep=5.0))
        assert base != F.fingerprint([self.PROTO], data, pretrain_epochs=31)
        assert base != F.fingerprint([self.PROTO], data, pretrain_lr=0.2)
        assert base != F.fingerprint([self.PROTO, self.PROTO], data)
