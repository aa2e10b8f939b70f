"""Ingestion, success-rate scoring, and experiment orchestration."""

import json
import platform
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from transferbound import attacks as A
from transferbound import bounds as B
from transferbound import cli
from transferbound import forge as F
from transferbound import harness as H
from transferbound import models as M


# ---------------------------------------------------------------------------
# CIFAR-10 binary ingestion
# ---------------------------------------------------------------------------


def make_record(label, fill):
    pixels = (np.arange(3072, dtype=np.int64) * fill) % 256
    return bytes([label]) + bytes(pixels.astype(np.uint8).tolist())


def test_cifar_loader_parses_records(tmp_path):
    path = tmp_path / "batch.bin"
    rec0 = bytes([3, 255]) + bytes(3071)  # first pixel byte 255
    rec1 = make_record(9, 7)
    path.write_bytes(rec0 + rec1)
    X, y = H.load_cifar10_binary(path, 2)
    assert X.shape == (2, 3072) and y.tolist() == [3, 9]
    assert X[0, 0] == 1.0  # 255 scales to exactly 1.0
    assert X[0, 1] == 0.0
    assert np.all(X >= 0.0) and np.all(X <= 1.0)


def test_cifar_loader_truncated(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(bytes(3072))
    with pytest.raises(ValueError, match="byte offset 0"):
        H.load_cifar10_binary(path, 1)


def test_cifar_loader_trailing_bytes(tmp_path):
    path = tmp_path / "trailing.bin"
    path.write_bytes(make_record(1, 3) + bytes(5))
    with pytest.raises(ValueError, match="byte offset 3073"):
        H.load_cifar10_binary(path, 1)


def test_cifar_loader_bad_label(tmp_path):
    path = tmp_path / "badlabel.bin"
    path.write_bytes(make_record(1, 3) + make_record(12, 3))
    with pytest.raises(ValueError, match="label 12 at byte offset 3073"):
        H.load_cifar10_binary(path, 1)


def test_cifar_bad_label_names_the_file(tmp_path):
    path = tmp_path / "badlabel.bin"
    path.write_bytes(make_record(12, 3))
    with pytest.raises(ValueError) as err:
        H.load_cifar10_binary(path, 1)
    assert str(err.value).startswith(f"{path}: invalid label 12")


def test_cifar_loader_converts_only_the_rows_it_returns(tmp_path):
    path = tmp_path / "batch.bin"
    records = [make_record(i % 10, i + 1) for i in range(1000)]
    path.write_bytes(b"".join(records))
    tracemalloc.start()
    try:
        X, y = H.load_cifar10_binary(path, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the first 50 records, each converted on its own
    assert y.tolist() == [r[0] for r in records[:50]]
    assert X.tobytes() == b"".join(
        (np.frombuffer(r[1:], dtype=np.uint8) / 255.0).tobytes()
        for r in records[:50])
    # the 3.1 MB file and 50 float rows (1.2 MB), not 1,000 (24.6 MB)
    assert peak < 8 << 20


def test_cifar_short_batch_names_the_file(tmp_path):
    batch = tmp_path / "batch.bin"
    batch.write_bytes(b"".join(make_record(i, 1) for i in range(3)))
    cfg = small_config(tmp_path / "o", dataset="cifar10",
                       dataset_path=str(batch), n_train=2, n_test=2,
                       n_examples=1, bound_examples=1)
    with pytest.raises(ValueError) as err:
        H._datasets(cfg)[0]
    assert str(err.value) == f"cifar batch {batch} holds 3 records, need 4"


# ---------------------------------------------------------------------------
# success-rate scoring
# ---------------------------------------------------------------------------


def constant_model(favored, d=2, k=2):
    spec = M.ModelSpec("linear", d, k)
    params = np.zeros(M.param_count(spec))
    params[d * k + favored] = 10.0  # bias pushes every input to one class
    return M.Weights(spec, params)


def test_asr_trivial_cases(monkeypatch):
    x = np.random.default_rng(0).uniform(size=(5, 2))
    zeros = np.zeros(5, dtype=int)
    ones = np.ones(5, dtype=int)
    model0 = constant_model(0)
    table = H.evaluate_asr(x, zeros, {"t": [model0]})
    assert table.rows[("attack", "t")].rate == 0.0  # predicts the label
    table = H.evaluate_asr(x, ones, {"t": [model0]})
    assert table.rows[("attack", "t")].rate == 1.0  # constant wrong class
    table = H.evaluate_asr(x, ones, {"t": [model0]}, targeted=True,
                           target_labels=zeros)
    assert table.rows[("attack", "t")].rate == 1.0
    with pytest.raises(ValueError):
        H.evaluate_asr(x, zeros, {})
    with pytest.raises(ValueError):
        H.evaluate_asr(x, zeros, {"t": []})
    with pytest.raises(ValueError):
        H.evaluate_asr(x, zeros[:3], {"t": [model0]})
    with pytest.raises(ValueError):
        H.evaluate_asr(x, zeros, {"t": [model0]}, targeted=True)
    with pytest.raises(ValueError, match="nonempty"):
        H.evaluate_asr(x[:0], zeros[:0], {"t": [model0]})
    # labels the success test compares must be an integer array of classes
    # of the set, checked before its forward pass: a float label never
    # equals a prediction, and a bool one reads as a class
    monkeypatch.setattr(M, "predict_matrix",
                        lambda *a: pytest.fail("forward pass"))
    in_range = r"must lie in \[0, 2\) for target set 't'"
    for labels, kwargs, message in (
            (np.full(5, 7), {}, "labels " + in_range),
            (np.full(5, -1), {}, "labels " + in_range),
            (zeros, {"targeted": True, "target_labels": np.full(5, 5)},
             "target labels " + in_range),
            (np.full(5, 0.5), {}, "labels must have an integer dtype"),
            (ones.astype(bool), {}, "labels must have an integer dtype"),
            (zeros, {"targeted": True, "target_labels": np.full(5, 0.5)},
             "target labels must have an integer dtype"),
            (zeros, {"targeted": True, "target_labels": zeros.astype(bool)},
             "target labels must have an integer dtype"),
            (zeros, {"targeted": True, "target_labels": zeros[:3]},
             "target labels must align with labels")):
        with pytest.raises(ValueError, match=f"^{message}"):
            H.evaluate_asr(x, labels, {"t": [model0]}, **kwargs)


def test_asr_matches_manual_count(tiny_setup):
    ens, data = tiny_setup
    x = data.X_test[:10]
    y = data.y_test[:10].astype(int)
    sets = {"compA": list(ens.components[0]), "compB": list(ens.components[1])}
    table = H.evaluate_asr(x, y, sets, method="probe")
    for name, models in sets.items():
        wrong = 0
        for w in models:
            for i in range(10):
                pred = int(np.argmax(M.forward(w, x[i])))
                wrong += int(pred != y[i])
        cell = table.rows[("probe", name)]
        assert cell.rate == pytest.approx(wrong / (10 * len(models)), abs=1e-15)
        assert cell.examples == 10 and cell.seeds == 1


def test_asr_mixed_spec_set_matches_per_model_count(tiny_setup):
    ens, _ = tiny_setup
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(40, 2))
    y = rng.integers(0, 2, 40)
    # linear and mlp snapshots interleaved: two spec groups, not runs
    mixed = [c[j] for j in range(3) for c in ens.components]
    preds = np.array([[np.argmax(M.forward(w, xi)) for xi in x] for w in mixed])
    for targeted in (False, True):
        hits = preds == 1 - y if targeted else preds != y
        assert len({int(row.sum()) for row in hits}) > 1  # the models disagree
        table = H.evaluate_asr(x, y, {"mixed": mixed}, targeted=targeted,
                               target_labels=1 - y)
        assert table.rows[("attack", "mixed")].rate == hits.sum() / hits.size


def test_asr_table_validation():
    with pytest.raises(ValueError):
        H.AsrTable({("m", "s"): H.AsrCell(1.5, 10, 1)})
    with pytest.raises(ValueError):
        H.AsrTable({("m", "s"): H.AsrCell(0.5, 0, 1)})


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------


def small_config(out_dir, targeted=False, **overrides):
    base = dict(
        out_dir=str(out_dir),
        input_dim=2, num_classes=2, n_train=200, n_test=60,
        separation=6.0, components=2, snapshots=2, pretrain_epochs=8,
        n_examples=3, bound_examples=2, seeds=(0,),
        methods=("mifgsm", "drap"),
        attack=A.AttackConfig(gamma=0.08, beta_x=0.04, beta_eps=0.01,
                              inner_T=2, n_ls=1, method="drap",
                              targeted=targeted),
        bound=B.BoundConfig(phi="chi2", c1=1.0, c2=0.25, rho=0.05),
    )
    base.update(overrides)
    return H.ExperimentConfig(**base)


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        small_config(tmp_path, seeds=())
    with pytest.raises(ValueError):
        small_config(tmp_path, n_examples=0)
    with pytest.raises(ValueError):
        small_config(tmp_path, dataset="imagenet")
    with pytest.raises(ValueError):
        small_config(tmp_path, dataset="cifar10")  # no path given
    with pytest.raises(ValueError):
        small_config(tmp_path, methods=("mifgsm", "bogus"))
    with pytest.raises(ValueError):
        small_config(tmp_path, methods=("mifgsm",))  # primary method missing
    with pytest.raises(ValueError, match="methods must be nonempty"):
        small_config(tmp_path, methods=())
    for name in ("components", "snapshots", "n_examples", "bound_examples",
                 "n_train", "n_test", "input_dim", "num_classes"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            small_config(tmp_path, **{name: 2.5})
    with pytest.raises(ValueError, match="seeds must be an integer"):
        small_config(tmp_path, seeds=(1.5,))
    for epochs in (-3, 2.5):
        with pytest.raises(ValueError, match=re.escape(
                f"pretrain epochs must be an integer >= 0, got {epochs}")):
            small_config(tmp_path, pretrain_epochs=epochs)
    with pytest.raises(ValueError):
        H.run_experiment(small_config(tmp_path), phases={"attack", "plot"})


def strip_stamp(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# generated ")
    return lines[1:]


def test_run_experiment_outputs_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    written = H.run_experiment(small_config(out1))
    for key in ("asr", "asr_summary", "bounds", "bench", "config"):
        assert written[key].exists()
    assert (out1 / "traces" / "trace_drap_seed0.csv").exists()
    assert (out1 / "adv_mifgsm_seed0.npy").exists()
    assert (out1 / "ensembles" / "seed0" / "surrogate" / "manifest.txt").exists()

    asr_rows = strip_stamp(written["asr"])
    assert asr_rows[0] == H.ASR_COLUMNS
    assert len(asr_rows) == 1 + 2  # header + (2 methods x 1 set x 1 seed)
    for row in asr_rows[1:]:
        method, name, seed, examples, pct = row.split(",")
        assert method in ("mifgsm", "drap") and name == "heldout"
        assert int(examples) == 3 and 0.0 <= float(pct) <= 100.0

    bench_rows = strip_stamp(written["bench"])
    assert bench_rows[0] == H.BENCH_COLUMNS
    for row in bench_rows[1:]:
        cells = row.split(",")
        assert cells[0] in ("mifgsm", "drap")
        assert cells[4] == cells[5]  # predicted == observed

    bound_rows = strip_stamp(written["bounds"])
    assert bound_rows[0] == B.BOUND_COLUMNS
    data_rows = [r for r in bound_rows[1:] if not r.startswith("#")]
    assert len(data_rows) == 2
    for row in data_rows:
        assert row.split(",")[0] == "chi2"

    # rerun: byte-identical apart from the timestamp line of each CSV
    out2 = tmp_path / "run2"
    H.run_experiment(small_config(out2))
    for rel in ("asr.csv", "asr_summary.csv", "bounds.csv", "bench.csv",
                "traces/trace_drap_seed0.csv", "traces/trace_mifgsm_seed0.csv"):
        a, b = out1 / rel, out2 / rel
        a_lines = a.read_text(encoding="utf-8").splitlines()
        b_lines = b.read_text(encoding="utf-8").splitlines()
        if a_lines[0].startswith("# generated"):
            a_lines, b_lines = a_lines[1:], b_lines[1:]
        assert a_lines == b_lines, rel
    for rel in ("adv_drap_seed0.npy", "adv_mifgsm_seed0.npy"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
    # config echo differs only in the output path itself
    cfg1 = [l for l in (out1 / "config_used.txt").read_text().splitlines()
            if not l.startswith("out_dir")]
    cfg2 = [l for l in (out2 / "config_used.txt").read_text().splitlines()
            if not l.startswith("out_dir")]
    assert cfg1 == cfg2


def test_run_experiment_multi_seed_summary(tmp_path, monkeypatch):
    seed_cells = []
    evaluate = H.evaluate_asr

    def recorded(*args, **kwargs):
        table = evaluate(*args, **kwargs)
        seed_cells.append(table.rows[("drap", "heldout")])
        return table

    monkeypatch.setattr(H, "evaluate_asr", recorded)
    cfg = small_config(tmp_path / "ms", seeds=(0, 1), methods=("drap",))
    written = H.run_experiment(cfg, phases={"attack", "asr"})
    rows = strip_stamp(written["asr"])
    assert len(rows) == 1 + 2  # header + one row per seed
    summary = strip_stamp(written["asr_summary"])
    assert summary[0] == H.ASR_SUMMARY_COLUMNS
    method, name, seeds, examples, pct = summary[1].split(",")
    assert seeds == "2" and int(examples) == 3
    table = written["asr_table"]
    assert table.rows[("drap", "heldout")].seeds == 2
    # equal weight per seed
    assert len(seed_cells) == 2
    rate = table.rows[("drap", "heldout")].rate
    assert rate == float(np.mean([c.rate for c in seed_cells]))
    assert pct == f"{100.0 * rate:.1f}"


def test_run_experiment_cifar_branch(tmp_path):
    records = b"".join(make_record(i % 10, i + 1) for i in range(30))
    batch = tmp_path / "batch.bin"
    batch.write_bytes(records)
    cfg = small_config(
        tmp_path / "cifar", dataset="cifar10", dataset_path=str(batch),
        n_train=24, n_test=6, n_examples=2, components=1, snapshots=2,
        pretrain_epochs=2, methods=("drap",))
    written = H.run_experiment(cfg, phases={"attack", "asr"})
    rows = strip_stamp(written["asr"])
    assert len(rows) == 2
    cfg_short = small_config(
        tmp_path / "cifar2", dataset="cifar10", dataset_path=str(batch),
        n_train=28, n_test=6, methods=("drap",))
    with pytest.raises(ValueError, match="need 34"):
        H.run_experiment(cfg_short, phases={"attack"})


def test_cifar_seeds_share_one_dataset_of_the_rows_they_use(tmp_path,
                                                            monkeypatch):
    batch = tmp_path / "batch.bin"
    batch.write_bytes(b"".join(make_record(i % 10, i + 1) for i in range(30)))
    cfg = small_config(
        tmp_path / "cifar", dataset="cifar10", dataset_path=str(batch),
        n_train=24, n_test=4, n_examples=2, components=1, snapshots=2,
        pretrain_epochs=2, methods=("drap",), seeds=(0, 1))
    datasets = H._datasets(cfg)
    assert datasets[0] is datasets[1]
    data, (X, y) = datasets[0], H.load_cifar10_binary(batch, 30)
    # views of a copy of the 28 rows used, not of the 30-record batch
    assert data.X_train.base.shape == (28, 3072)
    assert data.X_test.base is data.X_train.base
    assert data.X_train.tobytes() + data.X_test.tobytes() == X[:28].tobytes()
    assert data.y_train.tolist() + data.y_test.tolist() == y[:28].tolist()
    # both seeds' prototypes train on the one stacked dataset
    stacks, train = [], F._train
    monkeypatch.setattr(F, "_train", lambda P, cfgs, lr, X, *a: stacks.append(
        X.shape) or train(P, cfgs, lr, X, *a))
    H.run_experiment(cfg, phases={"attack"})
    assert stacks == [(1, 24, 3072)] * 2


def test_run_experiment_creates_missing_dirs(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    written = H.run_experiment(small_config(nested, methods=("drap",)),
                               phases={"asr"})
    assert written["asr"].exists()


def test_five_components_reuse_the_first_desk_prototype_reseeded(tmp_path,
                                                                  monkeypatch):
    cfg = small_config(tmp_path / "five", components=5, methods=A.METHODS)
    data = H._datasets(cfg)[0]
    desk = F.desk_prototypes(2, 2, gamma=cfg.attack.gamma, base_seed=17,
                             epochs=cfg.snapshots, lr=cfg.proto_lr)
    assert H._prototypes(cfg, data, base_seed=17) == desk + [
        replace(desk[0], seed=desk[0].seed + 7919)]
    built, build = [], F.build_ensembles
    monkeypatch.setattr(F, "build_ensembles",
                        lambda *a, **k: built.append(build(*a, **k)) or built[-1])
    written = H.run_experiment(cfg, phases={"attack", "asr", "bench"})
    (surrogate, target_ens), = built
    # linear, linear, mlp, mlp, linear: the linear members are two runs
    idx = {spec.arch: idx for spec, idx, _ in surrogate.stack.groups}
    assert idx == {"linear": [0, 1, 2, 3, 8, 9], "mlp": slice(4, 8)}
    X, y = data.X_test[:cfg.n_examples], data.y_test[:cfg.n_examples].astype(int)
    for method in A.METHODS:
        adv = np.load(tmp_path / "five" / f"adv_{method}_seed0.npy")
        state = A.run_attack(X, y, surrogate, replace(
            H._method_config(cfg, method, 0, surrogate), record_trace=False))
        assert adv.tobytes() == state.x_hat.tobytes(), method
        cell = written["asr_table"].rows[(method, "heldout")]
        want = H.evaluate_asr(adv, y, {"heldout": list(target_ens.all_members())},
                              method=method).rows[(method, "heldout")]
        assert cell == want
    for row in strip_stamp(written["bench"])[1:]:
        cells = row.split(",")
        assert cells[2] == "5" and cells[4] == cells[5]


def frozen_per_example_attacks(cfg, out):
    """The per-example attack loop that ``run_experiment`` replaced with one
    batched ``run_attack`` per method, kept as its oracle: a traced run on
    example 0 and untraced runs on the rest, one call per example, written
    as the adversarial batches, example 0's traces and ``bench.csv``."""
    (out / "traces").mkdir(parents=True)
    bench_lines = []
    for seed in cfg.seeds:
        data = H._datasets(cfg)[seed]
        surrogate = F.build_ensemble(
            H._prototypes(cfg, data, base_seed=1000 * seed + 17), data,
            pretrain_epochs=cfg.pretrain_epochs)
        X = data.X_test[: cfg.n_examples]
        y = data.y_test[: cfg.n_examples].astype(int)
        labels = (y + 1) % data.num_classes if cfg.attack.targeted else y
        for method in cfg.methods:
            acfg = H._method_config(cfg, method, seed, surrogate)
            first = replace(acfg, record_trace=True)
            rest = replace(acfg, record_trace=False)
            states = [A.run_attack(X[i], int(labels[i]), surrogate,
                                   rest if i else first)
                      for i in range(cfg.n_examples)]
            np.save(out / f"adv_{method}_seed{seed}.npy",
                    np.stack([s.x_hat for s in states]))
            (out / "traces" / f"trace_{method}_seed{seed}.csv").write_text(
                A.trace_to_csv(states[0], acfg), encoding="utf-8")
            s0 = states[0]
            bench_lines.append(
                f"{method},{len(s0.trace)},{surrogate.num_components},"
                f"{surrogate.snapshots_per_component},"
                f"{s0.predicted_grad_calls},{s0.grad_calls}")
    H._write_csv(out / "bench.csv", H.BENCH_COLUMNS, bench_lines)


@pytest.mark.parametrize("targeted", [False, True])
def test_batched_attacks_write_what_per_example_runs_wrote(tmp_path, targeted):
    cfg = small_config(tmp_path / "batched", methods=A.METHODS, seeds=(0, 1),
                       n_examples=5, targeted=targeted)
    H.run_experiment(cfg, phases={"attack", "bench"})
    oracle = tmp_path / "oracle"
    frozen_per_example_attacks(cfg, oracle)
    got = tmp_path / "batched"
    assert strip_stamp(got / "bench.csv") == strip_stamp(oracle / "bench.csv")
    for seed in cfg.seeds:
        for method in A.METHODS:
            rel = f"adv_{method}_seed{seed}.npy"
            assert (got / rel).read_bytes() == (oracle / rel).read_bytes(), rel
            rel = f"traces/trace_{method}_seed{seed}.csv"
            assert (got / rel).read_text() == (oracle / rel).read_text(), rel


def test_run_record(tmp_path):
    cfg = small_config(tmp_path / "rec", methods=A.METHODS, seeds=(0, 1),
                       n_examples=4)
    written = H.run_experiment(cfg, phases={"asr", "bench"})
    record = json.loads(written["run"].read_text(encoding="utf-8"))
    assert written["run"] == tmp_path / "rec" / "run.json"
    assert record["config"] == \
        (tmp_path / "rec" / "config_used.txt").read_text().splitlines()
    assert record["python"] == platform.python_version()
    assert record["numpy"] == np.__version__
    assert list(record["phase_s"]) == ["forge", "attack", "asr"]
    assert all(v >= 0.0 for v in record["phase_s"].values())
    assert list(record["methods"]) == list(A.METHODS)
    bench = {row.split(",")[0]: int(row.split(",")[4])
             for row in strip_stamp(written["bench"])[1:]}
    for method, entry in record["methods"].items():
        assert entry["examples"] == 8 and entry["seconds"] > 0.0
        # bench.csv holds the last seed's per-example count; K is fixed
        assert entry["grad_calls_predicted"] == entry["grad_calls_observed"] \
            == 8 * bench[method]
    # no saved ensembles: each seed trains its own
    assert list(record["ensembles"]) == ["0", "1"]
    for entry in record["ensembles"].values():
        assert entry["source"] == "built" and len(entry["fingerprint"]) == 64
    # no attacks, no run record
    assert "run" not in H.run_experiment(
        small_config(tmp_path / "forge_only"), phases={"forge"})
    assert not (tmp_path / "forge_only" / "run.json").exists()
    # after forge, the same config loads what forge saved
    written = H.run_experiment(small_config(tmp_path / "forge_only"),
                               phases={"bench"})
    record = json.loads(written["run"].read_text(encoding="utf-8"))
    manifest = (tmp_path / "forge_only" / "ensembles" / "seed0" / "surrogate"
                / "manifest.txt").read_text(encoding="utf-8")
    assert record["ensembles"] == {"0": {
        "source": "loaded", "fingerprint": manifest.split(
            "fingerprint = ")[1].split()[0]}}


@pytest.mark.parametrize("targeted", [False, True])
def test_saved_ensembles_are_reused_not_retrained(tmp_path, monkeypatch,
                                                  targeted):
    # count calls of forge._train, the loop every way in to training runs
    builds = []
    real = F._train
    monkeypatch.setattr(F, "_train",
                        lambda *a, **k: builds.append(1) or real(*a, **k))
    cfg = small_config(tmp_path / "fresh", seeds=(0, 1), targeted=targeted)
    H.run_experiment(cfg)
    assert builds  # the hook sees a fresh run's training
    reused = replace(cfg, out_dir=str(tmp_path / "reused"))
    H.run_experiment(reused, phases={"forge"})
    builds.clear()
    written = H.run_experiment(reused, phases=H.ALL_PHASES - {"forge"})
    assert builds == []
    fresh, got = tmp_path / "fresh", tmp_path / "reused"
    for rel in ("asr.csv", "asr_summary.csv", "bounds.csv", "bench.csv"):
        assert strip_stamp(got / rel) == strip_stamp(fresh / rel), rel
    for seed in cfg.seeds:
        for method in cfg.methods:
            for rel in (f"adv_{method}_seed{seed}.npy",
                        f"traces/trace_{method}_seed{seed}.csv"):
                assert (got / rel).read_bytes() == (fresh / rel).read_bytes()
    want = json.loads((fresh / "run.json").read_text(encoding="utf-8"))
    record = json.loads(written["run"].read_text(encoding="utf-8"))
    for method, entry in record["methods"].items():
        for key in ("examples", "grad_calls_predicted", "grad_calls_observed"):
            assert entry[key] == want["methods"][method][key]
    assert {s: e["source"] for s, e in record["ensembles"].items()} == \
        {"0": "loaded", "1": "loaded"}
    assert {s: e["fingerprint"] for s, e in record["ensembles"].items()} == \
        {s: e["fingerprint"] for s, e in want["ensembles"].items()}


def test_a_later_seeds_damaged_checkpoint_fails_before_any_attack(tmp_path,
                                                                  capsys):
    config = tmp_path / "two_seeds.cfg"
    config.write_text("input_dim = 2\nnum_classes = 2\nn_train = 120\n"
                      "n_test = 30\nn_examples = 2\nbound_examples = 1\n"
                      "pretrain_epochs = 4\ncomponents = 2\nn = 2\n"
                      "seeds = 0,1\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["--config", str(config), "--out", str(out)]
    assert cli.main(["forge", *args]) == cli.EXIT_OK
    manifest = out / "ensembles" / "seed1" / "target" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("n = 2\n", "n = 3\n"))
    capsys.readouterr()
    assert cli.main(["eval", *args]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out / "ensembles" / "seed1") in err and "re-run `forge`" in err
    # seed 0 loaded cleanly, yet nothing of it was attacked or written
    assert list(out.glob("adv_*")) == []
    assert not (out / "traces").exists()
    assert not (out / "asr.csv").exists()
