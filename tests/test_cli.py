"""Command-line interface: config files, flag overrides, exit codes."""

import argparse
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transferbound
from transferbound import attacks as A
from transferbound import bounds as B
from transferbound import cli
from transferbound import forge as F
from transferbound import harness as H


TINY = """
# desk-scale smoke settings
input_dim = 2
num_classes = 2
n_train = 160          # snappy training
n_test = 40
n_examples = 2
bound_examples = 1
pretrain_epochs = 6
separation = 6.0
gamma = 0.08
beta_x = 0.04
beta_eps = 0.01
inner_t = 2
n_ls = 1
"""


def tiny_with(extra: str) -> str:
    """TINY with each key that ``extra`` sets taken from ``extra``: a
    config file that names a key twice is an error."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in TINY.splitlines()
            if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def test_parse_config_file(tmp_path):
    path = tmp_path / "good.cfg"
    path.write_text("gamma = 0.1  # budget\n\nmethod = drap\n", encoding="utf-8")
    assert cli.parse_config_file(path) == {"gamma": "0.1", "method": "drap"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma 0.1\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="expected 'key = value'"):
        cli.parse_config_file(bad)

    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("warp_speed = 9\n", encoding="utf-8")
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.parse_config_file(unknown)

    with pytest.raises(cli.ConfigError, match="cannot read"):
        cli.parse_config_file(tmp_path / "missing.cfg")


def test_convert_types():
    assert cli._convert("seeds", "0, 3,7") == (0, 3, 7)
    assert cli._convert("methods", "drap,rap") == ("drap", "rap")
    assert cli._convert("targeted", "true") is True
    assert cli._convert("targeted", "no") is False
    with pytest.raises(cli.ConfigError):
        cli._convert("gamma", "tiny")
    with pytest.raises(cli.ConfigError):
        cli._convert("targeted", "maybe")


def test_bad_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["attack", "--method", "warp"])
    assert err.value.code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for key in ("no_such_key", "workers"):
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        rc = cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


def test_repeated_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("gamma = 0.1\n# budget\ngamma = 0.3\n", encoding="utf-8")
    out = tmp_path / "o"
    rc = cli.main(["bench", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "key 'gamma' repeats line 1" in capsys.readouterr().err
    assert not out.exists()
    # seed and seeds are two keys, with a documented precedence
    cfg.write_text("seed = 1\nseeds = 2,3\n", encoding="utf-8")
    assert cli.parse_config_file(cfg) == {"seed": "1", "seeds": "2,3"}


def test_non_utf8_config_file_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"gamma = \xff\n")
    rc = cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert f"cannot read config file {cfg}" in capsys.readouterr().err


def test_unknown_phi_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("phi = l2\n", encoding="utf-8")
    rc = cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "unknown phi 'l2'" in capsys.readouterr().err


def test_cifar_without_path_exits_2(tiny_config, tmp_path, capsys):
    rc = cli.main(["eval", "--config", str(tiny_config),
                   "--dataset", "cifar10", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "dataset_path" in capsys.readouterr().err


def test_unreadable_cifar_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "no_such_batch.bin"
    cfg = tmp_path / "cifar.cfg"
    cfg.write_text(tiny_with(f"dataset = cifar10\ndataset_path = {missing}\n"),
                   encoding="utf-8")
    rc = cli.main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert f"cannot read dataset file {missing}" in capsys.readouterr().err


def test_infeasible_bound_exits_2(tiny_config, tmp_path, capsys, count_builds):
    rc = cli.main(["bound", "--config", str(tiny_config),
                   "--method", "drap", "--n", "2", "--components", "2",
                   "--phi", "kl", "--c2", "0.0",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "infeasible" in capsys.readouterr().err
    assert count_builds == []  # rejected before any training
    assert not (tmp_path / "o").exists()


def test_more_examples_than_the_test_split_exits_2(tmp_path, capsys):
    cfg = tmp_path / "many.cfg"
    cfg.write_text(TINY.replace("n_examples = 2", "n_examples = 41"),
                   encoding="utf-8")
    out = tmp_path / "o"
    rc = cli.main(["eval", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert "n_test = 40" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    ("dataset = two_rings\ninput_dim = 1\n", "two_rings needs input_dim >= 2"),
    ("dataset = two_rings\nnum_classes = 3\n", "two_rings is a binary problem"),
    ("proto_lr = -0.1\n", "learning rate must be >= 0"),
    ("proto_lr = nan\n", "learning rate must be >= 0 and finite"),
    ("proto_lr = inf\n", "learning rate must be >= 0 and finite"),
    ("gamma = nan\n", "gamma must be >= 0 and finite"),
    ("beta_x = inf\n", "beta_x must be > 0 and finite"),
    ("beta_eps = nan\n", "beta_eps must be >= 0 and finite"),
    ("mu = nan\n", "mu must be >= 0 and finite"),
    ("micro_step = -50\n", "micro_step must be > 0"),
    ("micro_step = nan\n", "micro_step must be > 0"),
    ("micro_step = inf\n", "micro_step must be > 0 and finite"),
    ("rho = nan\n", "rho must be > 0 and finite"),
    ("c1 = nan\n", "c1 must be > 0 and finite"),
    ("r = nan\n", "r (bound_r) must be >= 0 and finite"),
    ("r = -1\n", "r (bound_r) must be >= 0 and finite"),
    ("methods = drap,drap\n", "methods repeat a method"),
    ("separation = nan\n", "separation must be finite"),
    ("separation = inf\n", "separation must be finite"),
    ("seeds = 0,0\n", "seeds repeat a seed"),
    ("pretrain_epochs = -3\n",
     "pretrain epochs must be an integer >= 0, got -3"),
    ("seed = -1\n", "seeds must be an integer >= 0, got -1"),
    ("c2 = inf\n", "c2 must be finite"),
    ("c2 = nan\n", "c2 must be finite"),
], ids=["two_rings_in_1d", "two_rings_with_3_classes", "negative_proto_lr",
        "nan_proto_lr", "inf_proto_lr",
        "nan_gamma", "inf_beta_x", "nan_beta_eps", "nan_mu",
        "negative_micro_step", "nan_micro_step", "inf_micro_step",
        "nan_rho", "nan_c1", "nan_r",
        "negative_r", "repeated_method", "nan_separation", "inf_separation",
        "repeated_seed", "negative_pretrain_epochs", "negative_seed", "inf_c2",
        "nan_c2"])
def test_bad_data_or_prototype_settings_exit_2_before_any_output(
        tmp_path, capsys, extra, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(tiny_with(extra), encoding="utf-8")
    out = tmp_path / "o"
    rc = cli.main(["eval", "--config", str(cfg), "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_divergent_training_exits_3(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(TINY + "proto_lr = 1e308\n", encoding="utf-8")
    with np.errstate(all="ignore"):
        rc = cli.main(["forge", "--config", str(cfg), "--n", "2",
                       "--components", "1", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_forge_then_eval_roundtrip(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["forge", "--config", str(tiny_config), "--n", "2",
                   "--components", "2", "--seed", "5", "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "ensembles" / "seed5" / "surrogate" / "manifest.txt").exists()
    assert (out / "ensembles" / "seed5" / "target" / "manifest.txt").exists()

    rc = cli.main(["eval", "--config", str(tiny_config), "--n", "2",
                   "--components", "2", "--seed", "5", "--out", str(out)])
    assert rc == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert (out / "asr.csv").exists() and (out / "asr_summary.csv").exists()
    assert "asr drap/heldout" in stdout


def test_attack_subcommand_writes_traces(tiny_config, tmp_path):
    out = tmp_path / "atk"
    rc = cli.main(["attack", "--config", str(tiny_config), "--method",
                   "mifgsm", "--n", "2", "--components", "2",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    assert (out / "traces" / "trace_mifgsm_seed0.csv").exists()
    adv = np.load(out / "adv_mifgsm_seed0.npy")
    assert adv.shape == (2, 2)
    assert np.all(adv >= 0.0) and np.all(adv <= 1.0)


def test_bound_subcommand_uses_phi_defaults(tiny_config, tmp_path):
    out = tmp_path / "bnd"
    rc = cli.main(["bound", "--config", str(tiny_config), "--method", "drap",
                   "--n", "2", "--components", "2", "--phi", "kl",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK  # kl defaults (c1=1.2564, c2=1.0) are feasible
    lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == B.BOUND_COLUMNS
    data = [l for l in lines[2:] if not l.startswith("#")]
    assert len(data) == 1 and data[0].startswith("kl,")


def test_bench_subcommand_accounts(tiny_config, tmp_path):
    out = tmp_path / "bench"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(TINY + "methods = ifgsm,drap\nmethod = drap\n",
                   encoding="utf-8")
    rc = cli.main(["bench", "--config", str(cfg), "--n", "2",
                   "--components", "2", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = (out / "bench.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == H.BENCH_COLUMNS
    assert len(lines) == 4  # stamp + header + two methods
    for row in lines[2:]:
        cells = row.split(",")
        assert cells[4] == cells[5]


def test_flags_override_config(tiny_config, tmp_path):
    out = tmp_path / "ovr"
    rc = cli.main(["attack", "--config", str(tiny_config), "--method", "drap",
                   "--n", "2", "--components", "2", "--gamma", "0.02",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    text = (out / "config_used.txt").read_text(encoding="utf-8")
    assert "attack.gamma = 0.02" in text
    trace = (out / "traces" / "trace_drap_seed0.csv").read_text()
    assert "gamma=0.02" in trace.splitlines()[0]


def test_all_subcommand_defaults_complete(tmp_path):
    # the default experiment must run end to end: every method (including
    # the late-start fallback when the schedule is shorter than n_ls),
    # every phase, every manifest
    out = tmp_path / "full"
    cfg = tmp_path / "full.cfg"
    cfg.write_text("n_train = 160\nn_test = 40\ninput_dim = 3\n"
                   "n_examples = 3\nbound_examples = 2\npretrain_epochs = 6\n",
                   encoding="utf-8")
    rc = cli.main(["all", "--config", str(cfg), "--out", str(out),
                   "--seed", "0"])
    assert rc == cli.EXIT_OK
    for name in ("asr.csv", "asr_summary.csv", "bounds.csv", "bench.csv",
                 "config_used.txt"):
        assert (out / name).is_file(), name
    for method in H.ExperimentConfig(out_dir=str(out)).methods:
        assert (out / f"adv_{method}_seed0.npy").is_file(), method
        assert (out / "traces" / f"trace_{method}_seed0.csv").is_file(), method


# ---------------------------------------------------------------------------
# reuse of the ensembles `forge` saved
# ---------------------------------------------------------------------------

SMALL_FLAGS = ["--n", "2", "--components", "2"]
METHODS = H.ExperimentConfig(out_dir="unused").methods


def body(path):
    """File bytes, without the timestamp line that starts every CSV."""
    data = path.read_bytes()
    return data.split(b"\n", 1)[1] if data.startswith(b"# generated") else data


def outputs(root):
    names = ["asr.csv", "asr_summary.csv", "bounds.csv", "bench.csv"]
    names += sorted(p.name for p in root.glob("adv_*.npy"))
    names += sorted(f"traces/{p.name}" for p in root.glob("traces/*.csv"))
    return {name: body(root / name) for name in names}


@pytest.fixture()
def count_builds(monkeypatch):
    """Calls of ``forge._train``, the loop every way in to training runs."""
    builds = []
    real = F._train
    monkeypatch.setattr(F, "_train",
                        lambda *a, **k: builds.append(1) or real(*a, **k))
    return builds


@pytest.mark.parametrize("extra", ["seeds = 0,1\n",
                                   "seeds = 3\ntargeted = true\n"])
def test_commands_after_forge_match_a_fresh_out(tmp_path, count_builds, extra):
    cfg = tmp_path / "reuse.cfg"
    cfg.write_text(TINY + extra, encoding="utf-8")
    saved, fresh = tmp_path / "saved", tmp_path / "fresh"
    args = ["--config", str(cfg), *SMALL_FLAGS]
    assert cli.main(["forge", *args, "--out", str(saved)]) == cli.EXIT_OK
    built_by_forge = len(count_builds)
    assert built_by_forge >= 1  # the hook sees the harness's training
    for command in ("eval", "bound", "bench"):
        assert cli.main([command, *args, "--out", str(saved)]) == cli.EXIT_OK
    assert len(count_builds) == built_by_forge  # nothing retrained
    record = json.loads((saved / "run.json").read_text(encoding="utf-8"))
    assert {e["source"] for e in record["ensembles"].values()} == {"loaded"}

    for command in ("eval", "bound", "bench"):
        assert cli.main([command, *args, "--out", str(fresh)]) == cli.EXIT_OK
    record = json.loads((fresh / "run.json").read_text(encoding="utf-8"))
    assert {e["source"] for e in record["ensembles"].values()} == {"built"}
    got, want = outputs(saved), outputs(fresh)
    assert len(want) == 4 + 2 * len(METHODS) * len(record["ensembles"])
    assert got == want
    for row in (saved / "bench.csv").read_text().splitlines()[2:]:
        cells = row.split(",")
        assert cells[4] == cells[5]


def test_a_three_seed_forge_trains_once_and_saves_what_one_seed_forges_save(
        tmp_path, count_builds):
    def checkpoints(root):
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((root / "ensembles").rglob("*")) if p.is_file()}

    cfg = tmp_path / "three.cfg"
    cfg.write_text(tiny_with("seeds = 0,1,2\n"), encoding="utf-8")
    out = tmp_path / "three"
    assert cli.main(["forge", "--config", str(cfg), "--out", str(out)]) \
        == cli.EXIT_OK
    # every seed's linear and mlp prototypes pretrain and fine-tune as two
    # lockstep groups
    assert len(count_builds) == 4
    want = {}
    for seed in range(3):
        one = tmp_path / f"seed{seed}"
        assert cli.main(["forge", "--config", str(cfg), "--seed", str(seed),
                         "--out", str(one)]) == cli.EXIT_OK
        want.update(checkpoints(one))
    got = checkpoints(out)
    assert len(got) == 3 * 2 * (1 + 4 * (4 + 1))
    assert got == want


def test_forge_then_eval_as_separate_processes(tiny_config, tmp_path):
    out = tmp_path / "out"
    env = dict(os.environ,
               PYTHONPATH=str(Path(transferbound.__file__).parents[1]))
    for command in ("forge", "eval"):
        proc = subprocess.run(
            [sys.executable, "-m", "transferbound.cli", command,
             "--config", str(tiny_config), *SMALL_FLAGS, "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    record = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert record["ensembles"]["0"]["source"] == "loaded"
    assert "asr drap/heldout" in proc.stdout


def test_module_entry_point_prints_no_runtime_warning():
    # the package must not import transferbound.cli before ``-m`` runs it
    env = dict(os.environ,
               PYTHONPATH=str(Path(transferbound.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "transferbound.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("change", [
    ["--gamma", "0.05"],  # the adversarial prototypes' adv_eps
    ["--n", "3"],
    ["--config", "pretrain_epochs = 7\n"],
    ["--config", "separation = 5.0\n"],
])
def test_changed_forge_config_exits_2(tiny_config, tmp_path, capsys,
                                      count_builds, change):
    out = tmp_path / "out"
    assert cli.main(["forge", "--config", str(tiny_config), *SMALL_FLAGS,
                     "--out", str(out)]) == cli.EXIT_OK
    builds = len(count_builds)
    argv = ["eval", "--config", str(tiny_config), *SMALL_FLAGS,
            "--out", str(out)]
    if change[0] == "--config":
        changed = tmp_path / "changed.cfg"
        changed.write_text(tiny_with(change[1]), encoding="utf-8")
        argv[2] = str(changed)
    else:
        argv += change
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out / "ensembles" / "seed0") in err and "re-run `forge`" in err
    assert "fingerprint" in err
    assert len(count_builds) == builds  # no silent retrain
    assert not (out / "asr.csv").exists()


def test_negative_pretrain_epochs_on_saved_ensembles_exits_2(
        tiny_config, tmp_path, capsys, count_builds):
    out = tmp_path / "out"
    assert cli.main(["forge", "--config", str(tiny_config), *SMALL_FLAGS,
                     "--out", str(out)]) == cli.EXIT_OK
    builds = len(count_builds)
    bad = tmp_path / "bad.cfg"
    bad.write_text(tiny_with("pretrain_epochs = -3\n"), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(bad), *SMALL_FLAGS,
                     "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "pretrain epochs must be an integer >= 0, got -3" in err
    assert "fingerprint" not in err
    assert len(count_builds) == builds
    assert not (out / "asr.csv").exists()


def _no_fingerprint(root):
    manifest = root / "surrogate" / "manifest.txt"
    manifest.write_text("".join(
        l for l in manifest.read_text().splitlines(keepends=True)
        if not l.startswith("fingerprint")))


def _no_target_dir(root):
    shutil.rmtree(root / "target")


def _truncated_snapshot(root):
    snap = root / "target" / "component_1" / "snapshot_0.fxw"
    snap.write_bytes(snap.read_bytes()[:40])


def _deleted_snapshot(root):
    (root / "surrogate" / "component_0" / "snapshot_1.fxw").unlink()


def _deleted_pretrained(root):
    (root / "surrogate" / "component_1" / "pretrained.fxw").unlink()


def _spec_header_field(root, offset, value):
    # a snapshot header is the magic, then arch, d, k, activation, n_extra
    snap = root / "target" / "component_0" / "snapshot_1.fxw"
    blob = bytearray(snap.read_bytes())
    blob[offset : offset + 4] = struct.pack("<I", value)
    snap.write_bytes(bytes(blob))


def _one_class_header(root):
    _spec_header_field(root, 12, 1)


def _conv_header_without_channels(root):
    _spec_header_field(root, 4, 2)


def _manifest_names_another_spec(root):
    # component 0 is the desk linear prototype; name the desk mlp instead
    manifest = root / "surrogate" / "manifest.txt"
    manifest.write_text("".join(
        "component_0_spec = arch=mlp,d=2,k=2,act=relu,hidden=16\n"
        if l.startswith("component_0_spec") else l
        for l in manifest.read_text().splitlines(keepends=True)))


@pytest.mark.parametrize("damage", [_no_fingerprint, _no_target_dir,
                                    _truncated_snapshot, _deleted_snapshot,
                                    _deleted_pretrained, _one_class_header,
                                    _conv_header_without_channels,
                                    _manifest_names_another_spec])
def test_damaged_saved_ensembles_exit_2(tiny_config, tmp_path, capsys,
                                        count_builds, damage):
    out = tmp_path / "out"
    args = ["--config", str(tiny_config), *SMALL_FLAGS, "--out", str(out)]
    assert cli.main(["forge", *args]) == cli.EXIT_OK
    builds = len(count_builds)
    damage(out / "ensembles" / "seed0")
    capsys.readouterr()
    assert cli.main(["bench", *args]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(out / "ensembles" / "seed0") in err and "re-run `forge`" in err
    assert len(count_builds) == builds


def test_saved_ensemble_of_another_shape_exits_2(tiny_config, tmp_path,
                                                  capsys, count_builds):
    out = tmp_path / "out"
    args = ["--config", str(tiny_config), *SMALL_FLAGS, "--out", str(out)]
    assert cli.main(["forge", *args]) == cli.EXIT_OK
    builds = len(count_builds)
    root = out / "ensembles" / "seed0"
    manifest = root / "surrogate" / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("I = 2\n", "I = 1\n"))
    capsys.readouterr()
    assert cli.main(["eval", *args]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(root / "surrogate") in err and "re-run `forge`" in err
    assert "holds I = 1, n = 2" in err and "trains I = 2, n = 2" in err
    assert len(count_builds) == builds
    assert not (out / "asr.csv").exists()


def test_nonpositive_c1_exits_2_before_any_training(tiny_config, tmp_path,
                                                     capsys, count_builds):
    rc = cli.main(["bound", "--config", str(tiny_config), *SMALL_FLAGS,
                   "--c1", "0", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "c1 must be > 0" in capsys.readouterr().err
    assert count_builds == []


def test_bounds_with_one_snapshot_exit_2_before_any_training(
        tiny_config, tmp_path, capsys, count_builds):
    out = tmp_path / "o"
    rc = cli.main(["all", "--config", str(tiny_config), "--components", "1",
                   "--n", "1", "--out", str(out)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "components = 1" in err and "n = 1" in err
    assert count_builds == []
    assert not (out / "ensembles").exists()
    assert list(out.glob("adv_*.npy")) == []


def test_negative_bound_examples_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(tiny_with("bound_examples = -1\n"), encoding="utf-8")
    rc = cli.main(["bound", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "bound_examples must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "bounds.csv").exists()


# ---------------------------------------------------------------------------
# the table-driven config against the code it replaced
# ---------------------------------------------------------------------------
#
# Frozen copy of the replaced CLI code: its key sets, value conversion and
# `_experiment_config`, the last returning its keyword arguments instead of
# an ExperimentConfig, which no longer has a `targeted` field.

PHI_DEFAULTS = {"tv": (1.0, 0.0), "kl": (1.2564, 1.0), "chi2": (1.0, 0.25)}

_INT_KEYS = {"inner_t", "n_ls", "n", "components", "seed", "n_examples",
             "bound_examples", "n_train", "n_test", "input_dim",
             "num_classes", "pretrain_epochs"}
_FLOAT_KEYS = {"gamma", "beta_x", "beta_eps", "mu", "r", "c1", "c2", "rho",
               "delta", "separation", "proto_lr", "micro_step"}
_STR_KEYS = {"method", "phi", "out", "dataset", "dataset_path"}
_LIST_KEYS = {"seeds", "methods"}
_BOOL_KEYS = {"targeted"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _LIST_KEYS | _BOOL_KEYS

parse_config_file = cli.parse_config_file


def _convert(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _LIST_KEYS:
            items = [s.strip() for s in raw.split(",") if s.strip()]
            if key == "seeds":
                return tuple(int(s) for s in items)
            return tuple(items)
        return raw
    except ValueError as exc:
        raise cli.ConfigError(f"bad value for {key}: {exc}") from exc


def frozen_experiment_config(args: argparse.Namespace) -> dict:
    file_cfg = parse_config_file(args.config) if args.config else {}
    values = {k: _convert(k, v) for k, v in file_cfg.items()}

    def pick(key, default):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        return values.get(key, default)

    method = pick("method", "drap")
    attack = A.AttackConfig(
        gamma=pick("gamma", 4 / 255),
        beta_x=pick("beta_x", 2 / 255),
        beta_eps=pick("beta_eps", 0.1 / 255),
        inner_T=pick("inner_t", 5),
        n_ls=pick("n_ls", 5),
        mu=pick("mu", 1.0),
        micro_step=values.get("micro_step", 50.0),
        targeted=values.get("targeted", False),
        method=method,
    )

    phi = pick("phi", "chi2")
    default_c1, default_c2 = PHI_DEFAULTS[phi]
    bound = B.BoundConfig(
        phi=phi,
        c1=pick("c1", default_c1),
        c2=pick("c2", default_c2),
        rho=pick("rho", 0.05),
        delta=pick("delta", 0.05),
    )

    if args.seed is not None:
        seeds = (args.seed,)
    elif "seeds" in values:
        seeds = values["seeds"]
    elif "seed" in values:
        seeds = (values["seed"],)
    else:
        seeds = (0,)

    if args.command in ("attack", "bound"):
        methods = (method,)
    else:
        methods = values.get("methods", A.METHODS)
        if method not in methods:
            methods = tuple(methods) + (method,)

    return dict(
        out_dir=pick("out", "tb_out"),
        dataset=pick("dataset", "gaussian_mixture"),
        dataset_path=values.get("dataset_path"),
        input_dim=values.get("input_dim", 6),
        num_classes=values.get("num_classes", 3),
        n_train=values.get("n_train", 600),
        n_test=values.get("n_test", 300),
        separation=values.get("separation", 5.0),
        components=pick("components", 4),
        snapshots=pick("n", 4),
        pretrain_epochs=values.get("pretrain_epochs", 15),
        proto_lr=values.get("proto_lr", 0.05),
        n_examples=values.get("n_examples", 6),
        bound_examples=values.get("bound_examples", 4),
        seeds=seeds,
        methods=methods,
        attack=attack,
        bound=bound,
        bound_r=pick("r", None),
        targeted=values.get("targeted", False),
    )


# today's flags of every subcommand: flag -> (dest, type, choices)
TODAYS_FLAGS = {
    "--config": ("config", None, None),
    "--gamma": ("gamma", float, None),
    "--beta-x": ("beta_x", float, None),
    "--beta-eps": ("beta_eps", float, None),
    "--inner-T": ("inner_t", int, None),
    "--n-ls": ("n_ls", int, None),
    "--mu": ("mu", float, None),
    "--n": ("n", int, None),
    "--components": ("components", int, None),
    "--method": ("method", None, A.METHODS),
    "--phi": ("phi", None, B.PHIS),
    "--r": ("r", float, None),
    "--c1": ("c1", float, None),
    "--c2": ("c2", float, None),
    "--rho": ("rho", float, None),
    "--delta": ("delta", float, None),
    "--seed": ("seed", int, None),
    "--out": ("out", None, None),
    "--dataset": ("dataset", None, H.DATASETS),
}

COMMANDS = ("forge", "attack", "bound", "bench", "eval", "all")

CONFIG_FILES = [
    None,
    "# nothing set\n",
    TINY,
    "seeds = 0,1\nmethods = ifgsm,rap\ntargeted = true\nphi = kl\n",
    "seed = 3\nmethod = rap\nphi = tv\nc1 = 0.5\nmicro_step = 20\n",
    # every key
    "gamma = 0.1\nbeta_x = 0.03\nbeta_eps = 0.002\ninner_t = 3\nn_ls = 2\n"
    "mu = 0.5\nn = 3\ncomponents = 2\nmethod = flat_rap\nphi = chi2\n"
    "r = 0.3\nc1 = 0.8\nc2 = 0.4\nrho = 0.02\ndelta = 0.1\nseed = 9\n"
    "seeds = 4, 5\nout = from_file\ndataset = cifar10\n"
    "dataset_path = batch.bin\ninput_dim = 4\nnum_classes = 4\n"
    "n_train = 100\nn_test = 50\nseparation = 3.5\npretrain_epochs = 7\n"
    "proto_lr = 0.1\nn_examples = 5\nbound_examples = 2\n"
    "micro_step = 10\ntargeted = yes\nmethods = flat_rap,drap\n",
    "seed = 2\nseeds = 7\ntargeted = no\nmethods = drap\nmethod = mifgsm\n"
    "phi = kl\nc2 = 1.5\n",
]

FLAG_SETS = [
    [],
    ["--seed", "7"],
    ["--method", "ifgsm"],
    ["--phi", "kl"],
    ["--phi", "tv", "--c1", "0.9"],
    ["--c2", "0.5", "--rho", "0.1", "--delta", "0.1", "--r", "0.4"],
    ["--gamma", "0.1", "--beta-x", "0.05", "--beta-eps", "0.01",
     "--inner-T", "3", "--n-ls", "2", "--mu", "0.9"],
    ["--n", "3", "--components", "2", "--out", "elsewhere"],
    ["--dataset", "two_rings", "--method", "flat_cwa"],
    ["--gamma", "0.2", "--beta-x", "0.1", "--beta-eps", "0.02",
     "--inner-T", "4", "--n-ls", "0", "--mu", "0.7", "--n", "5",
     "--components", "3", "--method", "mifgsm", "--phi", "chi2",
     "--r", "0.2", "--c1", "1.5", "--c2", "0.3", "--rho", "0.04",
     "--delta", "0.2", "--seed", "11", "--out", "all_flags",
     "--dataset", "gaussian_mixture"],
]


def test_keys_are_todays_config_keys():
    assert set(cli.KEYS) == KNOWN_KEYS
    assert cli.PHI_DEFAULTS is B.PHI_DEFAULTS


@pytest.mark.parametrize("command", COMMANDS)
def test_table_config_equals_the_frozen_one(tmp_path, command):
    parser = cli.build_parser()
    cases = 0
    for i, text in enumerate(CONFIG_FILES):
        config = []
        if text is not None:
            path = tmp_path / f"case{i}.cfg"
            path.write_text(text, encoding="utf-8")
            config = ["--config", str(path)]
        for flags in FLAG_SETS:
            args = parser.parse_args([command, *config, *flags])
            want = frozen_experiment_config(args)
            # the one `targeted` switch is now the attack's
            assert want.pop("targeted") == want["attack"].targeted
            want = H.ExperimentConfig(**want)
            got = cli._experiment_config(args)
            assert got == want, (text, flags)
            assert H._config_lines(got) == H._config_lines(want), (text, flags)
            cases += 1
    assert cases * len(COMMANDS) >= 420


def test_every_command_keeps_todays_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert tuple(sub.choices) == COMMANDS
    for name, sp in sub.choices.items():
        got = {flag: (a.dest, a.type, a.choices) for a in sp._actions
               for flag in a.option_strings if flag not in ("-h", "--help")}
        assert got == TODAYS_FLAGS, name
