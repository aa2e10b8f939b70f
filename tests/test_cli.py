"""Command-line interface: config files, flag overrides, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transferbound
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


def test_cifar_without_path_exits_2(tiny_config, tmp_path, capsys):
    rc = cli.main(["eval", "--config", str(tiny_config),
                   "--dataset", "cifar10", "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "dataset_path" in capsys.readouterr().err


def test_infeasible_bound_exits_2(tiny_config, tmp_path, capsys):
    rc = cli.main(["bound", "--config", str(tiny_config),
                   "--method", "drap", "--n", "2", "--components", "2",
                   "--phi", "kl", "--c2", "0.0",
                   "--out", str(tmp_path / "o")])
    assert rc == cli.EXIT_CONFIG
    assert "infeasible" in capsys.readouterr().err


def test_divergent_training_exits_3(tiny_config, tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(TINY + "proto_lr = inf\n", encoding="utf-8")
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
    builds = []
    real = F.build_ensemble
    monkeypatch.setattr(F, "build_ensemble",
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
        changed.write_text(TINY + change[1], encoding="utf-8")
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


@pytest.mark.parametrize("damage", [_no_fingerprint, _no_target_dir,
                                    _truncated_snapshot, _deleted_snapshot])
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
