"""Command-line interface: config files, flag overrides, exit codes."""

import numpy as np
import pytest

from transferbound import bounds as B
from transferbound import cli
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
