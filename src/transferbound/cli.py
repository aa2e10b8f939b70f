"""Command-line interface.

Subcommands map onto the experiment phases: forge builds and saves the
ensembles, attack runs one method and writes traces plus adversarial
batches, bound evaluates the transfer-bound diagnostics, bench reports
gradient-call accounting, eval produces attack-success tables, and all
runs the full protocol.  Every command but forge and all reuses the
ensembles forge saved under the same output directory.

Options (the keys of `KEYS`) may come from flags or from a config file
of `key = value` lines (UTF-8, `#` comments); flags win.  What neither
sets keeps its config dataclass's default.  Exit codes: 0 success,
2 configuration error (saved ensembles that do not match the config
included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import attacks as A
from . import bounds as B
from . import harness as H
from .forge import DivergenceError, read_settings

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# command -> (the phases it runs, its help, whether it runs --method alone;
# the other commands add --method to the configured methods)
COMMANDS = {
    "forge": ({"forge"}, "train and save surrogate/target ensembles", False),
    "attack": ({"attack"}, "run one attack method; save traces and examples", True),
    "bound": ({"bounds"}, "evaluate bound diagnostics for the chosen method", True),
    "bench": ({"bench"}, "report predicted vs observed gradient calls", False),
    "eval": ({"attack", "asr"}, "run attacks and write attack-success tables", False),
    "all": (set(H.ALL_PHASES),
            "full protocol: forge, attack, eval, bound, bench", False),
}

# the per-phi (c1, c2) defaults; BoundConfig owns them
PHI_DEFAULTS = B.PHI_DEFAULTS


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _items(raw: str) -> tuple:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


# config key -> (config, field, type, flag help).  config is the
# ExperimentConfig field holding the key's dataclass, or None for
# ExperimentConfig itself.  A key with help is also the flag --<key>,
# with `_` written `-` (but --inner-T); a tuple type lists the choices.
KEYS = {
    "gamma": ("attack", "gamma", float, "attack budget (sup norm)"),
    "beta_x": ("attack", "beta_x", float, "outer step size"),
    "beta_eps": ("attack", "beta_eps", float, "inner ascent step size"),
    "inner_t": ("attack", "inner_T", int, "inner ascent steps"),
    "n_ls": ("attack", "n_ls", int,
             "component epochs before the inner loop starts"),
    "mu": ("attack", "mu", float, "momentum decay"),
    "n": (None, "snapshots", int, "snapshots per component"),
    "components": (None, "components", int, "ensemble components"),
    "method": ("attack", "method", A.METHODS, "attack method"),
    "phi": ("bound", "phi", B.PHIS, "divergence family"),
    "r": (None, "bound_r", float, "localization threshold"),
    "c1": ("bound", "c1", float, "bound coefficient c1"),
    "c2": ("bound", "c2", float, "bound coefficient c2"),
    "rho": ("bound", "rho", float, "sharpness probe radius"),
    "delta": ("bound", "delta", float, "confidence level"),
    "seed": (None, "seeds", int, "experiment seed"),
    "out": (None, "out_dir", str, "output directory"),
    "dataset": (None, "dataset", H.DATASETS, "data source"),
    "micro_step": ("attack", "micro_step", float, None),
    "targeted": ("attack", "targeted", _bool, None),
    "seeds": (None, "seeds", lambda raw: tuple(map(int, _items(raw))), None),
    "methods": (None, "methods", _items, None),
    "dataset_path": (None, "dataset_path", str, None),
    "input_dim": (None, "input_dim", int, None),
    "num_classes": (None, "num_classes", int, None),
    "n_train": (None, "n_train", int, None),
    "n_test": (None, "n_test", int, None),
    "separation": (None, "separation", float, None),
    "pretrain_epochs": (None, "pretrain_epochs", int, None),
    "proto_lr": (None, "proto_lr", float, None),
    "n_examples": (None, "n_examples", int, None),
    "bound_examples": (None, "bound_examples", int, None),
}


class ConfigError(ValueError):
    """Bad flag/config-file input; maps to exit code 2."""


def parse_config_file(path) -> dict:
    """The `key = value` lines of a config file, keys from `KEYS`."""
    try:
        return read_settings(Path(path).read_text(encoding="utf-8"), path, KEYS)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _convert(key: str, raw: str):
    kind = KEYS[key][2]
    try:
        return raw if isinstance(kind, tuple) else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferbound",
        description="Flat-minima transfer attacks and transferability "
                    "bound diagnostics on desk-scale ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key = value file; flags override")
        for key, (_, _, kind, flag_help) in KEYS.items():
            if flag_help is None:
                continue
            flag = "inner-T" if key == "inner_t" else key.replace("_", "-")
            how = {"choices": kind} if isinstance(kind, tuple) else {
                "type": None if kind is str else kind}
            sp.add_argument(f"--{flag}", dest=key, help=flag_help, **how)
    return parser


def _experiment_config(args: argparse.Namespace) -> H.ExperimentConfig:
    """The config the file and flags set; everything else is its default."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items()
             if k in KEYS and v is not None}
    values = {**{k: _convert(k, v) for k, v in file_cfg.items()}, **flags}
    # seed precedence: the flag, then the file's seeds, then its seed
    seed = values.pop("seed", None)
    if seed is not None and ("seed" in flags or "seeds" not in values):
        values["seeds"] = (seed,)
    parts = {"attack": {}, "bound": {}, None: {"out_dir": "tb_out"}}
    for key, value in values.items():
        config, name = KEYS[key][:2]
        parts[config][name] = value
    exp = parts[None]
    exp["attack"] = A.AttackConfig(**parts["attack"])
    exp["bound"] = B.BoundConfig(**parts["bound"])

    method = exp["attack"].method
    methods = exp.get("methods", A.METHODS)
    if COMMANDS[args.command][2]:
        exp["methods"] = (method,)
    elif method not in methods:
        exp["methods"] = tuple(methods) + (method,)
    return H.ExperimentConfig(**exp)


def _summarize(written: dict) -> list:
    lines = []
    table = written.get("asr_table")
    if table is not None:
        for (method, name), cell in sorted(table.rows.items()):
            lines.append(f"asr {method}/{name}: {100.0 * cell.rate:.1f}% "
                         f"({cell.examples} examples x {cell.seeds} seed(s))")
    for key in ("asr", "asr_summary", "bounds", "bench", "config"):
        if key in written:
            lines.append(f"wrote {written[key]}")
    for key in ("ensembles", "traces"):
        if key in written:
            lines.append(f"wrote {written[key]}/")
    return lines


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _experiment_config(args)
        written = H.run_experiment(cfg, phases=COMMANDS[args.command][0])
    except ValueError as exc:  # ConfigError, InfeasibleError, CheckpointError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (A.NumericError, DivergenceError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for line in _summarize(written):
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
