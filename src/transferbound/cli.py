"""Command-line interface.

Subcommands map onto the experiment phases: forge builds and saves the
ensembles, attack runs one method and writes traces plus adversarial
batches, bound evaluates the transfer-bound diagnostics, bench reports
gradient-call accounting, eval produces attack-success tables, and all
runs the full protocol.  Every command but forge and all reuses the
ensembles forge saved under the same output directory.

Options may come from flags or from a config file of `key = value`
lines (UTF-8, `#` comments); flags win.  Exit codes: 0 success,
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
from .forge import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

PHASES_BY_COMMAND = {
    "forge": {"forge"},
    "attack": {"attack"},
    "bound": {"bounds"},
    "bench": {"bench"},
    "eval": {"attack", "asr"},
    "all": set(H.ALL_PHASES),
}

# per-divergence fallbacks for (c1, c2) when neither flag nor file sets them
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


class ConfigError(ValueError):
    """Bad flag/config-file input; maps to exit code 2."""


def parse_config_file(path) -> dict:
    """One `key = value` per line; `#` starts a comment; blank lines ok."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


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
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transferbound",
        description="Flat-minima transfer attacks and transferability "
                    "bound diagnostics on desk-scale ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "forge": "train and save surrogate/target ensembles",
        "attack": "run one attack method; save traces and examples",
        "bound": "evaluate bound diagnostics for the chosen method",
        "bench": "report predicted vs observed gradient calls",
        "eval": "run attacks and write attack-success tables",
        "all": "full protocol: forge, attack, eval, bound, bench",
    }
    for name, help_text in helps.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key = value file; flags override")
        sp.add_argument("--gamma", type=float, help="attack budget (sup norm)")
        sp.add_argument("--beta-x", dest="beta_x", type=float,
                        help="outer step size")
        sp.add_argument("--beta-eps", dest="beta_eps", type=float,
                        help="inner ascent step size")
        sp.add_argument("--inner-T", dest="inner_t", type=int,
                        help="inner ascent steps")
        sp.add_argument("--n-ls", dest="n_ls", type=int,
                        help="component epochs before the inner loop starts")
        sp.add_argument("--mu", type=float, help="momentum decay")
        sp.add_argument("--n", type=int, help="snapshots per component")
        sp.add_argument("--components", type=int, help="ensemble components")
        sp.add_argument("--method", choices=A.METHODS, help="attack method")
        sp.add_argument("--phi", choices=B.PHIS, help="divergence family")
        sp.add_argument("--r", type=float, help="localization threshold")
        sp.add_argument("--c1", type=float, help="bound coefficient c1")
        sp.add_argument("--c2", type=float, help="bound coefficient c2")
        sp.add_argument("--rho", type=float, help="sharpness probe radius")
        sp.add_argument("--delta", type=float, help="confidence level")
        sp.add_argument("--seed", type=int, help="experiment seed")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--dataset", choices=H.DATASETS, help="data source")
    return parser


def _experiment_config(args: argparse.Namespace) -> H.ExperimentConfig:
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

    return H.ExperimentConfig(
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
        written = H.run_experiment(cfg, phases=PHASES_BY_COMMAND[args.command])
    except (ConfigError, B.InfeasibleError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (A.NumericError, DivergenceError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    for line in _summarize(written):
        print(line)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
