"""Flat-minima transfer attacks and transferability bound diagnostics."""

from .forge import build_ensemble, desk_prototypes, make_dataset
from .attacks import AttackConfig, run_attack
from .bounds import BoundConfig, assemble_bound, profile

__all__ = [
    "build_ensemble",
    "desk_prototypes",
    "make_dataset",
    "AttackConfig",
    "run_attack",
    "BoundConfig",
    "assemble_bound",
    "profile",
]
