"""The traced benchmark run replaces package attributes by name; every
name it lists must exist, and uninstalling must restore each original."""

import importlib
from pathlib import Path


def test_tracer_swaps_every_wrapped_attribute_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    tracing = importlib.import_module("tracing")
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, name, _), raw in zip(tracing.WRAPPED, originals):
            assert vars(owner)[attr] is not raw, name
    finally:
        tracer.uninstall()
    for (owner, attr, name, _), raw in zip(tracing.WRAPPED, originals):
        assert vars(owner)[attr] is raw, name
