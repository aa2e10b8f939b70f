"""The benchmark reads the package by name.  Every attribute it reads must
exist and every keyword it passes must be a parameter; the traced run
replaces package attributes by name, and uninstalling must restore each
original."""

import ast
import importlib
import inspect
from pathlib import Path

from transferbound import attacks as A
from transferbound import bounds as B

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_tracer_swaps_every_wrapped_attribute_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))
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


def package_reads(tree):
    """(dotted name, object, call node or None) for each outermost
    attribute chain rooted at a ``from transferbound import m as X`` alias;
    an attribute the package lacks is an AttributeError here."""
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "transferbound"
               for a in node.names}
    calls = {id(node.func): node for node in ast.walk(tree)
             if isinstance(node, ast.Call)}
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or id(node) in inner:
            continue
        parts, root = [], node
        while isinstance(root, ast.Attribute):
            parts.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in aliases:
            obj = importlib.import_module(f"transferbound.{aliases[root.id]}")
            name = aliases[root.id]
            for attr in reversed(parts):
                name += "." + attr
                obj = getattr(obj, attr)
            yield name, obj, calls.get(id(node))


def test_every_package_name_the_benchmark_reads_exists():
    seen = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        for name, obj, call in package_reads(ast.parse(path.read_text())):
            seen.add(name)
            if call is None:
                continue
            params = inspect.signature(obj).parameters
            if any(p.kind is p.VAR_KEYWORD for p in params.values()):
                continue
            for kw in call.keywords:
                assert kw.arg is None or kw.arg in params, f"{path.name}: {name}({kw.arg}=)"
    # a positive control: the scan sees the reads the workloads depend on
    assert {"attacks.predict_ngrad", "bounds.assemble_bound", "bounds.profile",
            "cli.PHI_DEFAULTS", "forge.SurrogateEnsemble.load",
            "harness.ALL_PHASES", "models.GRAD_CALLS.value",
            "models.batch_ce_value_and_weight_grad"} <= seen


def test_the_traced_spans_read_what_the_calls_return(monkeypatch, quad_setup):
    # the scan above sees module attributes only; the span attributes come
    # from call results (``result.method``, ``result.candidates``) and fail
    # only at run time, so one real call of each is traced here
    monkeypatch.syspath_prepend(str(BENCHMARK))
    tracing = importlib.import_module("tracing")
    ens, data = quad_setup
    X, y = data.X_test[:3], data.y_test[:3].astype(int)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        x_hat = A.run_attack(X, y, ens, A.AttackConfig(method="mifgsm")).x_hat[0]
        r = B.profile(x_hat, ens, int(y[0])).surrogate_risk + 0.05
        B.assemble_bound(x_hat, X[0], 0.1, ens, ens.pretrained, int(y[0]),
                         B.BoundConfig(), r, sharpness_steps=1)
    finally:
        tracer.uninstall()
    attrs = {s.name: s.attrs for s in tracer.spans}
    assert attrs["attacks.run_attack"] == {"method": "mifgsm"}
    kept = attrs["bounds.CandidateSetXr.build"]
    assert kept["pool"] == B.N_CANDIDATES + 1 and 0 < kept["kept"] <= kept["pool"]
