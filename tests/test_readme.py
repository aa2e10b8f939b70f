"""README's library example runs as written, the package root exports
exactly the names it imports, and every module attribute README names
exists."""

import ast
import importlib
import math
import re
from pathlib import Path

import transferbound

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_root_exports_exactly_the_example_imports():
    names = [alias.name for node in ast.walk(ast.parse(library_example()))
             if isinstance(node, ast.ImportFrom) and node.module == "transferbound"
             for alias in node.names]
    assert sorted(transferbound.__all__) == sorted(names)


def test_library_example_runs(capsys):
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert math.isfinite(scope["report"].assembled)
    assert ">=" in capsys.readouterr().out


def test_module_references_resolve():
    # `bounds.csv` and the like are file names, not attributes
    text = README.read_text(encoding="utf-8")
    refs = set(re.findall(
        r"`(models|forge|attacks|bounds|harness|cli)\.(\w+(?:\.\w+)*)", text))
    refs = {(m, path) for m, path in refs
            if path not in ("csv", "txt", "json", "npy", "fxw", "cfg")}
    assert len(refs) >= 20  # the pattern still finds the references
    for module, path in sorted(refs):
        obj = importlib.import_module(f"transferbound.{module}")
        for name in path.split("."):
            assert hasattr(obj, name), f"README names {module}.{path}"
            obj = getattr(obj, name)
