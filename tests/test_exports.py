"""Every name a semproc module lists in __all__ resolves in that module, and
every name it imports is used there."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import semproc

MODULES = sorted(f"semproc.{m.name}" for m in pkgutil.iter_modules(semproc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [entry for entry in exported if not hasattr(module, entry)] == []


def _unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads and
    __all__ does not list (from __future__ imports excepted)."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    path = Path(importlib.import_module(name).__file__)
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "import math\nfrom numpy import sqrt, pi as PI\nprint(PI)\n"
    assert _unused_imports(source) == ["math", "sqrt"]
