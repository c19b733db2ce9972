"""Every name a semproc module lists in __all__ resolves in that module and
is read by the package or the benchmark, so is every module-level private
name and every public method of a class, and every name a module imports is
used there.  Quadrature serves only the bounds series oracle, and no module
reaches LAPACK through np.linalg."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import semproc

MODULES = sorted(f"semproc.{m.name}" for m in pkgutil.iter_modules(semproc.__path__))
ROOT = Path(__file__).resolve().parents[1]

# __all__ names that nothing under src/ or perfbench/ reads, each with the
# reason it stays exported
UNREAD_EXPORTS = {
    "semproc.covering.shatter_coefficient":
        "acceptance criterion 6 checks the exact shatter counts of the B(k) classes",
}
# public methods that nothing under src/ or perfbench/ reads, each with the
# reason it stays
UNREAD_METHODS = {
    "intervals.IntervalUnion.symdiff_measure":
        "the exact oracle of lambda_sq_matrix in tests/test_net_arrays.py",
}


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


def _reads(tree: ast.AST, name: str, strings: bool = False, bare: bool = True) -> bool:
    """Whether tree reads name outside the def or class that defines it: as
    an attribute, as a bare name unless bare is unset (a method is read
    through an attribute alone: a bare name of its spelling is a local or a
    parameter), or, when strings is set, as a string constant that is the
    name or starts with it and a dot (perfbench names the layers it traces
    by string, such as "HolderClass.build_net")."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if (bare and isinstance(node, ast.Name) and node.id == name
                and not isinstance(node.ctx, ast.Store)):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
                and (node.value == name or node.value.startswith(name + "."))):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _trees(folder: str) -> list:
    return [ast.parse(p.read_text()) for p in sorted((ROOT / folder).rglob("*.py"))]


def test_every_export_is_read():
    src, bench = _trees("src/semproc"), _trees("perfbench")
    unread = []
    for name in MODULES:
        for entry in getattr(importlib.import_module(name), "__all__", []):
            if not (any(_reads(t, entry) for t in src)
                    or any(_reads(t, entry, strings=True) for t in bench)):
                unread.append(f"{name}.{entry}")
    assert unread == sorted(UNREAD_EXPORTS)


def test_unread_export_is_caught():
    tree = ast.parse("__all__ = ['f', 'g']\ndef f():\n    return f()\ng = 1\n")
    assert not _reads(tree, "f") and not _reads(tree, "g")
    assert _reads(ast.parse("x = f()"), "f") and _reads(ast.parse("m.f"), "f")
    assert _reads(ast.parse("LAYERS = ['f.meth']"), "f", strings=True)
    assert not _reads(ast.parse("LAYERS = ['f.meth']"), "f")


def _private_names(tree: ast.Module) -> list:
    """The module-level private functions, classes and constants tree
    defines (one leading underscore; dunders such as __all__ excepted)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_read():
    src, bench = _trees("src/semproc"), _trees("perfbench")
    unread = [f"{path.stem}.{name}"
              for path, tree in zip(sorted((ROOT / "src/semproc").rglob("*.py")), src)
              for name in _private_names(tree)
              if not (any(_reads(t, name) for t in src)
                      or any(_reads(t, name, strings=True) for t in bench))]
    assert unread == []


def test_unread_private_name_is_caught():
    tree = ast.parse("_LIMIT = 3\n_USED = 4\ndef _helper():\n    return _helper()\n"
                     "class _Box:\n    pass\n__all__ = []\nprint(_USED)\n")
    assert _private_names(tree) == ["_LIMIT", "_USED", "_helper", "_Box"]
    assert [n for n in _private_names(tree) if not _reads(tree, n)] == ["_LIMIT", "_helper",
                                                                        "_Box"]


def _public_methods(tree: ast.Module) -> list:
    """(class, method) for each public method (properties among them) of
    each module-level class tree defines."""
    return [(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


def test_every_public_method_is_read():
    # read as an attribute outside its own def, or named "Class.method" by perfbench
    src, bench = _trees("src/semproc"), _trees("perfbench")
    unread = [f"{path.stem}.{cls}.{name}"
              for path, tree in zip(sorted((ROOT / "src/semproc").rglob("*.py")), src)
              for cls, name in _public_methods(tree)
              if not (any(_reads(t, name, bare=False) for t in src + bench)
                      or any(_reads(t, f"{cls}.{name}", strings=True) for t in bench))]
    assert unread == sorted(UNREAD_METHODS)


def test_unread_public_method_is_caught():
    # a parameter that shares the method's name reads a bare name, not the method
    tree = ast.parse("class Box:\n    def used(self):\n        return 1\n"
                     "    def unused(self):\n        return self.unused()\n"
                     "    def _hidden(self):\n        return 2\nBox().used()\n"
                     "def gap(unused):\n    return unused\n")
    assert _public_methods(tree) == [("Box", "used"), ("Box", "unused")]
    assert [m for _, m in _public_methods(tree) if not _reads(tree, m, bare=False)] == ["unused"]
    assert _reads(tree, "unused")
    assert _reads(ast.parse("LAYERS = ['Box.unused']"), "Box.unused", strings=True)


def _quadrature_importers_and_linalg(source: str) -> tuple:
    """(whether source imports semproc.quadrature, the lines that name
    numpy.linalg), read from its syntax tree."""
    imports_quadrature, linalg = False, []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module, names = node.module or "", [a.name for a in node.names]
            imports_quadrature |= (module in ("quadrature", "semproc.quadrature")
                                   or (module in ("", "semproc") and "quadrature" in names))
            if module.startswith("numpy.linalg") or (module == "numpy" and "linalg" in names):
                linalg.append(node.lineno)
        elif isinstance(node, ast.Import):
            imports_quadrature |= any(a.name == "semproc.quadrature" for a in node.names)
            linalg += [node.lineno for a in node.names if a.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            linalg.append(node.lineno)
    return imports_quadrature, linalg


def test_quadrature_and_linalg_stay_out_of_the_numerics():
    # ulln holds the series oracle; cli maps its QuadratureError to exit 3
    importers, linalg = [], []
    for path in sorted((ROOT / "src/semproc").glob("*.py")):
        quad, lines = _quadrature_importers_and_linalg(path.read_text())
        importers += [path.stem] if quad else []
        linalg += [f"{path.stem}:{line}" for line in lines]
    assert importers == ["cli", "ulln"]
    assert linalg == []


def test_quadrature_and_linalg_guard_catches():
    for source in ("from .quadrature import integrate", "from . import quadrature",
                   "import semproc.quadrature", "from semproc.quadrature import integrate"):
        assert _quadrature_importers_and_linalg(source) == (True, [])
    for source in ("np.linalg.eigh(a)", "import numpy.linalg", "from numpy import linalg",
                   "from numpy.linalg import norm", "numpy.linalg.norm(a)"):
        assert _quadrature_importers_and_linalg(source) == (False, [1])


def test_one_grid_rule_for_set_members():
    # an h member meets the float grid only in function_classes.grid_values
    # and the float lambda_n of PiecewiseLinear, and a set member has no
    # float evaluator, so it is read at i/n through its integer floors alone
    readers = [p.stem for p in sorted((ROOT / "src/semproc").glob("*.py"))
               if _reads(ast.parse(p.read_text()), "grid_points")]
    assert readers == ["function_classes", "piecewise"]
    from semproc.intervals import IntervalUnion
    assert not {"__call__", "indicator"} & set(vars(IntervalUnion))


def test_grid_rule_guard_catches():
    assert _reads(ast.parse("h(grid_points(n))"), "grid_points")
    assert _reads(ast.parse("from .measures import grid_points\nx = grid_points(3)"),
                  "grid_points")
    assert not _reads(ast.parse("def grid_points(n):\n    return n"), "grid_points")


def _outside_input_readers(source: str) -> list:
    """The lines of source that read JSON (json.load or json.loads, called
    or imported by name) or define a descriptor parser."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                a.name in ("load", "loads") for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.FunctionDef) and "descriptor" in node.name:
            lines.append(node.lineno)
    return lines


def test_outside_json_is_read_in_cli_alone():
    # q files, config files, --set values and h_class descriptors are read
    # against cli's key tables; no other module parses outside input
    readers = [p.stem for p in sorted((ROOT / "src/semproc").glob("*.py"))
               if _outside_input_readers(p.read_text())]
    assert readers == ["cli"]


def test_outside_input_guard_catches():
    planted = ("import json\n"
               "def load_spec(path):\n"
               "    with open(path) as fh:\n"
               "        return json.load(fh)\n")
    assert _outside_input_readers(planted) == [4]
    assert _outside_input_readers("x = json.loads(text)") == [1]
    assert _outside_input_readers("from json import loads as parse") == [1]
    assert _outside_input_readers("def parse_class_descriptor(desc):\n    return desc") == [1]
    assert _outside_input_readers("x = json.dumps(obj)\ny = pickle.loads(b)") == []
