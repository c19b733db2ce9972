"""Every function the benchmark's tracer wraps still exists under its name.

perfbench/tracing.py patches semproc functions by (module, attribute); a
renamed function would leave its layer silently empty in traced runs.  This
reads the two tables and resolves each entry, Class.method entries included.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    return importlib.import_module("tracing")


def test_every_traced_name_resolves(tracing):
    entries = [entry[:2] for entry in tracing.LAYERS + tracing.PEAK_LAYERS]
    assert entries
    for module, attr in entries:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            assert meth in vars(cls), f"{module}.{attr}"
            assert callable(getattr(cls, meth)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
