"""Every function the benchmark's tracer wraps still exists under its name,
and the j = 0 exact-statistic layer still sees every replicate.

perfbench/tracing.py patches semproc functions by (module, attribute); a
renamed function, or one the experiments stop calling, would leave its layer
silently empty in traced runs.  This reads the two tables and resolves each
entry, Class.method entries included, then counts the j = 0 layer's calls in
a traced ulln run.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_j0_layer_counts_every_replicate():
    # gc_experiment sends each B(1) replicate through sup_deviation_exact_BW,
    # the function the ulln-prefix workload's named layer wraps; the tracer
    # patches module globals for good, so it runs in a child process
    n_schedule, replicates = [20, 50], 3
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        import tracing
        from semproc.cli import run_experiment
        spans = tracing.SpanRecorder()
        spans.install()
        run_experiment("ulln", {{"n_schedule": {n_schedule}, "replicates": {replicates},
                                 "seed": 2, "net_u": 0.3}})
        print(json.dumps({{k: v["calls"] for k, v in spans.layer_metrics().items()}}))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    calls = json.loads(out.stdout)
    assert calls["ulln.exact_sup.j0"] == replicates * len(n_schedule)
    assert "ulln.exact_sup.runs" not in calls
    assert calls["ulln.gc_experiment"] == 1
