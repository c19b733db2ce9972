"""Every function the benchmark's tracer wraps still exists under its name,
the j = 0 exact-statistic layer still sees every replicate, and every work
counter and peak the tracer derives still reads what it expects.

perfbench/tracing.py patches semproc functions by (module, attribute); a
renamed function, or one the experiments stop calling, would leave its layer
silently empty in traced runs, and a changed signature or return type would
break a work counter only in a traced benchmark round.  This reads the two
tables and resolves each entry, Class.method entries included, counts the
j = 0 layer's calls in a traced ulln run, and runs tiny fclt, run-DP and
covering operations under both recorders.
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


def test_modulus_net_is_one_build_net_call():
    # the default q set builds no Holder net of its own, so the one
    # build_net call of a default-q-set fclt run is the modulus pool's,
    # a named layer of the fclt-modulus workload
    code = textwrap.dedent(f"""
        import json, sys
        sys.path.insert(0, {str(PERFBENCH)!r})
        import tracing
        from semproc.cli import run_experiment
        spans = tracing.SpanRecorder()
        spans.install()
        run_experiment("fclt", {{"n": 60, "replicates": 20, "modulus_replicates": 2,
                                 "alpha_list": [0.3, 0.8], "net_u": 0.6,
                                 "run_lindeberg": False}})
        print(json.dumps(spans.layer_metrics()["function_classes.HolderClass.build_net"]))
    """)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    layer = json.loads(out.stdout)
    assert layer["calls"] == 1 and layer["members"] > 0


# A tiny fclt (the Holder modulus, and the holder-product q set, which builds
# a Holder net), one run-DP statistic and a tiny covering run: between them
# they reach every work counter and every PEAK_LAYERS function
_CONTRACT_OPS = """
from semproc.cli import run_experiment
from semproc.measures import draw_sample
from semproc.ulln import sup_deviation_exact_BW
run_experiment("fclt", {"q_set": "holder-product", "n": 60, "replicates": 20,
                        "modulus_replicates": 2, "alpha_list": [0.3, 0.8], "net_u": 0.6,
                        "run_lindeberg": False, "cov_tolerance": 10.0, "ks_tolerance": 10.0})
sup_deviation_exact_BW(1, "odd", draw_sample("uniform01", 30, 1))
run_experiment("covering", {"trials": 5, "n_list": [10], "n_seeds": 1})
"""


def _traced_child(recorder: str, result: str) -> dict:
    """Runs _CONTRACT_OPS in a child under tracing.<recorder> and returns
    the JSON of the expression result there."""
    code = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(PERFBENCH)!r})",
        "import tracing",
        f"recorder = tracing.{recorder}()",
        "recorder.install()",
        _CONTRACT_OPS,
        f"print(json.dumps({result}))",
    ])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_work_counters_read_their_calls():
    metrics = _traced_child("SpanRecorder", "recorder.layer_metrics()")
    assert metrics["fclt.equicontinuity_modulus"]["pairs"] > 0
    assert metrics["function_classes.HolderClass.build_net"]["members"] > 0
    assert metrics["ulln.exact_sup.runs"]["cells"] > 0


def test_every_peak_layer_records_a_peak(tracing):
    peaks = _traced_child("PeakRecorder", "recorder.peaks")
    assert sorted(peaks) == sorted(name for _, _, name in tracing.PEAK_LAYERS)
    assert all(peak > 0 for peak in peaks.values())
