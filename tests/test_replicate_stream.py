"""The streamed replicate Z matrices against their one-shot form.

fclt.replicate_Z_values and the modulus draw the (R, n) replicate matrix in
row blocks and contract each block with fclt.process_deviations as soon as
it is drawn; member_oracles.one_shot_Z draws it whole and lays out the
columns a * kg + b itself.  The fidi test's q columns are the product
columns of the q list's distinct h and g, repeated and reordered ones
included.  For 0/1 h and g every entry is an integer count before centring,
so the two agree byte for byte at any BLAS thread count.  For other h the
block products must still be the bits of the one-shot product at one BLAS
thread, at block edges and with a one-row tail: the fidi test contracts one
h at a time (GEMV, by_h), whose sums do not depend on the block's row
count, and the modulus its whole pool (GEMM) at the sizes checked below.
The stream must also keep a call's memory far below one (R, n) matrix, and
the default fclt report must not move.
"""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from semproc.fclt import kiefer_cell, replicate_Z_values
from semproc.function_classes import LineInterval, half_line, indicator
from semproc.measures import parse_model
from semproc.seeds import derive_seed

from member_oracles import one_shot_Z

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MODELS = ("uniform01", "standard-normal", "exponential(2)")
ROWS = (1, 2, 255, 256, 257, 258, 513, 1001)
NS = (1, 37, 2000)


def _one_blas_thread_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(TESTS),
                                                      env.get("PYTHONPATH")]))
    return env


def one_shot_replicate_Z_values(q_list, n, R, seed, model):
    """replicate_Z_values from one_shot_Z over the q list's distinct h and g,
    each in the order of its first q: the column of q = (h_a, g_b)."""
    hs, gs = [], []
    for h, g in q_list:
        if h not in hs:
            hs.append(h)
        if g not in gs:
            gs.append(g)
    rng = np.random.default_rng(derive_seed(seed, ["replicate-Z", n, R]))
    Z = one_shot_Z(hs, gs, n, R, rng, model, by_h=True)
    return np.ascontiguousarray(Z[:, [hs.index(h) * len(gs) + gs.index(g) for h, g in q_list]])


def _run_child(code, tmp_path):
    out = tmp_path / "child.json"
    subprocess.run([sys.executable, "-c", code, str(out)], env=_one_blas_thread_env(),
                   check=True, timeout=300)
    return json.loads(out.read_text())


@pytest.mark.parametrize("name", MODELS)
def test_indicator_products_equal_the_one_shot_bytes(name):
    model = parse_model(name)
    # repeated and reordered members: the columns of a sub-product
    q_list = [(indicator(s), g) for s in (0.3, 1.0)
              for g in (half_line(0.4), LineInterval(0.0, 0.8))][::-1]
    q_list += [q_list[1], (indicator(0.3), half_line(0.4))]
    for n in NS:
        for R in ROWS:
            got = replicate_Z_values(q_list, n, R, 6, model)
            want = one_shot_replicate_Z_values(q_list, n, R, 6, model)
            assert got.flags.c_contiguous and got.shape == (R, 6)
            assert got.tobytes() == want.tobytes(), (n, R)


_SWEEP_CHILD = textwrap.dedent("""
    import json
    import sys
    from semproc import fclt
    from semproc.cli import _holder_product_qs
    from semproc.measures import parse_model
    from test_replicate_stream import one_shot_replicate_Z_values

    cases = []
    for name in %(models)r:
        model = parse_model(name)
        q_sets = {"holder-product": _holder_product_qs(model),
                  "s*x": [fclt.make_sx_q()], "kiefer-grid": fclt.kiefer_cells(3)}
        for label, q_list in q_sets.items():
            for n in %(ns)r:
                for R in %(rows)r:
                    got = fclt.replicate_Z_values(q_list, n, R, 5, model)
                    want = one_shot_replicate_Z_values(q_list, n, R, 5, model)
                    cases.append([name, label, n, R, got.tobytes() == want.tobytes()])
    with open(sys.argv[1], "w") as out:
        json.dump(cases, out)
""") % {"models": MODELS, "ns": NS, "rows": ROWS}


def test_non_integer_h_equal_the_one_shot_bytes_at_one_blas_thread(tmp_path):
    cases = _run_child(_SWEEP_CHILD, tmp_path)
    assert len(cases) == len(MODELS) * 3 * len(NS) * len(ROWS)
    assert [c for c in cases if not c[-1]] == []


_MODULUS_CHILD = textwrap.dedent("""
    import json
    import sys
    import numpy as np
    from semproc import fclt
    from semproc.function_classes import HolderClass
    from semproc.measures import parse_model
    from member_oracles import one_shot_Z

    n = 2000
    h_class = HolderClass(1.0, 1.0, 1.0)
    cases = []
    for name in %(models)r:
        model = parse_model(name)
        h_pool, g_pool, _, _ = fclt._member_pools(h_class, 0.3, 1, model)
        cols = range(len(h_pool) * len(g_pool))
        for R in (257, 1001):
            got = fclt._replicate_Z(h_pool, g_pool, cols, n, R, R, model, False)
            want = one_shot_Z(h_pool, g_pool, n, R, np.random.default_rng(R), model, False)
            cases.append([name, R, got.shape == want.shape == (R, 60 * len(g_pool)),
                          got.tobytes() == want.tobytes()])
    with open(sys.argv[1], "w") as out:
        json.dump(cases, out)
""") % {"models": MODELS}


def test_modulus_Z_equals_the_one_shot_bytes_at_one_blas_thread(tmp_path):
    cases = _run_child(_MODULUS_CHILD, tmp_path)
    assert len(cases) == 2 * len(MODELS)
    assert [c for c in cases if not all(c[2:])] == []


_DEFAULT_FCLT_CHILD = textwrap.dedent("""
    import hashlib
    import json
    import sys
    import numpy as np
    from semproc import fclt
    from semproc.cli import numeric_bytes, run_experiment
    from member_oracles import one_shot_Z
    from test_replicate_stream import one_shot_replicate_Z_values

    def digest():
        return hashlib.sha256(numeric_bytes(run_experiment("fclt", {}))).hexdigest()

    streamed = digest()
    calls = []

    def recorded(oracle):
        def call(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return call

    def one_shot_modulus_Z(h_list, g_list, cols, n, R, seed, model, by_h):
        assert list(cols) == list(range(len(h_list) * len(g_list))) and not by_h
        return one_shot_Z(h_list, g_list, n, R, np.random.default_rng(seed), model, by_h)

    fclt.replicate_Z_values = recorded(one_shot_replicate_Z_values)
    fclt._replicate_Z = recorded(one_shot_modulus_Z)
    with open(sys.argv[1], "w") as out:
        json.dump({"streamed": streamed, "one_shot": digest(), "calls": calls}, out)
""")


def test_default_fclt_digest_equals_the_one_shot_digest(tmp_path):
    # compares two digests on this machine: the pinned value depends on the CPU
    got = _run_child(_DEFAULT_FCLT_CHILD, tmp_path)
    assert sorted(got["calls"]) == ["one_shot_modulus_Z", "one_shot_replicate_Z_values"]
    assert got["streamed"] == got["one_shot"]


def test_default_replicate_matrix_stays_below_16_megabytes():
    # the one-shot form holds the 80 MB (5000, 2000) draw matrix and an
    # 80 MB float copy of g(draws); the stream holds one row block of each
    model = parse_model("uniform01")
    q_list = [kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5), kiefer_cell(0.5, 0.25)]
    replicate_Z_values(q_list, 2000, 300, 1, model)  # warm up
    tracemalloc.start()
    try:
        Z = replicate_Z_values(q_list, 2000, 5000, 1, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.shape == (5000, 3)
    assert peak < 16_000_000
