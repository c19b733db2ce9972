"""Per-layer measurement from outside semproc.

The traced round wraps semproc's public functions in every module namespace
that holds them (``semproc.ulln.gc_experiment`` is also ``semproc.cli.
gc_experiment``), records one span per call (name, start, end, parent) and
keeps the spans in memory.  From the spans it derives inclusive seconds
(``.s``), self seconds (``.self_s``), call counts (``.calls``) and work counts
computed from each call's arguments or result.

A memory round instead runs tracemalloc during each call of a few functions
and keeps its peak.  tracemalloc slows Python-level allocation several times
over (the default ``equicontinuity_modulus`` goes from 4 s to 26 s), so it
never runs in a round whose times are used.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import sys
import time
import tracemalloc


def _exact_sup_name(bound) -> str:
    a = bound.arguments
    return "ulln.exact_sup.j0" if a["j"] == 0 and a["parity"] == "odd" else "ulln.exact_sup.runs"


def _exact_sup_work(bound, result) -> dict:
    """Cells: n(n+1)/2 prefix entries for j = 0; for the run dynamic program,
    one cell per (row, column, run index, sign) with 2n + 1 half-line columns,
    doubled by the anchored layer when the parity is odd."""
    a = bound.arguments
    n, j = a["sample"].n, a["j"]
    if j == 0 and a["parity"] == "odd":
        return {"cells": n * (n + 1) // 2}
    layers = 2 if a["parity"] == "odd" else 1
    return {"cells": 2 * n * (2 * n + 1) * j * layers}


def _family_pairs(bound, result) -> dict:
    k = len(bound.arguments["family"])
    return {"pairs": k * (k - 1) // 2}


# (defining module, attribute, span name or namer, work counter)
LAYERS = [
    ("semproc.ulln", "sup_deviation_exact_BW", _exact_sup_name, _exact_sup_work),
    ("semproc.ulln", "sup_deviation_net", "ulln.sup_deviation_net", None),
    ("semproc.ulln", "gc_experiment", "ulln.gc_experiment", None),
    ("semproc.ulln", "series_I_quadrature", "ulln.series_I_quadrature", None),
    ("semproc.ulln", "series_S_diagnostic", "ulln.series_S_diagnostic", None),
    ("semproc.measures", "draw_sample", "measures.draw_sample", None),
    ("semproc.function_classes", "HolderClass.build_net",
     "function_classes.HolderClass.build_net", lambda b, r: {"members": len(r)}),
    ("semproc.function_classes", "observed_riemann_gap",
     "function_classes.observed_riemann_gap", None),
    ("semproc.intervals", "IntervalUnion.from_pairs", "intervals.IntervalUnion.from_pairs", None),
    ("semproc.piecewise", "diff_sq_integral", "piecewise.diff_sq_integral", None),
    ("semproc.quadrature", "integrate", "quadrature.integrate", None),
    ("semproc.covering", "pairwise_distances", "covering.pairwise_distances", _family_pairs),
    ("semproc.covering", "check_covering_lemmas", "covering.check_covering_lemmas", None),
    ("semproc.covering", "exact_covering_number", "covering.exact_covering_number", None),
    ("semproc.covering", "random_covering_boundedness",
     "covering.random_covering_boundedness", None),
    ("semproc.fclt", "equicontinuity_modulus", "fclt.equicontinuity_modulus",
     lambda b, r: {"pairs": max((row["pairs"] for row in r.rows), default=0)}),
    ("semproc.fclt", "cov_matrix", "fclt.cov_matrix", None),
    ("semproc.fclt", "replicate_Z_values", "fclt.replicate_Z_values", None),
    ("semproc.fclt", "fidi_convergence_test", "fclt.fidi_convergence_test", None),
    ("semproc.fclt", "lindeberg_check", "fclt.lindeberg_check", None),
    ("semproc.fclt", "gaussian_fidi_sample", "fclt.gaussian_fidi_sample", None),
    ("semproc.cli", "run_experiment", "cli.run_experiment", None),
    ("semproc.cli", "numeric_bytes", "cli.numeric_bytes", None),
]

# Functions whose tracemalloc peak a memory round records.
PEAK_LAYERS = [
    ("semproc.fclt", "replicate_Z_values", "fclt.replicate_Z_values"),
    ("semproc.fclt", "equicontinuity_modulus", "fclt.equicontinuity_modulus"),
    ("semproc.covering", "random_covering_boundedness", "covering.random_covering_boundedness"),
]

# The layer each workload is built to stress; the traced run reports the
# share of the round's time spent inside it.
NAMED_LAYERS = {
    "ulln-prefix": ["ulln.exact_sup.j0"],
    "ulln-runs": ["ulln.exact_sup.runs"],
    "fclt-modulus": ["function_classes.HolderClass.build_net", "covering.pairwise_distances"],
    "covering-bounds": ["covering.check_covering_lemmas", "covering.random_covering_boundedness"],
}


def _patch(module: str, attr: str, make_wrapper) -> None:
    """Replace module.attr by make_wrapper(original) in every semproc
    namespace that holds the original object (or on its class)."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, meth, make_wrapper(raw))
        return
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "semproc" or name.startswith("semproc."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class SpanRecorder:
    """Spans as (name, start, end, parent index, work counts or None).

    Spans are tuples of atoms, which the cyclic garbage collector stops
    tracking, so tens of thousands of them do not slow its passes."""

    def __init__(self):
        self.spans: list = []
        self.active = True
        self._stack: list = []

    def install(self) -> None:
        for module, attr, name, work in LAYERS:
            _patch(module, attr, functools.partial(self._wrap, name=name, work=work))

    def _wrap(self, fn, name, work):
        sig = inspect.signature(fn) if callable(name) or work else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            if bound is not None:
                bound.apply_defaults()
            label = name(bound) if callable(name) else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, None)
            if work is not None:
                spans[index] = (label, start, end, parent, work(bound, result))
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Per span name: calls, inclusive s, self s and summed work counts."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _, work), children in zip(self.spans, child_time):
            acc = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["s"] += end - start
            acc["self_s"] += end - start - children
            for key, value in (work or {}).items():
                acc[key] = acc.get(key, 0) + value
        return out


class PeakRecorder:
    """tracemalloc peak (MB) of each call of the PEAK_LAYERS functions."""

    def __init__(self):
        self.peaks: dict = {}

    def install(self) -> None:
        for module, attr, name in PEAK_LAYERS:
            _patch(module, attr, functools.partial(self._wrap, name=name))

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 1e6
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)

        return wrapper


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def _package(name: str):
    root = name.split(".")[0]
    return root if root in ("numpy", "scipy", "semproc") else None


def import_times(stderr: str) -> dict:
    """Seconds by package from ``python -X importtime`` output.

    ``numpy.s`` and ``scipy.s`` sum the cumulative time of each import of the
    package made from outside both packages: what importing it cost, its own
    dependencies included (numpy modules that scipy pulls in count for
    scipy).  ``<pkg>.self_s`` sums the self time of the package's modules.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((int(m.group(1)), int(m.group(2)), len(m.group(3)), m.group(4)))
    out = {f"{pkg}.{key}": 0.0 for pkg in ("numpy", "scipy", "semproc") for key in ("s", "self_s")}
    # importtime prints a module after everything it imported, so walking
    # backwards meets each importer before the modules it imported
    stack: list = []    # (depth, inside numpy or scipy)
    for own, cum, depth, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        pkg = _package(name)
        nested = bool(stack) and stack[-1][1]
        if pkg in ("numpy", "scipy") and not nested:
            out[f"{pkg}.s"] += cum / 1e6
        if pkg is not None:
            out[f"{pkg}.self_s"] += own / 1e6
        stack.append((depth, nested or pkg in ("numpy", "scipy")))
    return out
