"""Experiment orchestration: config parsing, the experiment registry, report
serialization, plot-data emission and the `semproc` executable.

Each experiment is declared once, in EXPERIMENTS: its config keys, each a
default (a key's type is its default's type) beside the value rules it must
pass, its runner, which returns the results and the ledger of named checks,
and its plot-data series.  read_keys is the one reader of outside input
(config files, --set values and --key-name flags, h_class descriptors, q
files), each read against a key table, and _read_json its one JSON parser: a
flag's text is read as a --set value is (JSON, or else the text itself), a
list flag's as comma-separated JSON items, a str flag's as given.  A runner
checks only what needs work first (a Holder net's size, a q file) or reads
two keys at once (ulln.net_u against the class, fclt.q_file against the q
set).  run_experiment derives a report's "pass" from the ledger.  selftest
runs the five other experiments at small configs through the same registry.

Reproducibility is the product: a report embeds the exact config and the root
seed, every random stream is derived from the root seed through
seeds.derive_seed, and rerunning a config yields byte-identical numeric
results (the volatile wall clock lives in the separate "meta" section).

Exit codes: 0 all assertions passed, 1 assertion failure, 2 usage/config
error, 3 internal error (a QuadratureError from the bounds series oracle,
series_I_quadrature).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import __version__
from .covering import check_covering_lemmas, random_covering_boundedness
from .fclt import (
    cov_matrix,
    equicontinuity_modulus,
    fidi_convergence_test,
    gaussian_fidi_sample,
    kiefer_cell,
    kiefer_cells,
    lindeberg_check,
    make_sx_q,
)
from .function_classes import (
    INDICATORS,
    BoundedPolynomial,
    BVectorClass,
    HolderClass,
    LineInterval,
    NetTooLargeError,
    b_infinity_witness,
    cusp_riemann_gap_rows,
    half_line,
    indicator,
    set_riemann_gap_rows,
)
from .measures import draw_sample, parse_model
from .piecewise import PiecewiseLinear
from .quadrature import QuadratureError
from .seeds import derive_seed
from .ulln import (
    gc_experiment,
    gc_sample,
    gc_tail_bound,
    series_I_closed_form,
    series_I_quadrature,
    series_S_diagnostic,
    sup_deviation_bruteforce,
    sup_deviation_exact_BW,
    sup_deviation_net,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _typed(value, want: type, name: str, what: str):
    """value as a want, coercing only an int in the float range to float (a
    bool is no number here); a ConfigError naming name otherwise, and for a
    float that is not finite."""
    if want is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if not isinstance(value, want) or (want is not bool and isinstance(value, bool)):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if want is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


def read_keys(raw, table: dict, where: str, path: str = "") -> dict:
    """raw, a JSON object, read against a key table {key: (default, *rules)}:
    any other key rejected, each value typed by its default (a list's items by
    its first item; a default that is a type, float or [float], means the key
    must be given), defaults filled, rules run; each message names its path."""
    _typed(raw, dict, f"{where} key {path}" if path else where, "an object")
    out = {}
    for key, value in raw.items():
        full = f"{path}.{key}" if path else key
        if key not in table:
            raise ConfigError(f"{where} has unknown key {full}")
        default, name = table[key][0], f"{where} key {full}"
        want = default if isinstance(default, type) else type(default)
        out[key] = _typed(value, want, name, "an object" if want is dict else want.__name__)
        if want is list:
            elem = default[0] if isinstance(default[0], type) else type(default[0])
            out[key] = [_typed(v, elem, name, f"a list of {elem.__name__}") for v in value]
    for key, (default, *rules) in table.items():
        full = f"{path}.{key}" if path else key
        if key not in out:
            if isinstance(default[0] if type(default) is list else default, type):
                raise ConfigError(f"{where} has no key {full}")
            out[key] = json.loads(json.dumps(default))  # a copy, so the table keeps its own
        for text, ok in rules:  # a predicate that raises fails, and its message follows
            try:
                passed, why = bool(ok(out[key])), ""
            except ConfigError:  # a nested reader's message names its own key
                raise
            except (ValueError, TypeError) as exc:
                passed, why = False, f": {exc}"
            if not passed:
                raise ConfigError(f"{where} key {full} must be {text}, got {out[key]!r}{why}")
    return out


def read_tagged(raw, tag: str, kinds: dict, where: str, path: str = ""):
    """A JSON object whose tag key picks its kind from kinds, {tag value: (key
    table, build)}: build reads the object as read_keys reads it by that table,
    and a ValueError it raises becomes a ConfigError naming the path."""
    obj = _typed(raw, dict, f"{where} key {path}" if path else where, "an object")
    head = {tag: obj[tag]} if tag in obj else {}
    keys, build = kinds[read_keys(head, {tag: (str, one_of(*kinds))}, where, path)[tag]]
    fields = read_keys(obj, {tag: (str,), **keys}, where, path)
    try:
        return build(fields)
    except ValueError as exc:  # a member's own range check
        raise ConfigError(f"{where} key {path}: {exc}" if path else f"{where}: {exc}") from None


def _read_json(text: str, where: str):
    """The JSON value of text, outside input; an integer of more digits than
    Python converts (a ValueError that is no JSONDecodeError) is a
    ConfigError naming where it came from."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _raw_value(text: str, where: str):
    """A --set or flag value for read_keys to type: its JSON, else text."""
    try:
        return _read_json(text, where)
    except json.JSONDecodeError:
        return text


def parse_config(experiment: str, raw: dict) -> dict:
    """An experiment's config, read by its EXPERIMENTS key table and echoed as given."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; registered: {sorted(EXPERIMENTS)}")
    return read_keys(raw, EXPERIMENTS[experiment].keys, "config", experiment)


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def _ledger_entry(name: str, observed, bound, tolerance: str, ok: bool) -> dict:
    return {"name": name, "observed": observed, "bound": bound,
            "tolerance": tolerance, "ok": bool(ok)}


def _run_ulln(cfg: dict) -> tuple:
    if cfg["parity"] == "even" and cfg["j"] < 1:
        raise ConfigError(f"config key ulln.j must be at least 1 when parity is even "
                          f"(B(2j) has j free intervals), got {cfg['j']!r}")
    cls, model = BVectorClass(cfg["j"], cfg["parity"]), parse_model(cfg["model"])
    if cfg["net_u"] > 0 and cls != INDICATORS:
        raise ConfigError(f"config key ulln.net_u must be 0 unless j is 0 and parity odd "
                          f"(the net sandwich covers B(1) x half-lines only), "
                          f"got {cfg['net_u']!r}")
    rows, values = gc_experiment(cls, model, cfg["n_schedule"], cfg["replicates"],
                                 cfg["seed"], cfg["centering"])
    ledger = []
    for row in rows:
        ledger.append(_ledger_entry(
            f"lambda-centering correction <= class gap bound (n={row['n']})",
            row["sup_lambda_gap"], row["lambda_gap_bound"],
            "exact <=", row["sup_lambda_gap"] <= row["lambda_gap_bound"],
        ))
    medians = [row["median"] for row in rows]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    ledger.append(_ledger_entry(
        "median deviation strictly decreasing along n schedule",
        medians, None, "strict decrease", decreasing,
    ))
    if cfg["net_u"] > 0:
        # net sandwich cross-check against the exact statistic, one sample per n
        for n in cfg["n_schedule"]:
            if cfg["net_u"] <= 3.0 / n:
                continue
            # replicate 0 of gc_experiment: the same sample and its statistic
            exact = float(values[n][0])
            lower, upper = sup_deviation_net(gc_sample(model, n, cfg["seed"], 0), cfg["net_u"])
            ledger.append(_ledger_entry(
                f"net sandwich contains exact statistic (n={n})",
                {"lower": lower, "exact": exact, "upper": upper}, None,
                "lower <= exact <= upper",
                lower <= exact + 1e-12 and exact <= upper + 1e-12,
            ))
    return rows, ledger


def _holder_product_qs(model) -> list:
    net = HolderClass(1.0, 1.0, 1.0).build_net(0.8)
    picks = [net[0], net[len(net) // 3], net[2 * len(net) // 3], net[-1]]
    gs = [half_line(float(model.ppf(1.0 / 3.0))), half_line(float(model.ppf(2.0 / 3.0)))]
    return [(h, g) for h in picks for g in gs]


# per q-file part and type: its keys, none with a default, and its member
Q_PARTS = {
    "h": {"indicator": ({"t": (float,)}, lambda s: indicator(s["t"])),
          "holder-pl": ({"knots": ([float],), "values": ([float],)},
                        lambda s: PiecewiseLinear(tuple(s["knots"]), tuple(s["values"])))},
    "g": {"half-line": ({"w": (float,)}, lambda s: half_line(s["w"])),
          "initial-interval": ({"w": (float,)}, lambda s: LineInterval(0.0, s["w"])),
          "poly": ({"coeffs": ([float],)}, lambda s: BoundedPolynomial(tuple(s["coeffs"])))},
}


def _load_q_file(path: str) -> list:
    """The (h, g) pairs of a q file: a JSON list of {"h": ..., "g": ...},
    each part an object tagged by its "type" and read against Q_PARTS."""
    with open(path) as fh:
        entries = _read_json(fh.read(), f"q file {path}")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("q file must hold a nonempty JSON list")
    pairs = []
    for i, raw in enumerate(entries):
        where = f"q file entry {i}"
        entry = read_keys(raw, {"h": (dict,), "g": (dict,)}, where)
        pairs.append(tuple(read_tagged(entry[part], "type", Q_PARTS[part], where, part)
                           for part in ("h", "g")))
    return pairs


def _run_fclt(cfg: dict) -> tuple:
    model = parse_model(cfg["model"])
    if cfg["q_file"] and cfg["q_set"] != "custom-file":
        raise ConfigError(f"config key fclt.q_file must be empty unless q_set is custom-file "
                          f"(only that q set reads the file), got {cfg['q_file']!r}")
    if cfg["q_set"] == "kiefer-3":
        q_list = [kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5), kiefer_cell(0.5, 0.25)]
    elif cfg["q_set"] == "kiefer-grid":
        q_list = kiefer_cells(3)
    elif cfg["q_set"] == "holder-product":
        q_list = _holder_product_qs(model)
    else:  # custom-file
        q_list = _load_q_file(cfg["q_file"])
    mod = None
    if cfg["run_modulus"]:
        # before the fidi test, so a net too large for net_u fails fast
        try:
            mod = equicontinuity_modulus(
                read_h_class(cfg["h_class"]), cfg["n"], tuple(cfg["alpha_list"]),
                cfg["net_u"], cfg["modulus_replicates"], cfg["seed"], model)
        except NetTooLargeError as exc:
            raise ConfigError(f"config key fclt.net_u must be large enough for the "
                              f"modulus nets, got {cfg['net_u']!r}: the {exc}") from None
    fidi = fidi_convergence_test(q_list, cfg["n"], cfg["replicates"], cfg["seed"], model)
    results: dict[str, Any] = {"fidi": fidi}
    cov_tol, ks_tol = cfg["cov_tolerance"], cfg["ks_tolerance"]
    ledger = [
        _ledger_entry("fidi max covariance entry error", fidi["max_cov_error"],
                      cov_tol, f"<= {cov_tol}", fidi["max_cov_error"] <= cov_tol),
    ]
    for row in fidi["ks"]:
        if not row["degenerate"]:
            ledger.append(_ledger_entry(
                f"KS distance {row['label']}", row["ks"], ks_tol,
                f"<= {ks_tol}", row["ks"] <= ks_tol,
            ))
    if mod is not None:
        results["modulus"] = {"net_u": mod.net_u, "h_pool": mod.h_pool,
                              "g_pool": mod.g_pool, "rows": mod.rows,
                              "modulus_by_alpha": {
                                  str(r["alpha"]): r["mean_modulus"] for r in mod.rows
                              }}
        vals = [r["mean_modulus"] for r in mod.rows]
        monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        ledger.append(_ledger_entry("mean modulus nondecreasing in alpha",
                                    vals, None, "monotone", monotone))
        if len(vals) >= 2:  # one alpha is both the smallest and the largest
            ledger.append(_ledger_entry(
                "modulus at smallest alpha <= 0.5 x modulus at largest",
                vals[0], 0.5 * vals[-1], "<=", vals[0] <= 0.5 * vals[-1]))
    if cfg["run_lindeberg"]:
        lin = lindeberg_check(make_sx_q(), parse_model("standard-normal"),
                              [10**2, 10**3, 10**4, 10**5, 10**6], [0.1])
        results["lindeberg"] = lin
        final = lin["rows"][-1]["ratio"] if lin["rows"] else None
        ledger.append(_ledger_entry("Lindeberg ratio at n=1e6, eps=0.1",
                                    final, 1e-3, "<= 1e-3",
                                    final is not None and final <= 1e-3))
    return results, ledger


def _run_covering(cfg: dict) -> tuple:
    lemmas = check_covering_lemmas(cfg["trials"], cfg["seed"])
    model = parse_model(cfg["model"])
    seeds = [derive_seed(cfg["seed"], ["covering", i]) % 2**63
             for i in range(cfg["n_seeds"])]
    bdd = random_covering_boundedness(cfg["tau"], cfg["n_list"], seeds, model)
    violations = len(lemmas["lemma_violations"])
    misses = sum(not t["ok"] for t in bdd["covering_trials"])
    ledger = [
        _ledger_entry("covering lemma violations", violations, 0, "== 0", violations == 0),
        _ledger_entry("random covering numbers within product bound",
                      misses, 0, "== 0", misses == 0),
    ]
    return {**lemmas, **bdd}, ledger


def _run_bounds(cfg: dict) -> tuple:
    n_list = cfg["n_list"]
    violations = []
    checks = 0

    specs = [("holder-b0.5", HolderClass(1.0, 1.0, 0.5)),
             ("holder-b1", HolderClass(1.0, 1.0, 1.0)),
             ("B1", INDICATORS), ("B3", BVectorClass(1, "odd")),
             ("B5", BVectorClass(2, "odd")), ("B2", BVectorClass(1, "even")),
             ("B4", BVectorClass(2, "even"))]
    worst = {}
    for label, cls in specs:
        rng = np.random.default_rng(derive_seed(cfg["seed"], ["bounds", label]))
        # the members as arrays: no per-member object
        if isinstance(cls, HolderClass):
            rows = cusp_riemann_gap_rows(cls.beta, cls.random_cusps(rng, cfg["members"]), n_list)
        else:
            rows = set_riemann_gap_rows(cls.random_breakpoints(rng, cfg["members"]), n_list)
        for n, gaps in zip(n_list, rows):
            bound = cls.riemann_gap_bound(n)
            checks += len(gaps)
            violations += [{"class": label, "n": n, "gap": gap, "bound": bound}
                           for gap in gaps if gap > bound + 1e-12]
            # the largest gap - bound: subtracting one bound keeps the order
            worst[f"{label}/n={n}"] = max(gaps) - bound
    witness_rows = []
    for n in range(1, cfg["witness_max_n"] + 1):
        w = b_infinity_witness(n)
        ln = w.lambda_n(n)
        gap = ln - w.lebesgue()
        expected = 1 - Fraction(1, 2**n)  # exact: the float rounds to 1 from n = 54
        witness_rows.append({"n": n, "lambda_n": float(ln), "gap": float(abs(gap)),
                             "expected_gap": float(expected),
                             "ok": (ln == 0) and (abs(gap) == expected)})
    witness_ok = all(r["ok"] for r in witness_rows)

    series_rows = []
    for c in (0.5, 1.0, 2.0):
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                closed = series_I_closed_form(c, d1, d2)
                quad = series_I_quadrature(c, d1, d2)
                rel = abs(closed - quad) / max(abs(quad), 1e-300)
                series_rows.append({"c": c, "D1": d1, "D2": d2, "closed": closed,
                                    "quadrature": quad, "rel_err": rel, "ok": rel <= 1e-6})
    series_ok = all(r["ok"] for r in series_rows)
    s_rows = {f"c={c:.6f}": series_S_diagnostic(1, c, 300) for c in (0.5, math.log(2.0), 2.0)}
    s_class = {key: row["classification"] for key, row in s_rows.items()}
    # the classification reads c alone; the bracket checks the partial sums
    s_ok = (list(s_class.values()) == ["divergent", "divergent", "convergent"]
            and not any(row["bracket_misses"] for row in s_rows.values()))

    ledger = [
        _ledger_entry("Riemann gap bound violations (all classes)",
                      len(violations), 0, "== 0", len(violations) == 0),
        _ledger_entry("counterexample witness exact gaps", witness_ok, True,
                      "exact", witness_ok),
        _ledger_entry("series I closed form vs quadrature (rel 1e-6)",
                      series_ok, True, "<= 1e-6 rel", series_ok),
        _ledger_entry("series S dichotomy classifications", s_rows, None,
                      "divergent/divergent/convergent", s_ok),
    ]
    return {"bound_checks": checks, "worst_margins": worst,
            "witness": witness_rows, "series_I": series_rows,
            "series_S": s_class,
            "tail_bound_example": gc_tail_bound(0.5, 10**4, 1)}, ledger


def _run_kiefer(cfg: dict) -> tuple:
    model = parse_model("uniform01")
    cells = kiefer_cells(cfg["grid"])
    analytic = cov_matrix(cells, model)
    s = np.array([float(h.lebesgue()) for h, _ in cells])
    x = np.array([g.hi for _, g in cells])
    closed = np.minimum.outer(s, s) * (np.minimum.outer(x, x) - np.outer(x, x))
    kernel_err = float(np.max(np.abs(analytic - closed)))
    # the empirical covariance, one np.sum of products per pair of centred
    # rows: no GEMM, so its bytes do not depend on the BLAS build
    draws = gaussian_fidi_sample(cfg["grid"], cfg["draws"], cfg["seed"])
    draws -= draws.mean(axis=1, keepdims=True)
    emp = np.empty_like(analytic)
    for a in range(len(cells)):
        for b in range(a, len(cells)):
            emp[a, b] = emp[b, a] = np.sum(draws[a] * draws[b]) / (cfg["draws"] - 1)
    emp_err = float(np.max(np.abs(emp - analytic)))
    ledger = [
        _ledger_entry("product kernel equals Kiefer closed form", kernel_err,
                      1e-8, "<= 1e-8", kernel_err <= 1e-8),
        _ledger_entry("sampler covariance error", emp_err, cfg["tolerance"],
                      f"<= {cfg['tolerance']}", emp_err <= cfg["tolerance"]),
    ]
    return {"analytic_cov": analytic.tolist(),
            "empirical_cov": emp.tolist(),
            "kernel_error": kernel_err, "sampler_error": emp_err}, ledger


# (experiment, overrides) per selftest section; each section is named after
# its experiment and runs at the selftest's seed
_SELFTEST_SECTIONS = (
    ("bounds", {"members": 60, "n_list": [10, 100], "witness_max_n": 12}),
    ("covering", {"trials": 60, "tau": 0.5, "n_list": [20, 100], "n_seeds": 4}),
    ("ulln", {"n_schedule": [50, 400], "replicates": 30}),
    ("kiefer", {"draws": 40000, "tolerance": 0.05}),
    ("fclt", {"n": 400, "replicates": 1200, "cov_tolerance": 0.08, "ks_tolerance": 0.06,
              "alpha_list": [0.1, 0.4], "net_u": 0.4, "modulus_replicates": 20}),
)


def _run_selftest(cfg: dict) -> tuple:
    seed = cfg["seed"]
    sections = {}
    for name, overrides in _SELFTEST_SECTIONS:
        rep = run_experiment(name, {**overrides, "seed": seed})
        # the ulln section names its rows "rows", as selftest reports always have
        sections[name] = {"rows" if name == "ulln" else "results": rep["results"],
                          "ledger": rep["ledger"], "pass": rep["pass"]}

    # DP versus brute force on tiny instances
    mismatches = 0
    for trial in range(40):
        rng = np.random.default_rng(derive_seed(seed, ["selftest-dp", trial]))
        n = int(rng.integers(2, 10))
        parity = ("odd", "even")[int(rng.integers(0, 2))]
        j = int(rng.integers(1 if parity == "even" else 0, 3))  # B(2j) needs j >= 1
        sample = draw_sample("uniform01", n,
                             derive_seed(seed, ["selftest-dp-sample", trial]) % 2**63)
        a = sup_deviation_exact_BW(j, parity, sample)
        b = sup_deviation_bruteforce(j, parity, sample)
        if abs(a - b) > 1e-12:
            mismatches += 1
    sections["dp_oracle"] = {"trials": 40, "mismatches": mismatches}
    return {"sections": sections}, []


# Value rules, (text, predicate): a key's rules sit beside its default in
# EXPERIMENTS, and the text completes "config key <key> must be ..."
POSITIVE = ("> 0", lambda v: v > 0)
NONNEGATIVE = (">= 0", lambda v: v >= 0)
AT_LEAST_1 = (">= 1", lambda v: v >= 1)
AT_LEAST_2 = (">= 2", lambda v: v >= 2)
# the ledgers read these lists in order, smallest first
INCREASING = ("a nonempty strictly increasing list",
              lambda v: bool(v) and all(a < b for a, b in zip(v, v[1:])))
POSITIVE_ITEMS = ("a list of floats > 0", lambda v: all(a > 0 for a in v))
COUNTS = ("a nonempty list of ints >= 1", lambda v: bool(v) and all(n >= 1 for n in v))
SEED = ("in [0, 2**64)", lambda v: 0 <= v < 2**64)
MODEL = ("a model name", parse_model)
# the h_class descriptors: per "class", its keys and the h class it names
H_CLASSES = {
    "holder": ({"T": (1.0, POSITIVE), "C": (1.0, POSITIVE),
                "beta": (1.0, ("in (0, 1]", lambda v: 0 < v <= 1))},
               lambda d: HolderClass(d["T"], d["C"], d["beta"])),
    "indicators": ({}, lambda d: INDICATORS),
}


def read_h_class(desc):
    """The h class an fclt.h_class descriptor names."""
    return read_tagged(desc, "class", H_CLASSES, "config", "fclt.h_class")


def one_of(*names: str) -> tuple:
    return (f"one of {', '.join(names)}", lambda v: v in names)


@dataclass(frozen=True)
class Experiment:
    """An experiment's config keys, each (default, *rules): a key's type is
    its default's type and its value must pass every rule; its runner, cfg ->
    (results, ledger); and its plot-data series, each (file suffix, {CSV
    column: row key}, results -> rows)."""

    keys: dict
    run: Callable[[dict], tuple]
    plots: tuple = ()


EXPERIMENTS: dict[str, Experiment] = {
    "ulln": Experiment(
        {"class": ("bvector", one_of("bvector")), "j": (0, NONNEGATIVE),
         "parity": ("odd", one_of("odd", "even")), "model": ("uniform01", MODEL),
         "n_schedule": ([100, 1000, 10000], INCREASING, COUNTS),
         "replicates": (200, AT_LEAST_1), "seed": (1, SEED),
         "centering": ("lambda_n", one_of("lambda_n", "lambda")),
         "net_u": (0.0, NONNEGATIVE)},  # 0: no net sandwich
        _run_ulln,
        (("convergence", {"n": "n", "mean": "mean", "median": "median", "q95": "q95",
                          "max": "max", "bound": "lambda_gap_bound"}, lambda res: res),),
    ),
    "fclt": Experiment(
        {"q_set": ("kiefer-3", one_of("kiefer-3", "kiefer-grid", "holder-product",
                                      "custom-file")),
         "q_file": ("",), "n": (2000, AT_LEAST_1), "replicates": (5000, AT_LEAST_2),
         "seed": (1, SEED), "model": ("uniform01", MODEL),
         "alpha_list": ([0.05, 0.1, 0.2, 0.4], INCREASING, POSITIVE_ITEMS),
         "net_u": (0.3, POSITIVE),
         "h_class": ({"class": "holder", "T": 1.0, "C": 1.0, "beta": 1.0},
                     ("a holder or indicators descriptor", read_h_class)),
         "modulus_replicates": (100, AT_LEAST_1), "run_modulus": (True,),
         "run_lindeberg": (True,), "cov_tolerance": (0.05, POSITIVE),
         "ks_tolerance": (0.03, POSITIVE)},
        _run_fclt,
        (("modulus", {"alpha": "alpha", "mean_modulus": "mean_modulus"},
          lambda res: res.get("modulus", {}).get("rows", [])),
         ("lindeberg", {"n": "n", "lindeberg_ratio": "ratio"},
          lambda res: res.get("lindeberg", {}).get("rows", []))),
    ),
    "covering": Experiment(
        {"trials": (1000, AT_LEAST_1), "seed": (1, SEED), "tau": (0.5, POSITIVE),
         "n_list": ([10, 100, 1000], COUNTS), "n_seeds": (20, AT_LEAST_1),
         "model": ("uniform01", MODEL)},
        _run_covering,
    ),
    "bounds": Experiment(
        {"members": (1000, AT_LEAST_1), "seed": (1, SEED),
         "n_list": ([10, 100, 1000], COUNTS), "witness_max_n": (20, AT_LEAST_1)},
        _run_bounds,
    ),
    "kiefer": Experiment(
        {"grid": (3, AT_LEAST_1), "draws": (100000, AT_LEAST_2), "seed": (1, SEED),
         "tolerance": (0.02, POSITIVE)},
        _run_kiefer,
    ),
    "selftest": Experiment({"seed": (1, SEED)}, _run_selftest),
}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def run_experiment(experiment: str, raw_config: dict) -> dict:
    cfg = parse_config(experiment, raw_config)
    start = time.monotonic()
    results, ledger = EXPERIMENTS[experiment].run(cfg)
    elapsed = time.monotonic() - start
    passed = all(e["ok"] for e in ledger)
    if experiment == "selftest":  # an empty ledger: its sections and DP oracle decide
        passed = all(s.get("pass", s.get("mismatches") == 0) for s in results["sections"].values())
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "config": cfg,
        "results": _jsonable(results),
        "ledger": _jsonable(ledger),
        "pass": passed,
        "meta": {
            "wall_clock_seconds": elapsed,
            "library_version": __version__,
            "rng": {"root_seed": cfg.get("seed"), "algorithm": "PCG64+splitmix64-paths"},
        },
    }


def numeric_bytes(report: dict) -> bytes:
    """Canonical bytes of the numeric part of a report (meta stripped)."""
    stripped = {k: v for k, v in report.items() if k != "meta"}
    return json.dumps(stripped, sort_keys=True, indent=1).encode()


def _write_replacing(path: str, text: str) -> None:
    """Write path.tmp, then rename it over path, so path is never half written."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.isfile(tmp):
            os.remove(tmp)


def write_report(report: dict, path: str) -> None:
    _write_replacing(path, json.dumps(report, sort_keys=True, indent=1) + "\n")


def emit_plotdata(report: dict, prefix: str) -> list[str]:
    """One CSV per plot series declared for the report's experiment: a header
    of the series' columns, then one line of repr'd values per row."""
    paths = []
    for suffix, columns, rows in EXPERIMENTS[report["experiment"]].plots:
        path = f"{prefix}_{suffix}.csv"
        lines = [",".join(columns)]
        lines += [",".join(repr(r[key]) for key in columns.values())
                  for r in rows(report["results"])]
        _write_replacing(path, "\n".join(lines) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        data = _read_json(fh.read(), f"--config {path}")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _check_output(flag: str, path: Optional[str]) -> None:
    """A ConfigError naming flag unless path is unset or its directory exists;
    a report path is no directory, where a plot prefix only begins file names."""
    if path and (not os.path.isdir(os.path.dirname(path) or ".")
                 or (flag == "--out" and os.path.isdir(path))):
        raise ConfigError(f"{flag} must name a file in an existing directory, got {path!r}")


def _parse_override(text: str):
    key, _, value = text.partition("=")
    if not _:
        raise ConfigError(f"override {text!r} must look like key=value")
    return key, _raw_value(value, f"--set {key}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semproc",
        description="Sequential empirical measure process experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, exp in EXPERIMENTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override (JSON value)")
        p.add_argument("--out", default=None, help="report path (JSON)")
        p.add_argument("--plot-prefix", default=None,
                       help="emit plot-data CSVs with this path prefix")
        for key, (default, *rules) in exp.keys.items():
            rule = "; must be " + " and ".join(text for text, _ in rules) if rules else ""
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=f"sets {key} (default {default!r}{rule})")

    args = parser.parse_args(argv)
    try:
        raw = _load_config_file(args.config)
        for item in args.set:
            key, value = _parse_override(item)
            raw[key] = value
        for key, (default, *_) in EXPERIMENTS[args.experiment].keys.items():
            text, where = getattr(args, key), "--" + key.replace("_", "-")
            if text is not None and isinstance(default, list):  # comma-separated JSON items
                items = _raw_value(f"[{text}]", where)
                raw[key] = text if isinstance(items, str) else items
            elif text is not None:  # a str key takes its text as given
                raw[key] = text if isinstance(default, str) else _raw_value(text, where)
        _check_output("--out", args.out)  # before the run, which a bad path would waste
        _check_output("--plot-prefix", args.plot_prefix)
        report = run_experiment(args.experiment, raw)
        digest = __import__("hashlib").sha256(numeric_bytes(report)).hexdigest()
        print(f"experiment={args.experiment} pass={report['pass']} numeric_sha256={digest}")
        if args.out:
            write_report(report, args.out)
            print(f"report written to {args.out}")
        if args.plot_prefix:
            for path in emit_plotdata(report, args.plot_prefix):
                print(f"plot data written to {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
