"""Experiment orchestration: config parsing, the experiment registry, report
serialization, plot-data emission and the `semproc` executable.

Each experiment is declared once, in EXPERIMENTS: its config defaults (a
key's type is its default's type), its runner, which returns the results and
the ledger of named checks, and its plot-data series.  run_experiment derives
a report's "pass" from the ledger.  selftest runs the five other experiments
at small configs through the same registry.

Reproducibility is the product: a report embeds the exact config and the root
seed, every random stream is derived from the root seed through
seeds.derive_seed, and rerunning a config yields byte-identical numeric
results (the volatile wall clock lives in the separate "meta" section).

Exit codes: 0 all assertions passed, 1 assertion failure, 2 usage/config
error, 3 internal error (NotPSDError, QuadratureError).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import __version__
from .covering import check_covering_lemmas, random_covering_boundedness
from .fclt import (
    NotPSDError,
    cov_matrix,
    equicontinuity_modulus,
    fidi_convergence_test,
    gaussian_fidi_sample,
    kiefer_cell,
    lindeberg_check,
    make_sx_q,
)
from .function_classes import (
    BoundedPolynomial,
    BVectorClass,
    GClass,
    HalfLine,
    HolderClass,
    HolderMember,
    IndicatorFamily,
    IndicatorMember,
    InitialInterval,
    NetTooLargeError,
    ProductClass,
    b_infinity_witness,
    observed_riemann_gap_rows,
    parse_class_descriptor,
    riemann_gap_bound,
)
from .measures import draw_sample, parse_model
from .piecewise import PiecewiseLinear
from .quadrature import QuadratureError
from .seeds import derive_seed
from .ulln import (
    GCExperiment,
    gc_experiment,
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


def parse_config(experiment: str, raw: dict) -> dict:
    """Strict schema application: unknown keys rejected, types coerced only
    int -> float, values echoed back into the report."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; registered: {sorted(EXPERIMENTS)}"
        )
    defaults = EXPERIMENTS[experiment].defaults
    out = {}
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {experiment}.{key}")
        want = type(defaults[key])
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, want) or (want is not bool and isinstance(value, bool)):
            raise ConfigError(
                f"config key {experiment}.{key} must be {want.__name__}, got {value!r}"
            )
        out[key] = value
    for key, default in defaults.items():
        if key not in out:
            out[key] = json.loads(json.dumps(default)) if isinstance(default, (list, dict)) else default
    return out


# ---------------------------------------------------------------------------
# Experiment implementations
# ---------------------------------------------------------------------------

def _ledger_entry(name: str, observed, bound, tolerance: str, ok: bool) -> dict:
    return {"name": name, "observed": observed, "bound": bound,
            "tolerance": tolerance, "ok": bool(ok)}


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ConfigError(f"config key {key} must be {rule}, got {value!r}")


def _require_increasing(key: str, values: list) -> None:
    """The ledgers read these lists in order, smallest first."""
    _require(bool(values) and all(a < b for a, b in zip(values, values[1:])),
             key, "a nonempty strictly increasing list", values)


def _run_ulln(cfg: dict) -> tuple:
    if cfg["class"] != "bvector":
        raise ConfigError(
            f"unknown sequential set class {cfg['class']!r}; registered: bvector"
        )
    exp = GCExperiment(
        j=cfg["j"], parity=cfg["parity"], model=cfg["model"],
        n_schedule=tuple(int(n) for n in cfg["n_schedule"]),
        replicates=cfg["replicates"], seed=cfg["seed"], centering=cfg["centering"],
    )
    _require_increasing("ulln.n_schedule", list(exp.n_schedule))
    _require(exp.replicates >= 1, "ulln.replicates", ">= 1", exp.replicates)
    report = gc_experiment(exp)
    ledger = []
    for row in report.rows:
        ledger.append(_ledger_entry(
            f"lambda-centering correction <= class gap bound (n={row['n']})",
            row["sup_lambda_gap"], row["lambda_gap_bound"],
            "exact <=", row["sup_lambda_gap"] <= row["lambda_gap_bound"],
        ))
    medians = [row["median"] for row in report.rows]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    ledger.append(_ledger_entry(
        "median deviation strictly decreasing along n schedule",
        medians, None, "strict decrease", decreasing,
    ))
    if cfg["net_u"] > 0 and cfg["j"] == 0 and cfg["parity"] == "odd":
        # net sandwich cross-check against the exact statistic, one sample per n
        pclass = ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(UB,M-VC)")
        for n in exp.n_schedule:
            if cfg["net_u"] <= 3.0 / n:
                continue
            # replicate 0 of gc_experiment: the same sample and its statistic
            sample = draw_sample(cfg["model"], int(n),
                                 derive_seed(cfg["seed"], ["gc", int(n), 0]))
            exact = float(report.replicate_values[n][0])
            sw = sup_deviation_net(pclass, sample, cfg["net_u"])
            ledger.append(_ledger_entry(
                f"net sandwich contains exact statistic (n={n})",
                {"lower": sw.lower, "exact": exact, "upper": sw.upper}, None,
                "lower <= exact <= upper",
                sw.lower <= exact + 1e-12 and exact <= sw.upper + 1e-12,
            ))
    return report.rows, ledger


def _kiefer_cells(grid: int) -> list:
    cells = []
    for i in range(grid):
        for k in range(grid):
            cells.append(kiefer_cell((i + 1) / grid, (k + 1) / grid))
    return cells


def _holder_product_qs(model) -> list:
    net = HolderClass(1.0, 1.0, 1.0).build_net(0.8)
    picks = [net[0], net[len(net) // 3], net[2 * len(net) // 3], net[-1]]
    gs = [HalfLine(float(model.ppf(1.0 / 3.0))), HalfLine(float(model.ppf(2.0 / 3.0)))]
    return [(h, g) for h in picks for g in gs]


def _load_q_file(path: str) -> list:
    with open(path) as fh:
        # NaN and Infinity stay strings, which number() rejects with the entry and key
        entries = json.load(fh, parse_constant=str)
    if not isinstance(entries, list) or not entries:
        raise ConfigError("q file must hold a nonempty JSON list")

    def number(raw, key: str) -> float:
        x = float(raw)
        if not math.isfinite(x):
            raise ConfigError(f"q file entry {i} key {key!r} is {raw}, not a finite number")
        return x

    def numbers(raws, key: str) -> tuple:
        for raw in raws:
            number(raw, key)
        return tuple(raws)

    out = []
    try:
        for i, e in enumerate(entries):
            if not (isinstance(e, dict)
                    and all(isinstance(e.get(k, {}), dict) for k in ("h", "g"))):
                raise ConfigError(f"q file entry {i} and its 'h' and 'g' must be JSON objects")
            h_spec, g_spec = e["h"], e["g"]
            if h_spec["type"] == "indicator":
                h = IndicatorMember(number(h_spec["t"], "t"))
            elif h_spec["type"] == "holder-pl":
                h = HolderMember(
                    number(h_spec.get("T", 1.0), "T"), number(h_spec.get("C", 1.0), "C"),
                    number(h_spec.get("beta", 1.0), "beta"),
                    pl=PiecewiseLinear(numbers(h_spec["knots"], "knots"),
                                       numbers(h_spec["values"], "values")),
                )
            else:
                raise ConfigError(f"unknown h type {h_spec['type']!r}")
            if g_spec["type"] == "half-line":
                g = HalfLine(number(g_spec["w"], "w"))
            elif g_spec["type"] == "initial-interval":
                g = InitialInterval(number(g_spec["w"], "w"))
            elif g_spec["type"] == "poly":
                g = BoundedPolynomial(tuple(number(c, "coeffs") for c in g_spec["coeffs"]))
            else:
                raise ConfigError(f"unknown g type {g_spec['type']!r}")
            out.append((h, g))
    except KeyError as exc:
        raise ConfigError(f"q file entry {i} has no key {exc.args[0]!r}") from None
    except TypeError as exc:  # a value of the wrong JSON type
        raise ConfigError(f"q file entry {i} is malformed: {exc}") from None
    return out


def _run_fclt(cfg: dict) -> tuple:
    _require(cfg["replicates"] >= 2, "fclt.replicates", ">= 2", cfg["replicates"])
    model = parse_model(cfg["model"])
    if cfg["q_set"] == "kiefer-3":
        q_list = [kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5), kiefer_cell(0.5, 0.25)]
    elif cfg["q_set"] == "kiefer-grid":
        q_list = _kiefer_cells(3)
    elif cfg["q_set"] == "holder-product":
        q_list = _holder_product_qs(model)
    elif cfg["q_set"] == "custom-file":
        q_list = _load_q_file(cfg["q_file"])
    else:
        raise ConfigError(f"unknown q_set {cfg['q_set']!r}")
    mod = None
    if cfg["run_modulus"]:
        _require_increasing("fclt.alpha_list", cfg["alpha_list"])
        _require(cfg["modulus_replicates"] >= 1, "fclt.modulus_replicates", ">= 1",
                 cfg["modulus_replicates"])
        # before the fidi test, so a net too large for net_u fails fast
        h_class = parse_class_descriptor(cfg["h_class"])
        if not isinstance(h_class, (HolderClass, IndicatorFamily)):
            raise ConfigError("h_class must describe a holder or indicator family")
        pclass = ProductClass(h_class, GClass("half-lines"), "pi(UB,M-VC)")
        mod = equicontinuity_modulus(
            pclass, cfg["n"], tuple(cfg["alpha_list"]), cfg["net_u"],
            cfg["modulus_replicates"], cfg["seed"], model,
        )
    fidi = fidi_convergence_test(q_list, cfg["n"], cfg["replicates"], cfg["seed"], model)
    results: dict[str, Any] = {
        "fidi": {
            "n": fidi.n,
            "replicates": fidi.replicates,
            "analytic_cov": fidi.analytic_cov.tolist(),
            "empirical_cov": fidi.empirical_cov.tolist(),
            "max_cov_error": fidi.max_cov_error,
            "marginal_ks": fidi.marginal_ks,
            "combo_ks": fidi.combo_ks,
            "ks": fidi.marginal_ks + fidi.combo_ks,
        }
    }
    cov_tol, ks_tol = cfg["cov_tolerance"], cfg["ks_tolerance"]
    ledger = [
        _ledger_entry("fidi max covariance entry error", fidi.max_cov_error,
                      cov_tol, f"<= {cov_tol}", fidi.max_cov_error <= cov_tol),
    ]
    for row in fidi.marginal_ks + fidi.combo_ks:
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
    pclass = ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(UB,M-VC)")
    seeds = [derive_seed(cfg["seed"], ["covering", i]) % 2**63
             for i in range(cfg["n_seeds"])]
    bdd = random_covering_boundedness(pclass, cfg["tau"],
                                      [int(n) for n in cfg["n_list"]], seeds, model)
    ledger = [
        _ledger_entry("covering lemma violations", lemmas.total_violations, 0,
                      "== 0", lemmas.total_violations == 0),
        _ledger_entry("random covering numbers within product bound",
                      bdd.violations, 0, "== 0", bdd.violations == 0),
    ]
    return {
        "lemma_checks": lemmas.checks,
        "lemma_reports": lemmas.to_json(),
        "lemma_violations": lemmas.violations,
        "covering_max_observed": bdd.max_observed,
        "covering_trials": bdd.trials,
    }, ledger


def _run_bounds(cfg: dict) -> tuple:
    rng_root = cfg["seed"]
    n_list = [int(n) for n in cfg["n_list"]]
    members = cfg["members"]
    violations = []
    checks = 0

    specs = [("holder-b0.5", HolderClass(1.0, 1.0, 0.5)),
             ("holder-b1", HolderClass(1.0, 1.0, 1.0)),
             ("B1", BVectorClass(0, "odd")), ("B3", BVectorClass(1, "odd")),
             ("B5", BVectorClass(2, "odd")), ("B2", BVectorClass(1, "even")),
             ("B4", BVectorClass(2, "even"))]
    worst = {}
    for label, cls in specs:
        rng = np.random.default_rng(derive_seed(rng_root, ["bounds", label]))
        mems = [cls.random_member(rng) for _ in range(members)]
        for n, gaps in zip(n_list, observed_riemann_gap_rows(mems, n_list)):
            bound = riemann_gap_bound(cls, n)
            margin = -math.inf
            for gap in gaps:
                checks += 1
                margin = max(margin, gap - bound)
                if gap > bound + 1e-12:
                    violations.append({"class": label, "n": n, "gap": gap,
                                       "bound": bound})
            worst[f"{label}/n={n}"] = margin
    witness_rows = []
    for n in range(1, cfg["witness_max_n"] + 1):
        w = b_infinity_witness(n)
        ln = w.lambda_n(n)
        gap = ln - w.lebesgue()
        expected = 1 - 2 ** (-n)
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
    s_class = {}
    for c in (0.5, math.log(2.0), 2.0):
        s_class[f"c={c:.6f}"] = series_S_diagnostic(1, c, 300).classification
    s_ok = (s_class[f"c={0.5:.6f}"] == "divergent"
            and s_class[f"c={math.log(2.0):.6f}"] == "divergent"
            and s_class[f"c={2.0:.6f}"] == "convergent")

    tb = gc_tail_bound(0.5, 10**4, 1)
    ledger = [
        _ledger_entry("Riemann gap bound violations (all classes)",
                      len(violations), 0, "== 0", len(violations) == 0),
        _ledger_entry("counterexample witness exact gaps", witness_ok, True,
                      "exact", witness_ok),
        _ledger_entry("series I closed form vs quadrature (rel 1e-6)",
                      series_ok, True, "<= 1e-6 rel", series_ok),
        _ledger_entry("series S dichotomy classifications", s_class, None,
                      "divergent/divergent/convergent", s_ok),
    ]
    return {"bound_checks": checks, "worst_margins": worst,
            "witness": witness_rows, "series_I": series_rows,
            "series_S": s_class,
            "tail_bound_example": {"value": tb.value, "vacuous": tb.vacuous,
                                   "applicable": tb.applicable}}, ledger


def _run_kiefer(cfg: dict) -> tuple:
    _require(cfg["draws"] >= 2, "kiefer.draws", ">= 2", cfg["draws"])
    model = parse_model("uniform01")
    grid = cfg["grid"]
    cells = _kiefer_cells(grid)
    analytic = cov_matrix(cells, model)
    s = np.array([h.t for h, _ in cells])
    x = np.array([g.w for _, g in cells])
    closed = np.minimum.outer(s, s) * (np.minimum.outer(x, x) - np.outer(x, x))
    kernel_err = float(np.max(np.abs(analytic - closed)))
    draws = gaussian_fidi_sample(analytic, cfg["draws"], cfg["seed"])
    emp = np.cov(draws.T, ddof=1)
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
        j = int(rng.integers(0, 2))
        sample = draw_sample("uniform01", n,
                             derive_seed(seed, ["selftest-dp-sample", trial]) % 2**63)
        a = sup_deviation_exact_BW(j, "odd", sample)
        b = sup_deviation_bruteforce(j, "odd", sample)
        if abs(a - b) > 1e-12:
            mismatches += 1
    sections["dp_oracle"] = {"trials": 40, "mismatches": mismatches}
    return {"sections": sections}, []


@dataclass(frozen=True)
class Experiment:
    """An experiment's config defaults (a key's type is its default's type),
    its runner, cfg -> (results, ledger), and its plot-data series, each
    (file suffix, {CSV column: row key}, results -> rows)."""

    defaults: dict
    run: Callable[[dict], tuple]
    plots: tuple = ()


EXPERIMENTS: dict[str, Experiment] = {
    "ulln": Experiment(
        {"class": "bvector", "j": 0, "parity": "odd", "model": "uniform01",
         "n_schedule": [100, 1000, 10000], "replicates": 200, "seed": 1,
         "centering": "lambda_n", "net_u": 0.0},
        _run_ulln,
        (("convergence", {"n": "n", "mean": "mean", "median": "median", "q95": "q95",
                          "max": "max", "bound": "lambda_gap_bound"}, lambda res: res),),
    ),
    "fclt": Experiment(
        {"q_set": "kiefer-3", "q_file": "", "n": 2000, "replicates": 5000, "seed": 1,
         "model": "uniform01", "alpha_list": [0.05, 0.1, 0.2, 0.4], "net_u": 0.3,
         "h_class": {"class": "holder", "T": 1.0, "C": 1.0, "beta": 1.0},
         "modulus_replicates": 100, "run_modulus": True, "run_lindeberg": True,
         "cov_tolerance": 0.05, "ks_tolerance": 0.03},
        _run_fclt,
        (("modulus", {"alpha": "alpha", "mean_modulus": "mean_modulus"},
          lambda res: res.get("modulus", {}).get("rows", [])),
         ("lindeberg", {"n": "n", "lindeberg_ratio": "ratio"},
          lambda res: res.get("lindeberg", {}).get("rows", []))),
    ),
    "covering": Experiment(
        {"trials": 1000, "seed": 1, "tau": 0.5, "n_list": [10, 100, 1000], "n_seeds": 20,
         "model": "uniform01"},
        _run_covering,
    ),
    "bounds": Experiment(
        {"members": 1000, "seed": 1, "n_list": [10, 100, 1000], "witness_max_n": 20},
        _run_bounds,
    ),
    "kiefer": Experiment(
        {"grid": 3, "draws": 100000, "seed": 1, "tolerance": 0.02},
        _run_kiefer,
    ),
    "selftest": Experiment({"seed": 1}, _run_selftest),
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
    """Write to path.tmp, then rename over path, so path is never half written."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _parse_override(text: str):
    key, _, value = text.partition("=")
    if not _:
        raise ConfigError(f"override {text!r} must look like key=value")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _flag_type(default) -> Callable[[str], Any]:
    """How a --key-name flag parses its text: lists are comma separated and
    typed by the default's elements, dicts and bools are JSON."""
    if isinstance(default, list):
        elem = type(default[0])

        def comma_list(text: str) -> list:
            return [elem(v) for v in text.split(",")]
        return comma_list
    if isinstance(default, (dict, bool)):
        return json.loads
    return type(default)


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
        for key, default in exp.defaults.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           type=_flag_type(default), help=f"sets {key} (default {default!r})")

    args = parser.parse_args(argv)
    try:
        raw = _load_config_file(args.config)
        for item in args.set:
            key, value = _parse_override(item)
            raw[key] = value
        for key in EXPERIMENTS[args.experiment].defaults:
            if getattr(args, key) is not None:
                raw[key] = getattr(args, key)
        report = run_experiment(args.experiment, raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NetTooLargeError as exc:
        net_u = parse_config(args.experiment, raw).get("net_u")
        print(f"config error: net_u={net_u} is too small: the {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotPSDError, QuadratureError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3

    digest = __import__("hashlib").sha256(numeric_bytes(report)).hexdigest()
    print(f"experiment={args.experiment} pass={report['pass']} numeric_sha256={digest}")
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}")
    if args.plot_prefix:
        for path in emit_plotdata(report, args.plot_prefix):
            print(f"plot data written to {path}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
