"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line printed per criterion (run with `pytest -s tests/test_acceptance.py` to
see the lines as they complete)."""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from semproc.covering import check_covering_lemmas, shatter_coefficient
from semproc.fclt import (
    cov_kernel,
    equicontinuity_modulus,
    fidi_convergence_test,
    kiefer_cell,
    lindeberg_check,
    make_sx_q,
)
from semproc.function_classes import (
    BVectorClass,
    HolderClass,
    b_infinity_witness,
    cusp_riemann_gap_rows,
    half_line,
    indicator,
    set_riemann_gap_rows,
)
from semproc.measures import draw_sample, parse_model
from semproc.ulln import (
    gc_experiment,
    series_I_closed_form,
    series_I_quadrature,
    series_S_diagnostic,
    sup_deviation_bruteforce,
    sup_deviation_exact_BW,
)

from member_oracles import observed_riemann_gap_exact
from quad_oracle import cov_kernel_quadrature

UNIFORM = parse_model("uniform01")


def _report(num, ok, detail, elapsed, budget):
    stamp = "PASS" if ok else "FAIL"
    print(f"{stamp} criterion {num}: {detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_closed_form_bound_ledger():
    start = time.monotonic()
    specs = [
        (HolderClass(1, 1, 0.5), "holder-0.5"),
        (HolderClass(1, 1, 1.0), "holder-1.0"),
        (BVectorClass(0, "odd"), "B(1)"),
        (BVectorClass(1, "odd"), "B(3)"),
        (BVectorClass(2, "odd"), "B(5)"),
        (BVectorClass(1, "even"), "B(2)"),
        (BVectorClass(2, "even"), "B(4)"),
    ]
    violations = 0
    checks = 0
    ns = (10, 100, 1000)
    for ci, (cls, _label) in enumerate(specs):
        # the draws and kernels the bounds experiment runs
        rng = np.random.default_rng(1000 + ci)
        if isinstance(cls, HolderClass):
            rows = cusp_riemann_gap_rows(cls.beta, cls.random_cusps(rng, 1000), ns)
        else:
            rows = set_riemann_gap_rows(cls.random_breakpoints(rng, 1000), ns)
        for n, gaps in zip(ns, rows):
            bound = cls.riemann_gap_bound(n)
            checks += len(gaps)
            violations += sum(gap > bound + 1e-12 for gap in gaps)
    elapsed = time.monotonic() - start
    assert checks == 21_000
    _report(1, violations == 0, f"{checks} gap checks, {violations} violations",
            elapsed, 1.0)


def test_criterion_02_counterexample_reproduction():
    start = time.monotonic()
    ok = True
    for n in range(1, 21):
        w = b_infinity_witness(n)
        lam_n = w.lambda_n(n)
        gap = observed_riemann_gap_exact(w, n)
        ok = ok and lam_n == 0 and gap == 1 - Fraction(1, 2**n)
    elapsed = time.monotonic() - start
    _report(2, ok, "lambda_n(B_n)=0 and gap 1-2^-n exactly for n=1..20",
            elapsed, 5.0)


def test_criterion_03_dp_vs_bruteforce():
    start = time.monotonic()
    rng = np.random.default_rng(303)
    mismatches = 0
    for trial in range(1000):
        n = int(rng.integers(1, 13))
        j = int(rng.integers(0, 3))
        parity = "even" if (j >= 1 and rng.random() < 0.4) else "odd"
        model = ("uniform01", "standard-normal", "exponential(1)")[trial % 3]
        s = draw_sample(model, n, int(rng.integers(0, 2**60)))
        a = sup_deviation_exact_BW(j, parity, s)
        b = sup_deviation_bruteforce(j, parity, s)
        if abs(a - b) > 1e-12:
            mismatches += 1
    elapsed = time.monotonic() - start
    _report(3, mismatches == 0, f"1000 instances, {mismatches} mismatches",
            elapsed, 30.0)


def test_criterion_04_ulln_desk_scale_convergence():
    start = time.monotonic()
    rows, _ = gc_experiment(BVectorClass(0, "odd"), parse_model("uniform01"),
                            (100, 1000, 10000), 200, 404)
    means = [r["mean"] for r in rows]
    ok = means[2] <= 0.02 and means[0] >= 2 * means[1] and means[1] >= 2 * means[2]
    elapsed = time.monotonic() - start
    _report(4, ok,
            f"means {means[0]:.4f} -> {means[1]:.4f} -> {means[2]:.4f} "
            f"(n=1e4 <= 0.02, >=2x decay per decade)",
            elapsed, 120.0)


def test_criterion_05_covering_lemma_suite():
    start = time.monotonic()
    rep = check_covering_lemmas(1000, 505)
    elapsed = time.monotonic() - start
    violations = len(rep["lemma_violations"])
    _report(5, violations == 0,
            f"4 lemmas x 1000 spaces, {violations} violations",
            elapsed, 30.0)


def test_criterion_06_shatter_coefficients():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    ok = True
    for k in range(1, 13):
        pts = np.sort(rng.random(k) * 0.98 + 0.01)
        # half-lines cut the sets of B(1), so one count serves both
        ok = ok and shatter_coefficient(BVectorClass(0, "odd"), pts) == k + 1
    ok = ok and shatter_coefficient(BVectorClass(1, "odd"), [0.25, 0.5, 0.75]) == 2**3
    four_point_shattered = 0
    for _ in range(1000):
        pts = np.sort(rng.random(4) * 0.98 + 0.01)
        if shatter_coefficient(BVectorClass(1, "odd"), pts) == 16:
            four_point_shattered += 1
    ok = ok and four_point_shattered == 0
    elapsed = time.monotonic() - start
    _report(6, ok,
            "half-lines/B(1) give n+1; B(3) shatters a 3-set, no 4-set of 1000",
            elapsed, 60.0)


def test_criterion_07_kernel_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(100):
        h1 = indicator(float(rng.random()))
        h2 = indicator(float(rng.random()))
        g1 = half_line(float(rng.random()))
        g2 = half_line(float(rng.random()))
        q1, q2 = (h1, g1), (h2, g2)
        worst = max(worst, abs(cov_kernel(q1, q2, UNIFORM)
                               - cov_kernel_quadrature(q1, q2, UNIFORM)))
    kiefer_worst = 0.0
    for _ in range(50):
        s1, s2, x1, x2 = rng.random(4)
        got = cov_kernel(kiefer_cell(s1, x1), kiefer_cell(s2, x2), UNIFORM)
        want = min(s1, s2) * (min(x1, x2) - x1 * x2)
        kiefer_worst = max(kiefer_worst, abs(got - want))
    ok = worst <= 1e-8 and kiefer_worst <= 1e-8
    elapsed = time.monotonic() - start
    _report(7, ok,
            f"mode agreement worst {worst:.2e}, Kiefer closed-form worst {kiefer_worst:.2e}",
            elapsed, 10.0)


def test_criterion_08_fidi_convergence():
    start = time.monotonic()
    cells = [kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5), kiefer_cell(0.5, 0.25)]
    rep = fidi_convergence_test(cells, 2000, 5000, 8, UNIFORM)
    ks_all = [r["ks"] for r in rep["ks"]]
    ok = rep["max_cov_error"] <= 0.05 and max(ks_all) <= 0.03
    elapsed = time.monotonic() - start
    _report(8, ok,
            f"cov err {rep['max_cov_error']:.4f} <= 0.05, max KS {max(ks_all):.4f} <= 0.03",
            elapsed, 300.0)


def test_criterion_09_lindeberg():
    start = time.monotonic()
    bounded = lindeberg_check(kiefer_cell(0.5, 0.5), UNIFORM, [10, 50, 2000], [0.2])
    rows = bounded["rows"]
    # threshold n: once eps sqrt(n V_n) exceeds the centered sup bound the
    # ratio vanishes identically
    ok = rows[0]["ratio"] > 0.0 and rows[-1]["ratio"] == 0.0
    normal = lindeberg_check(make_sx_q(), parse_model("standard-normal"),
                             [10**2, 10**4, 10**6], [0.1])
    ratios = [r["ratio"] for r in normal["rows"]]
    ok = ok and all(b <= a for a, b in zip(ratios, ratios[1:])) and ratios[-1] <= 1e-3
    elapsed = time.monotonic() - start
    _report(9, ok,
            f"bounded q hits exact 0; s*x normal ratio {ratios[-1]:.2e} <= 1e-3 at n=1e6",
            elapsed, 30.0)


def test_criterion_10_series_identities():
    start = time.monotonic()
    worst_rel = 0.0
    for c in (0.5, 1.0, 2.0):
        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                closed = series_I_closed_form(c, d1, d2)
                quad = series_I_quadrature(c, d1, d2)
                worst_rel = max(worst_rel, abs(closed - quad) / abs(quad))
    got = [series_S_diagnostic(1, c, 300)["classification"]
           for c in (0.5, math.log(2.0), 2.0)]
    ok = worst_rel <= 1e-6 and got == ["divergent", "divergent", "convergent"]
    elapsed = time.monotonic() - start
    _report(10, ok,
            f"I vs quadrature rel {worst_rel:.2e} <= 1e-6; S dichotomy {got}",
            elapsed, 30.0)


def test_criterion_11_equicontinuity_modulus():
    start = time.monotonic()
    rep = equicontinuity_modulus(HolderClass(1.0, 1.0, 1.0), 2000, (0.05, 0.1, 0.2, 0.4), 0.3,
                                 100, 1108, UNIFORM)
    vals = [r["mean_modulus"] for r in rep.rows]
    monotone = all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    ok = monotone and vals[0] <= 0.5 * vals[-1] and rep.rows[0]["pairs"] > 0
    elapsed = time.monotonic() - start
    _report(11, ok,
            f"modulus {['%.3f' % v for v in vals]} monotone, "
            f"m(0.05)={vals[0]:.3f} <= 0.5*m(0.4)={0.5 * vals[-1]:.3f}",
            elapsed, 300.0)


def test_criterion_12_selftest_determinism(tmp_path):
    start = time.monotonic()
    digests = []
    for run in range(2):
        out = subprocess.run(
            [sys.executable, "-m", "semproc.cli", "selftest", "--seed", "12",
             "--out", str(tmp_path / f"st{run}.json")],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        line = [l for l in out.stdout.splitlines() if "numeric_sha256=" in l][0]
        digests.append(line.split("numeric_sha256=")[1].split()[0])
    from semproc.cli import numeric_bytes

    a = json.loads((tmp_path / "st0.json").read_text())
    b = json.loads((tmp_path / "st1.json").read_text())
    ok = digests[0] == digests[1] and numeric_bytes(a) == numeric_bytes(b)
    elapsed = time.monotonic() - start
    _report(12, ok, f"selftest twice -> identical numeric reports ({digests[0][:12]}...)",
            elapsed, 120.0)
