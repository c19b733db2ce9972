"""Exact supremum statistics, sandwich bounds, tail bound, series identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import INDICATORS
from semproc.measures import Sample, draw_sample, parse_model
from semproc.ulln import (
    _bracket_misses,
    _partial_sums,
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

UNIFORM = parse_model("uniform01")


class TestExactStatistic:
    def test_single_point_half(self):
        s = Sample(1, (0.5,), "uniform01")
        assert sup_deviation_exact_BW(0, "odd", s) == pytest.approx(0.5, abs=1e-15)

    def test_b0_is_rejected_by_both(self):
        # B(0) is no class: j = 0 needs the anchored interval
        s = draw_sample("uniform01", 5, 1)
        for stat in (sup_deviation_exact_BW, sup_deviation_bruteforce):
            with pytest.raises(ValueError):
                stat(0, "even", s)

    def test_dp_matches_bruteforce(self):
        rng = np.random.default_rng(1234)
        for trial in range(250):
            n = int(rng.integers(1, 13))
            j = int(rng.integers(0, 3))
            parity = "even" if (j >= 1 and rng.random() < 0.4) else "odd"
            model = ("uniform01", "standard-normal", "exponential(1)")[trial % 3]
            s = draw_sample(model, n, int(rng.integers(0, 2**60)))
            a = sup_deviation_exact_BW(j, parity, s)
            b = sup_deviation_bruteforce(j, parity, s)
            assert a == pytest.approx(b, abs=1e-12)

    def test_prefix_family_dominates_full_sample_ks(self):
        # the p = n prefix reproduces the full-grid KS-type statistic, so the
        # sequential statistic can never fall below it
        rng = np.random.default_rng(7)
        model = parse_model("uniform01")
        for _ in range(30):
            n = int(rng.integers(5, 200))
            s = draw_sample(model, n, int(rng.integers(0, 2**60)))
            xs = np.sort(s.xs())
            j = np.arange(1, n + 1)
            ks_full = max(float(np.max(j / n - xs)), float(np.max(xs - (j - 1) / n)))
            stat = sup_deviation_exact_BW(0, "odd", s)
            assert stat >= ks_full - 1e-12

    def test_larger_class_dominates(self):
        # B(1) <= B(2) <= ... <= B(5): B(2j) adds an empty anchored interval
        # to get into B(2j+1), and B(2j+1) frees its anchored one to get
        # into B(2j+2)
        chain = [(0, "odd"), (1, "even"), (1, "odd"), (2, "even"), (2, "odd")]
        rng = np.random.default_rng(8)
        draws = [("uniform01", int(rng.integers(2, 12)), int(rng.integers(0, 2**60)))
                 for _ in range(25)]
        draws += [(model, n, 8) for model in ("uniform01", "standard-normal", "exponential(1)")
                  for n in (100, 1000)]
        for model, n, seed in draws:
            s = draw_sample(model, n, seed)
            v = [sup_deviation_exact_BW(j, parity, s) for j, parity in chain]
            for smaller, larger in zip(v, v[1:]):
                assert smaller <= larger + 1e-12


class TestNetSandwich:
    def test_sandwich_contains_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(30, 120))
            s = draw_sample("uniform01", n, int(rng.integers(0, 2**60)))
            exact = sup_deviation_exact_BW(0, "odd", s)
            lower, upper = sup_deviation_net(s, 0.15)
            assert lower <= exact + 1e-12
            assert exact <= upper + 1e-12
            assert upper - lower == pytest.approx(2 * 0.15, abs=1e-15)


class TestTailBound:
    def test_vacuous_example(self):
        tb = gc_tail_bound(1.0, 32, 1)
        assert tb["value"] == pytest.approx(8 * 33 * math.exp(-1.0), rel=1e-12)
        assert tb["vacuous"] and tb["applicable"]

    def test_sharp_example(self):
        tb = gc_tail_bound(0.5, 10**4, 1)
        assert tb["value"] == pytest.approx(8 * 10001 * math.exp(-78.125), rel=1e-9)
        assert not tb["vacuous"]

    def test_precondition_flag(self):
        tb = gc_tail_bound(0.1, 100, 1)
        assert not tb["applicable"]  # k < 8 eps^-2 = 800
        assert tb["value"] > 0

    def test_monte_carlo_exceedance_below_bound(self):
        # sup over half-lines of |nu_k(W) - nu(W)| at k = 4000: the bound at
        # eps = 0.35 is non-vacuous; observed exceedance frequency must not
        # beat it (10^4 replicates)
        eps, k = 0.35, 4000
        tb = gc_tail_bound(eps, k, 1)
        assert tb["value"] < 1 and tb["applicable"]
        rng = np.random.default_rng(99)
        exceed = 0
        j = np.arange(1, k + 1)
        for _ in range(10**4):
            xs = np.sort(rng.random(k))
            ks = max(float(np.max(j / k - xs)), float(np.max(xs - (j - 1) / k)))
            if ks > eps:
                exceed += 1
        assert exceed / 10**4 <= tb["value"]


class TestSeriesI:
    def test_collapse_at_zero_orders(self):
        assert series_I_closed_form(1.0, 0, 0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_111_hand_value(self):
        # e^{-c} (1 + 2 + 2 + 1 + 1) = 7/e at c = 1
        assert series_I_closed_form(1.0, 1, 1) == pytest.approx(7 / math.e, rel=1e-12)

    def test_against_quadrature_grid(self):
        for c in (0.5, 1.0, 2.0):
            for d1 in (1, 2, 3):
                for d2 in (1, 2, 3):
                    closed = series_I_closed_form(c, d1, d2)
                    quad = series_I_quadrature(c, d1, d2)
                    # the ledger gates 1e-6; the quadrature's own target is 1e-9
                    assert abs(closed - quad) / abs(quad) <= 1e-9

    @pytest.mark.parametrize("c, d2", [(-1.0, 1), (float("nan"), 1), (1.0, 0.5)])
    def test_quadrature_checks_its_order_and_sign(self, c, d2):
        # checked once before the integrand, not at its nodes
        with pytest.raises(ValueError):
            series_I_quadrature(c, 1, d2)

    def test_decreasing_in_c(self):
        vals = [series_I_closed_form(c, 2, 2) for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_big_orders_no_overflow_crash(self):
        val = series_I_closed_form(0.1, 40, 40)
        assert val > 0 and (math.isfinite(val) or val == math.inf)

    @pytest.mark.parametrize("c, d1, d2", [(1.0, 100, 100), (30.0, 90, 90), (50.0, 120, 60),
                                           (1e-160, 0, 0), (1.0, 60, 60), (2.0, 3, 3)])
    def test_big_terms_against_exact_sum(self, c, d1, d2):
        # the double sum in exact rationals; terms past the float range
        # (integer ratio or c^-e) must reach the log-space pass, not raise
        cq = Fraction(c)
        s = sum(Fraction(math.factorial(d2) * math.factorial(d1 + d2 - p),
                         math.factorial(d2 - p) * math.factorial(d1 + d2 - p - l))
                / cq ** (p + l + 2)
                for p in range(d2 + 1) for l in range(d1 + d2 - p + 1))
        log_exact = math.log(s.numerator) - math.log(s.denominator) - c
        val = series_I_closed_form(c, d1, d2)
        if log_exact > 709.0:
            assert val == math.inf
        else:
            assert val == pytest.approx(math.exp(-c) * float(s), rel=1e-12)

    def test_float_pass_bits_kept(self):
        assert series_I_closed_form(1.0, 60, 60) == 1.326934184471055e+199


class TestSeriesS:
    def test_supercritical_converges(self):
        assert series_S_diagnostic(1, 2.0, 300)["classification"] == "convergent"
        ps = _partial_sums(1, 2.0, 300)
        assert ps[-1] - ps[-2] < 1e-12
        assert abs(ps[250] - ps[200]) < 1e-12

    def test_subcritical_diverges(self):
        assert series_S_diagnostic(1, 0.5, 120)["classification"] == "divergent"
        # the partial sums pass their lower bracket end, which grows like (2 e^{-c})^n
        ps = _partial_sums(1, 0.5, 120)
        assert ps[-1] > 1e10 * ps[0]

    def test_critical_boundary(self):
        assert series_S_diagnostic(1, math.log(2.0), 50)["classification"] == "divergent"
        # at c = log 2 each term is at least (2^n - 1) 2^-n = 1 - 2^-n: linear growth
        ps = _partial_sums(1, math.log(2.0), 50)
        assert all(p >= n - 1.0 for n, p in enumerate(ps, start=1))

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("c", [0.1, 0.5, math.log(2.0), 2.0, 5.0])
    def test_partial_sums_inside_closed_form_bracket(self, D, c):
        assert _bracket_misses(D, c, _partial_sums(D, c, 300)) == 0
        assert series_S_diagnostic(D, c, 300)["bracket_misses"] == 0

    def test_bracket_catches_a_wrong_term(self):
        ps = _partial_sums(2, 0.5, 300)
        # drop the n = 1 term (e^{-c}) from every partial sum: the first falls to 0
        assert _bracket_misses(2, 0.5, [p - math.exp(-0.5) for p in ps]) >= 1
        # sums off by 1% either way
        for scale in (1.01, 0.99):
            assert _bracket_misses(2, 0.5, [scale * p for p in ps]) >= 1

    def test_terms_past_the_float_range_read_inf(self):
        # e^(inner - c n) passes e^709 from n = 1030: the sums read inf
        # instead of raising OverflowError, and the bracket's ends do too
        ps = _partial_sums(1, 0.01, 2000)
        assert math.isfinite(ps[1000]) and ps[-1] == math.inf
        assert ps[:1000] == _partial_sums(1, 0.01, 1000)
        assert _bracket_misses(1, 0.01, ps) == 0
        assert series_S_diagnostic(1, 0.01, 2000) == {"classification": "divergent",
                                                     "bracket_misses": 0}

    def test_convergent_bound_with_an_integer_power_past_the_float_range(self):
        # 3000**90 has no float, but the bracket's upper end n^90 (2^n - 1)
        # e^{-2n} is summed in log space and stays finite
        ps = _partial_sums(90, 2.0, 3000)
        assert all(math.isfinite(p) for p in ps)
        assert series_S_diagnostic(90, 2.0, 3000) == {"classification": "convergent",
                                                     "bracket_misses": 0}

    def test_validation(self):
        with pytest.raises(ValueError):
            series_S_diagnostic(0, 1.0, 100)
        with pytest.raises(ValueError):
            series_S_diagnostic(1, 1.0, 10**5)


class TestGCExperiment:
    def test_medians_decrease(self):
        rows, _ = gc_experiment(INDICATORS, UNIFORM, (50, 400), 40, 3)
        meds = [r["median"] for r in rows]
        assert meds[1] < meds[0]

    def test_lambda_centering_adds_exact_correction(self):
        (a,), values = gc_experiment(INDICATORS, UNIFORM, (60,), 10, 5)
        (b,), _ = gc_experiment(INDICATORS, UNIFORM, (60,), 10, 5, centering="lambda")
        gap = INDICATORS.sup_lambda_gap(60)
        assert b["mean"] == pytest.approx(a["mean"] + gap, abs=1e-14)
        assert gap <= a["lambda_gap_bound"]
        assert a["mean"] == float(values[60].mean())  # the values are uncorrected

    def test_replicates_are_gc_samples(self):
        _, values = gc_experiment(INDICATORS, UNIFORM, (30,), 3, 9)
        for r in range(3):
            assert values[30][r] == sup_deviation_exact_BW(0, "odd", gc_sample(UNIFORM, 30, 9, r))

    def test_degenerate_model_rejected(self):
        with pytest.raises(ValueError):
            gc_sample("exponential(0)", 10, 1, 0)
