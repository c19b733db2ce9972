"""Exact supremum statistics, sandwich bounds, tail bound, series identities."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import (
    BVectorClass,
    GClass,
    HolderClass,
    IndicatorFamily,
    ProductClass,
)
from semproc.measures import Sample, draw_sample, parse_model
from semproc.ulln import (
    GCExperiment,
    gc_experiment,
    gc_tail_bound,
    oscillation_sup,
    series_I_closed_form,
    series_I_quadrature,
    series_S_diagnostic,
    sup_deviation_bruteforce,
    sup_deviation_exact_BW,
    sup_deviation_net,
)


class TestExactStatistic:
    def test_single_point_half(self):
        s = Sample(1, (0.5,), 0, "uniform01")
        assert sup_deviation_exact_BW(0, "odd", s) == pytest.approx(0.5, abs=1e-15)

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
        pc = ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(UB,M-VC)")
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(30, 120))
            s = draw_sample("uniform01", n, int(rng.integers(0, 2**60)))
            exact = sup_deviation_exact_BW(0, "odd", s)
            out = sup_deviation_net(pc, s, 0.15)
            assert out.lower <= exact + 1e-12
            assert exact <= out.upper + 1e-12
            assert out.upper - out.lower == pytest.approx(2 * 0.15, abs=1e-15)


class TestOscillation:
    def test_indicator_pairs_floor_gap(self):
        for n in (10, 100):
            rep = oscillation_sup(IndicatorFamily(), n, 0.25)
            assert rep.value <= 2.0 / n + 1e-12

    def test_holder_below_closed_form(self):
        cls = HolderClass(1.0, 1.0, 1.0)
        for n in (10, 100, 1000):
            rep = oscillation_sup(cls, n, 0.5, pool_cap=60)
            assert rep.value <= cls.oscillation_sup_bound(n) + 1e-12

    def test_identical_pair_zero(self):
        rep = oscillation_sup(IndicatorFamily(), 50, 0.9)
        assert rep.value >= 0.0

    @pytest.mark.parametrize("h_class,n,net_u,pool_cap,seed,value,pool", [
        (HolderClass(1.0, 1.0, 1.0), 50, 0.5, 60, 0, 0.07564166666666594, 60),
        (HolderClass(1.0, 1.0, 0.5), 200, 1.2, 120, 3, 0.020823295691065447, 120),
        (HolderClass(0.5, 2.0, 1.0), 37, 0.9, 40, 5, 0.24278027296836502, 40),
        (IndicatorFamily(), 50, 0.25, 120, 0, 0.017500000000000016, 16),
        (IndicatorFamily(), 333, 0.2, 120, 0, 0.0028828828828828534, 25),
    ])
    def test_pinned_values(self, h_class, n, net_u, pool_cap, seed, value, pool):
        # recorded from the pair-by-pair loop over lambda_sq_distance
        rep = oscillation_sup(h_class, n, net_u, pool_cap=pool_cap, seed=seed)
        assert rep.value == value and rep.pool_size == pool


class TestTailBound:
    def test_vacuous_example(self):
        tb = gc_tail_bound(1.0, 32, 1)
        assert tb.value == pytest.approx(8 * 33 * math.exp(-1.0), rel=1e-12)
        assert tb.vacuous and tb.applicable

    def test_sharp_example(self):
        tb = gc_tail_bound(0.5, 10**4, 1)
        assert tb.value == pytest.approx(8 * 10001 * math.exp(-78.125), rel=1e-9)
        assert not tb.vacuous

    def test_precondition_flag(self):
        tb = gc_tail_bound(0.1, 100, 1)
        assert not tb.applicable  # k < 8 eps^-2 = 800
        assert tb.value > 0

    def test_monte_carlo_exceedance_below_bound(self):
        # sup over half-lines of |nu_k(W) - nu(W)| at k = 4000: the bound at
        # eps = 0.35 is non-vacuous; observed exceedance frequency must not
        # beat it (10^4 replicates)
        eps, k = 0.35, 4000
        tb = gc_tail_bound(eps, k, 1)
        assert tb.value < 1 and tb.applicable
        rng = np.random.default_rng(99)
        exceed = 0
        j = np.arange(1, k + 1)
        for _ in range(10**4):
            xs = np.sort(rng.random(k))
            ks = max(float(np.max(j / k - xs)), float(np.max(xs - (j - 1) / k)))
            if ks > eps:
                exceed += 1
        assert exceed / 10**4 <= tb.value


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
        rep = series_S_diagnostic(1, 2.0, 300)
        assert rep.classification == "convergent"
        assert rep.tail_increment < 1e-12
        ps = rep.partial_sums
        assert abs(ps[250] - ps[200]) < 1e-12

    def test_subcritical_diverges(self):
        rep = series_S_diagnostic(1, 0.5, 120)
        assert rep.classification == "divergent"
        # lower-bound terms (2 e^{-c})^n blow up
        assert rep.bound_sequence[-1] > rep.bound_sequence[0]
        assert rep.bound_sequence[-1] > 10.0

    def test_critical_boundary(self):
        rep = series_S_diagnostic(1, math.log(2.0), 50)
        assert rep.classification == "divergent"
        assert all(abs(b - 1.0) < 1e-12 for b in rep.bound_sequence)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_S_diagnostic(0, 1.0, 100)
        with pytest.raises(ValueError):
            series_S_diagnostic(1, 1.0, 10**5)


class TestGCExperiment:
    def test_medians_decrease(self):
        rep = gc_experiment(GCExperiment(n_schedule=(50, 400), replicates=40, seed=3))
        meds = [r["median"] for r in rep.rows]
        assert meds[1] < meds[0]

    def test_lambda_centering_adds_exact_correction(self):
        cfg_n = GCExperiment(n_schedule=(60,), replicates=10, seed=5)
        cfg_l = GCExperiment(n_schedule=(60,), replicates=10, seed=5, centering="lambda")
        a = gc_experiment(cfg_n).rows[0]
        b = gc_experiment(cfg_l).rows[0]
        gap = BVectorClass(0, "odd").sup_lambda_gap(60)
        assert b["mean"] == pytest.approx(a["mean"] + gap, abs=1e-14)
        assert gap <= a["lambda_gap_bound"]

    def test_degenerate_model_rejected(self):
        with pytest.raises(ValueError):
            gc_experiment(GCExperiment(model="exponential(0)", n_schedule=(10,),
                                       replicates=2, seed=1))
