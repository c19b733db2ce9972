"""Holder, indicator and interval-union classes: bounds, nets, witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import (
    BVectorClass,
    GClass,
    HolderClass,
    HolderMember,
    IndicatorFamily,
    IndicatorMember,
    NetTooLargeError,
    ProductClass,
    b_infinity_witness,
    observed_riemann_gap,
    observed_riemann_gap_rows,
    riemann_gap_bound,
)
from semproc.intervals import IntervalUnion
from semproc.measures import parse_model

from member_oracles import (
    eval_lambda,
    eval_member,
    holder_sup_distance,
    observed_riemann_gap_exact,
)


class TestRiemannGapBounds:
    def test_paper_values(self):
        assert riemann_gap_bound(HolderClass(1, 1, 0.5), 100) == pytest.approx(0.1)
        assert riemann_gap_bound(BVectorClass(1, "odd"), 60) == pytest.approx(0.1)
        assert riemann_gap_bound(BVectorClass(1, "even"), 40) == pytest.approx(0.1)

    def test_observed_floor_example(self):
        m = BVectorClass(0, "odd").member([0.25])
        assert observed_riemann_gap(m, 10) == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("cls", [
        HolderClass(1, 1, 0.5), HolderClass(1, 1, 1.0),
        BVectorClass(0, "odd"), BVectorClass(1, "odd"), BVectorClass(2, "odd"),
        BVectorClass(1, "even"), BVectorClass(2, "even"),
    ])
    def test_gap_below_bound_randomized(self, cls):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = cls.random_member(rng)
            for n in (10, 100):
                assert observed_riemann_gap(m, n) <= riemann_gap_bound(cls, n) + 1e-12

    def test_gap_rows_are_the_one_n_gaps(self):
        # the bounds experiment reads every n from one observed_riemann_gap_rows call
        rng = np.random.default_rng(8)
        members = [HolderClass(1, 1, beta).random_member(rng) for beta in (0.5, 1.0) * 20]
        members += [BVectorClass(1, "odd").random_member(rng), IndicatorMember(0.3),
                    HolderClass(1, 1, 1.0).build_net(0.8)[3], HolderMember(1, 1, 0.5, a=0.2)]
        n_list = [1, 10, 17, 1000]
        rows = observed_riemann_gap_rows(members, n_list)
        assert rows == [observed_riemann_gap_rows(members, [n])[0] for n in n_list]
        assert observed_riemann_gap_rows(members, []) == []

    def test_sup_lambda_gap_below_display_bound(self):
        for cls in (BVectorClass(0, "odd"), BVectorClass(2, "odd"), BVectorClass(1, "even")):
            for n in (7, 50):
                assert cls.sup_lambda_gap(n) <= cls.riemann_gap_bound(n)


class TestBInfinityWitness:
    def test_n1_construction(self):
        w = b_infinity_witness(1)
        assert w.bounds == ((Fraction(0), Fraction(1, 2)),)

    def test_grid_always_missed(self):
        for n in range(1, 21):
            assert b_infinity_witness(n).grid_count(n) == 0

    def test_lebesgue_n10(self):
        assert b_infinity_witness(10).lebesgue() == 1 - Fraction(1, 1024)

    def test_exact_gap_increasing(self):
        gaps = [observed_riemann_gap_exact(b_infinity_witness(n), n) for n in range(1, 21)]
        assert gaps == [1 - Fraction(1, 2**n) for n in range(1, 21)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))


class TestHolderMembers:
    def test_random_member_feasibility_audit(self):
        cls = HolderClass(1.0, 1.0, 0.7)
        rng = np.random.default_rng(17)
        for k in range(20):
            h = cls.random_member(np.random.default_rng(100 + k))
            x, y = rng.random(1000), rng.random(1000)
            assert np.all(np.abs(h(x) - h(y)) <= cls.C * np.abs(x - y) ** cls.beta + 1e-12)
            assert abs(float(h(np.zeros(1))[0])) <= cls.T + 1e-12

    def test_envelope(self):
        cls = HolderClass(1.0, 1.0, 0.5)
        rng = np.random.default_rng(3)
        xs = rng.random(1000)
        for k in range(30):
            h = cls.random_member(np.random.default_rng(k))
            assert np.max(np.abs(h(xs))) <= cls.envelope_constant + 1e-12

    def test_lambda_exact_matches_quadrature(self):
        cls = HolderClass(1.0, 1.0, 0.5)
        for k in range(10):
            h = cls.random_member(np.random.default_rng(k))
            quad = eval_lambda(lambda x: float(h(np.asarray([x]))[0]), tol=1e-10)
            assert h.lambda_exact() == pytest.approx(quad, abs=1e-7)


class TestHolderNet:
    def test_members_exactly_feasible(self):
        cls = HolderClass(1.0, 1.0, 1.0)
        net = cls.build_net(0.5)
        rng = np.random.default_rng(0)
        x, y = rng.random(400), rng.random(400)
        for m in net[:: max(1, len(net) // 100)]:
            assert np.all(np.abs(m(x) - m(y)) <= cls.C * np.abs(x - y) + 1e-12)
            assert np.max(np.abs(m(np.linspace(0, 1, 101)))) <= cls.envelope_constant + 1e-12

    @pytest.mark.parametrize("beta,u", [(1.0, 0.5), (0.5, 1.2)])
    def test_coverage_randomized(self, beta, u):
        cls = HolderClass(1.0, 1.0, beta)
        net = cls.build_net(u)
        for k in range(100):
            h = cls.random_member(np.random.default_rng(7000 + k))
            dmin = min(holder_sup_distance(h, m, 2001) for m in net)
            assert dmin <= u

    def test_diameter_case_single_member_suffices(self):
        cls = HolderClass(1.0, 1.0, 1.0)
        u = 2 * cls.envelope_constant
        net = cls.build_net(u)
        assert len(net) >= 1
        h = cls.random_member(np.random.default_rng(1))
        assert min(holder_sup_distance(h, m) for m in net) <= u

    def test_net_too_large(self):
        with pytest.raises(NetTooLargeError) as err:
            HolderClass(1.0, 1.0, 1.0).build_net(0.01, max_members=1000)
        assert err.value.estimate > 1000

    def test_member_pl_value_at_breakpoint(self):
        net = HolderClass(1.0, 1.0, 1.0).build_net(0.8)
        m = net[len(net) // 2]
        k = len(m.pl.knots) // 2
        assert eval_member(m, m.pl.knots[k]) == pytest.approx(m.pl.values[k], abs=1e-15)


class TestBVectorClasses:
    def test_member_structure(self):
        cls = BVectorClass(1, "odd")
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = cls.random_member(rng)
            assert m.set.n_intervals <= cls.j + 1

        cls = BVectorClass(2, "even")
        for _ in range(50):
            m = cls.random_member(rng)
            assert m.set.n_intervals <= cls.j

    def test_degenerate_breakpoints_normalized(self):
        # the empty (0.5, 0.5] interval is dropped
        m = BVectorClass(1, "odd").member([0.3, 0.5, 0.5])
        assert m.set.n_intervals == 1
        assert float(m.set.lebesgue()) == pytest.approx(0.3)

    def test_indicator_membership_example(self):
        m = BVectorClass(1, "odd").member([0.2, 0.4, 0.6])
        # B = (0, 0.2] u (0.4, 0.6]
        assert eval_member(m, 0.5) == 1.0
        assert eval_member(m, 0.3) == 0.0
        assert eval_member(m, 0.2) == 1.0  # right-closed

    def test_net_coverage_d2_lambda(self):
        cls = BVectorClass(1, "odd")
        u = 0.35
        net = cls.build_net(u, max_members=500_000)
        rng = np.random.default_rng(9)
        for _ in range(60):
            m = cls.random_member(rng)
            best = min(
                math.sqrt(float(m.set.symdiff_measure(x.set))) for x in net
            )
            assert best <= u

    def test_b1_net_quantile_structure(self):
        net = BVectorClass(0, "odd").build_net(0.1)
        ts = sorted(float(m.lambda_exact()) for m in net)  # t of 1_(0, t]
        # d2 distance sqrt(|t - t'|): mesh 0.01 covers within 0.1
        for t in np.linspace(0.001, 1.0, 97):
            assert min(math.sqrt(abs(t - s)) for s in ts) <= 0.1


class TestOscillationBound:
    def test_paper_chain_value(self):
        assert HolderClass(1, 1, 1).oscillation_sup_bound(100) == pytest.approx(0.16)

    def test_monotone_decay(self):
        cls = HolderClass(2.0, 1.5, 0.7)
        vals = [cls.oscillation_sup_bound(n) for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestGClass:
    def test_envelopes(self):
        assert GClass("half-lines").envelope_constant == 1.0
        assert GClass("poly", degree=2, coeff_bound=1.0).envelope_constant is None

    def test_taxonomy_gate(self):
        with pytest.raises(ValueError):
            ProductClass(IndicatorFamily(), GClass("poly", degree=1), "pi(UB,M-VC)")
        ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(UB,M-VC)")
        ProductClass(HolderClass(1, 1, 1), GClass("poly", degree=1), "pi(nuG2,J-VC)")

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(1)"])
    def test_pair_means_against_quadrature(self, model_name):
        from scipy import integrate as sciint

        model = parse_model(model_name)
        rng = np.random.default_rng(4)
        gh = GClass("half-lines")
        gp = GClass("poly", degree=2, coeff_bound=0.5)
        lo, hi = model.support
        lo = max(lo, -40.0)
        hi = min(hi, 60.0)
        for _ in range(5):
            g1 = gh.random_member(rng, model)
            g2 = gp.random_member(rng, model)
            for a, b in ((g1, g2), (g2, g2), (g1, g1)):
                oracle, _ = sciint.quad(
                    lambda x: float(np.asarray(a(np.asarray([x])))[0])
                    * float(np.asarray(b(np.asarray([x])))[0]) * float(model.pdf(x)),
                    lo, hi, limit=400, points=None,
                )
                assert a.pair_mean(b, model) == pytest.approx(oracle, abs=5e-7)

    def test_half_line_net_coverage(self):
        model = parse_model("standard-normal")
        net = GClass("half-lines").build_net(0.3, model)
        rng = np.random.default_rng(8)
        for _ in range(80):
            w = float(model.ppf(rng.random() * 0.998 + 0.001))
            F = float(model.cdf(w))
            best = min(math.sqrt(abs(F - float(model.cdf(m.w)))) for m in net)
            assert best <= 0.3


class TestDescriptorAndExport:
    def test_parse_class_descriptor(self):
        from semproc.function_classes import parse_class_descriptor

        cls = parse_class_descriptor({"class": "holder", "T": 2.0, "C": 0.5, "beta": 0.5})
        assert isinstance(cls, HolderClass) and cls.beta == 0.5
        cls = parse_class_descriptor({"class": "bvector", "j": 1, "parity": "even"})
        assert isinstance(cls, BVectorClass)
        assert isinstance(parse_class_descriptor({"class": "halflines"}), GClass)
        with pytest.raises(ValueError):
            parse_class_descriptor({"class": "holder", "gamma": 1})
        with pytest.raises(ValueError):
            parse_class_descriptor({"class": "mystery"})
