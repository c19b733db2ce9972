"""Holder, indicator and interval-union classes: bounds, nets, witnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import (
    BoundedPolynomial,
    BVectorClass,
    HolderClass,
    NetTooLargeError,
    b_infinity_witness,
    cusp_riemann_gap_rows,
    half_line,
    half_line_net,
    indicator,
    indicator_net,
    observed_riemann_gap,
    set_riemann_gap_rows,
)
from semproc.intervals import IntervalUnion
from semproc.measures import parse_model

from member_oracles import (
    eval_lambda,
    eval_member,
    holder_sup_distance,
    observed_riemann_gap_exact,
    random_members,
    set_member,
)
from quad_oracle import law


class TestRiemannGapBounds:
    def test_paper_values(self):
        assert HolderClass(1, 1, 0.5).riemann_gap_bound(100) == pytest.approx(0.1)
        assert BVectorClass(1, "odd").riemann_gap_bound(60) == pytest.approx(0.1)
        assert BVectorClass(1, "even").riemann_gap_bound(40) == pytest.approx(0.1)

    def test_observed_floor_example(self):
        m = set_member(BVectorClass(0, "odd"), [0.25])
        assert observed_riemann_gap(m, 10) == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("cls", [
        HolderClass(1, 1, 0.5), HolderClass(1, 1, 1.0),
        BVectorClass(0, "odd"), BVectorClass(1, "odd"), BVectorClass(2, "odd"),
        BVectorClass(1, "even"), BVectorClass(2, "even"),
    ])
    def test_gap_below_bound_randomized(self, cls):
        rng = np.random.default_rng(5)
        for m in random_members(cls, rng, 100):
            for n in (10, 100):
                assert observed_riemann_gap(m, n) <= cls.riemann_gap_bound(n) + 1e-12

    def test_gap_rows_are_the_one_n_gaps(self):
        # the bounds experiment reads every n from one call per class
        rng = np.random.default_rng(8)
        n_list = [1, 10, 17, 1000]
        for beta in (0.5, 1.0):
            arrays = HolderClass(1, 1, beta).random_cusps(rng, 20)
            rows = cusp_riemann_gap_rows(beta, arrays, n_list)
            assert rows == [cusp_riemann_gap_rows(beta, arrays, [n])[0] for n in n_list]
            assert cusp_riemann_gap_rows(beta, arrays, []) == []
        t = BVectorClass(1, "odd").random_breakpoints(rng, 20)
        rows = set_riemann_gap_rows(t, n_list)
        assert rows == [set_riemann_gap_rows(t, [n])[0] for n in n_list]
        assert set_riemann_gap_rows(t, []) == []

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
            h, = random_members(cls, np.random.default_rng(100 + k), 1)
            x, y = rng.random(1000), rng.random(1000)
            assert np.all(np.abs(h(x) - h(y)) <= cls.C * np.abs(x - y) ** cls.beta + 1e-12)
            assert abs(float(h(np.zeros(1))[0])) <= cls.T + 1e-12

    def test_envelope(self):
        # |h(x)| <= |h(0)| + C x^beta <= T + C
        cls = HolderClass(1.0, 1.0, 0.5)
        rng = np.random.default_rng(3)
        xs = rng.random(1000)
        for k in range(30):
            h, = random_members(cls, np.random.default_rng(k), 1)
            assert np.max(np.abs(h(xs))) <= cls.C + cls.T + 1e-12

    def test_lambda_exact_matches_quadrature(self):
        cls = HolderClass(1.0, 1.0, 0.5)
        for k in range(10):
            h, = random_members(cls, np.random.default_rng(k), 1)
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
            assert np.max(np.abs(m(np.linspace(0, 1, 101)))) <= cls.C + cls.T + 1e-12

    @pytest.mark.parametrize("beta,u", [(1.0, 0.5), (0.5, 1.2)])
    def test_coverage_randomized(self, beta, u):
        cls = HolderClass(1.0, 1.0, beta)
        net = cls.build_net(u)
        for k in range(100):
            h, = random_members(cls, np.random.default_rng(7000 + k), 1)
            dmin = min(holder_sup_distance(h, m, 2001) for m in net)
            assert dmin <= u

    def test_diameter_case_single_member_suffices(self):
        cls = HolderClass(1.0, 1.0, 1.0)
        u = 2 * (cls.C + cls.T)  # the sup-norm diameter of the class
        net = cls.build_net(u)
        assert len(net) >= 1
        h, = random_members(cls, np.random.default_rng(1), 1)
        assert min(holder_sup_distance(h, m) for m in net) <= u

    def test_net_too_large(self):
        with pytest.raises(NetTooLargeError) as err:
            HolderClass(1.0, 1.0, 1.0).build_net(0.01)
        assert err.value.cap == 500_000
        assert err.value.log10_estimate > math.log10(err.value.cap)

    @pytest.mark.parametrize("beta,u", [(0.001, 0.3), (5e-324, 0.3), (1.0, 5e-324)])
    def test_grid_count_past_the_float_range(self, beta, u):
        # (4 C / u) ** (1 / beta) overflows: the count is bounded in log space,
        # and a net of 3^m or more members is too large for any cap
        with pytest.raises(NetTooLargeError, match=r"more than 1e308 members \(cap 500000\)"):
            HolderClass(1.0, 1.0, beta).net_values(u)
        assert HolderClass(1.0, 1.0, 0.1).net_grid_count(0.3) == math.ceil(
            0.5 * (4.0 / 0.3) ** 10.0)  # 2m near 1.8e11: still counted

    @pytest.mark.parametrize("T,C", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                     (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
    def test_radius_and_constant_finite_and_positive(self, T, C):
        with pytest.raises(ValueError, match="finite and > 0"):
            HolderClass(T, C, 1.0)

    def test_member_pl_value_at_breakpoint(self):
        net = HolderClass(1.0, 1.0, 1.0).build_net(0.8)
        m = net[len(net) // 2]
        k = len(m.knots) // 2
        assert eval_member(m, m.knots[k]) == pytest.approx(m.values[k], abs=1e-15)


class TestBVectorClasses:
    def test_member_structure(self):
        cls = BVectorClass(1, "odd")
        rng = np.random.default_rng(0)
        for m in random_members(cls, rng, 50):
            assert len(m.bounds) <= cls.j + 1

        cls = BVectorClass(2, "even")
        for m in random_members(cls, rng, 50):
            assert len(m.bounds) <= cls.j

    def test_set_member_checks_its_breakpoints(self):
        with pytest.raises(ValueError, match="expected 3 breakpoints"):
            set_member(BVectorClass(1, "odd"), [0.2, 0.4])
        with pytest.raises(ValueError, match="nondecreasing"):
            set_member(BVectorClass(1, "even"), [0.4, 0.2])

    def test_degenerate_breakpoints_normalized(self):
        # the empty (0.5, 0.5] interval is dropped
        m = set_member(BVectorClass(1, "odd"), [0.3, 0.5, 0.5])
        assert len(m.bounds) == 1
        assert float(m.lebesgue()) == pytest.approx(0.3)

    def test_indicator_membership_example(self):
        m = set_member(BVectorClass(1, "odd"), [0.2, 0.4, 0.6])
        # B = (0, 0.2] u (0.4, 0.6]
        assert eval_member(m, 0.5) == 1.0
        assert eval_member(m, 0.3) == 0.0
        assert eval_member(m, 0.2) == 1.0  # right-closed

    @pytest.mark.parametrize("j,parity", [(0, "odd"), (1, "odd"), (1, "even"), (2, "odd"),
                                          (2, "even"), (3, "odd")])
    def test_cut_masks_against_run_strings(self, j, parity):
        # the runs of a mask are the nonempty pieces of its bit string split
        # at 0; the anchored interval takes a run that holds point 0
        cls = BVectorClass(j, parity)
        for k in range(11):
            want = []
            for m in range(1 << k):
                bits = format(m, f"0{k}b")[::-1] if k else ""
                runs = len([r for r in bits.split("0") if r])
                if runs - (cls.anchored and bits.startswith("1")) <= j:
                    want.append(m)
            assert cls.cut_masks(k).tolist() == want

    def test_indicator_is_the_b1_member(self):
        for t in (0.25, 0.3, 1.0):
            assert indicator(t) == set_member(BVectorClass(0, "odd"), [t])

    @pytest.mark.parametrize("mesh", [0.04, 0.3, 1 / 3, 0.7, 1.0, 2.0])
    def test_indicator_net_mesh(self, mesh):
        net = indicator_net(mesh)
        ends = [float(h.lebesgue()) for h in net]
        assert ends[-1] == 1.0 and ends == sorted(ends) and len(set(ends)) == len(ends)
        assert all(b - a <= mesh + 1e-15 for a, b in zip([0.0] + ends, ends))
        with pytest.raises(NetTooLargeError):
            indicator_net(1e-7)

    def test_line_nets_at_an_infinite_mesh_hold_one_member(self):
        # fclt's mesh net_u**2 overflows to inf from net_u of about 1.34e154
        assert indicator_net(math.inf) == [indicator(1.0)]
        assert len(half_line_net(math.inf, parse_model("uniform01"))) == 1

    @pytest.mark.parametrize("mesh", [0.0, 1e-320, 1e-200 * 1e-200])
    def test_line_nets_too_fine_for_a_float_count(self, mesh):
        # 1 / mesh is inf or a division by zero: too large, not a traceback
        model = parse_model("uniform01")
        for make in (indicator_net, lambda m: half_line_net(m, model)):
            with pytest.raises(NetTooLargeError, match=r"more than 1e308 members"):
                make(mesh)


class TestGClass:
    def test_envelopes(self):
        # half-lines take the values 0 and 1, so the G envelope is 1
        model = parse_model("standard-normal")
        xs = np.random.default_rng(2).standard_normal(500)
        for g in half_line_net(0.1, model):
            assert set(np.unique(g(xs)).tolist()) <= {0.0, 1.0}

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(1)"])
    def test_pair_means_against_quadrature(self, model_name):
        from scipy import integrate as sciint

        model = parse_model(model_name)
        dist = law(model)
        rng = np.random.default_rng(4)
        lo, hi = dist.support()
        lo = max(lo, -40.0)
        hi = min(hi, 60.0)
        for _ in range(5):
            # a half-line at a random quantile, a degree-2 polynomial in [-0.5, 0.5]^3
            g1 = half_line(float(model.ppf(min(rng.random(), 1 - 1e-12))))
            g2 = BoundedPolynomial(tuple((2 * rng.random(3) - 1) * 0.5))
            for a, b in ((g1, g2), (g2, g2), (g1, g1)):
                oracle, _ = sciint.quad(
                    lambda x: float(np.asarray(a(np.asarray([x])))[0])
                    * float(np.asarray(b(np.asarray([x])))[0]) * float(dist.pdf(x)),
                    lo, hi, limit=400, points=None,
                )
                assert a.pair_mean(b, model) == pytest.approx(oracle, abs=5e-7)

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(2)"])
    @pytest.mark.parametrize("mesh", [0.3 * 0.3, 0.05, 1e-3, 1.0, 2.0])
    def test_half_line_net_equals_its_scalar_form(self, model_name, mesh):
        # one scalar ppf per F-quantile, equal end points once, thinned after
        # the whole net is built: the form the vectorized net replaced
        model = parse_model(model_name)
        count = math.ceil(1.0 / mesh)
        ws = sorted({float(model.ppf(min((k + 1) * mesh, 1.0 - 1e-12))) for k in range(count)})
        assert [g.hi for g in half_line_net(mesh, model)] == ws
        for size in (1, 2, 5, 24):
            idx = np.linspace(0, len(ws) - 1, size).round().astype(int) if len(ws) > size \
                else range(len(ws))
            want = [ws[i] for i in sorted(set(idx))]
            assert [g.hi for g in half_line_net(mesh, model, size)] == want

    def test_half_line_net_coverage(self):
        model = parse_model("standard-normal")
        net = half_line_net(0.3 * 0.3, model)
        rng = np.random.default_rng(8)
        for _ in range(80):
            w = float(model.ppf(rng.random() * 0.998 + 0.001))
            F = float(model.cdf(w))
            best = min(math.sqrt(abs(F - float(model.cdf(m.hi)))) for m in net)
            assert best <= 0.3


class TestDescriptorAndExport:
    def test_parse_class_descriptor(self):
        # the descriptors are outside input, read in semproc.cli against the
        # H_CLASSES key tables; each message names the descriptor key's path
        from semproc.cli import ConfigError, read_h_class

        cls = read_h_class({"class": "holder", "T": 2.0, "C": 0.5, "beta": 0.5})
        assert isinstance(cls, HolderClass) and cls.beta == 0.5
        assert read_h_class({"class": "holder"}) == HolderClass(1.0, 1.0, 1.0)
        assert read_h_class({"class": "indicators"}) == BVectorClass(0, "odd")
        for desc, message in [
            # not h classes of the modulus
            ({"class": "bvector"}, "config key fclt.h_class.class must be one of holder, "
                                   "indicators, got 'bvector'"),
            ({"class": "halflines"}, "config key fclt.h_class.class must be one of holder, "
                                     "indicators, got 'halflines'"),
            ({"class": "mystery"}, "config key fclt.h_class.class must be one of holder, "
                                   "indicators, got 'mystery'"),
            ({"T": 1.0}, "config has no key fclt.h_class.class"),
            ({"class": "holder", "gamma": 1}, "config has unknown key fclt.h_class.gamma"),
            # each kind takes only its own keys
            ({"class": "indicators", "beta": 0.5}, "config has unknown key fclt.h_class.beta"),
            ({"class": "holder", "beta": 0.0}, "config key fclt.h_class.beta must be in (0, 1], "
                                               "got 0.0"),
            ({"class": "holder", "T": 10**400}, "config key fclt.h_class.T must be float, got 1"),
        ]:
            with pytest.raises(ConfigError) as exc:
                read_h_class(desc)
            assert str(exc.value).startswith(message), (desc, str(exc.value))
