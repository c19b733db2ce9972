"""The h-member protocol and the two pair closed forms.

The reference functions below are the lambda((h1-h2)^2), lambda(h1 h2) and
observed-gap computations as they stood when each caller switched on member
types itself.  On the pairs those switches already handled exactly (Holder
piecewise-linear, Holder cusp, indicators) the protocol path must give the
same floats bit for bit.  Set-member pairs are checked against exact
Fraction forms instead: the old switch sent them to breakpoint-free
quadrature, which reads 0.0 for many disjoint-looking pairs.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import (
    BVectorClass,
    BVectorMember,
    HolderClass,
    HolderMember,
    IndicatorFamily,
    IndicatorMember,
    b_infinity_witness,
    lambda_prod,
    lambda_sq_distance,
    lambda_sq_matrix,
    observed_riemann_gap,
)
from semproc.intervals import IntervalUnion
from semproc.piecewise import diff_sq_integral, prod_integral
from semproc.quadrature import integrate


# -- reference implementations (the per-caller type switches) ---------------

def _ref_breakpoints(h):
    return (h.t,) if isinstance(h, IndicatorMember) else ()


def _both_pl(h1, h2):
    return (isinstance(h1, HolderMember) and isinstance(h2, HolderMember)
            and h1.pl is not None and h2.pl is not None)


def ref_lambda_h_product(h1, h2, tol):
    if isinstance(h1, IndicatorMember) and isinstance(h2, IndicatorMember):
        return min(h1.t, h2.t)
    if _both_pl(h1, h2):
        return prod_integral(h1.pl, h2.pl)
    breakpoints = tuple(set(_ref_breakpoints(h1) + _ref_breakpoints(h2)))
    return integrate(lambda s: float(h1(s)) * float(h2(s)),
                     0.0, 1.0, tol=tol, breakpoints=breakpoints)


def ref_lambda_sq_distance(h1, h2):
    if isinstance(h1, IndicatorMember) and isinstance(h2, IndicatorMember):
        return abs(h1.t - h2.t)
    if _both_pl(h1, h2):
        return diff_sq_integral(h1.pl, h2.pl)
    return integrate(lambda x: (float(h1(x)) - float(h2(x))) ** 2, 0.0, 1.0, tol=1e-10)


def _ref_measure(iu):
    return sum((b - a for a, b in iu.bounds), Fraction(0))


def ref_observed_riemann_gap(member, n):
    if isinstance(member, HolderMember):
        return abs(member.lambda_n(n) - member.lambda_exact())
    if isinstance(member, IndicatorMember):
        member = IntervalUnion.from_pairs([(0, member.t)])
    if isinstance(member, BVectorMember):
        member = member.set
    return float(abs(member.lambda_n(n) - _ref_measure(member)))


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _cell_measures(u, v):
    """(measure of u xor v, measure of u and v) by brute force over the cells
    between consecutive endpoints of both unions."""
    cuts = sorted({Fraction(0), Fraction(1)}
                  | {x for pair in u.bounds + v.bounds for x in pair})
    xor = inter = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        in_u, in_v = u.contains(mid), v.contains(mid)
        xor += (hi - lo) * (in_u != in_v)
        inter += (hi - lo) * (in_u and in_v)
    return xor, inter


def _holder_pairs():
    rng = np.random.default_rng(11)
    cusp = [HolderClass(1.0, 1.0, beta).random_member(rng) for beta in (0.5, 1.0)]
    cusp += [HolderClass(2.0, 0.5, 0.7).random_member(rng) for _ in range(2)]
    pl = HolderClass(1.0, 1.0, 1.0).net_sample(0.5, 4, rng)
    pl += HolderClass(1.0, 0.5, 1.0).net_sample(0.4, 3, rng)   # another knot grid
    return ([(a, b) for a in pl for b in pl]
            + [(cusp[0], cusp[1]), (cusp[2], cusp[3]), (cusp[1], pl[0]), (pl[5], cusp[3])])


def _indicator_pairs():
    ts = [0.05, 0.3, 1 / 3, 0.5, 0.71, 1.0]
    return [(IndicatorMember(a), IndicatorMember(b)) for a in ts for b in ts]


def _set_pairs(cls, count, seed=0):
    rng = np.random.default_rng(seed)
    return [(cls.random_member(rng), cls.random_member(rng)) for _ in range(count)]


SET_CLASSES = [BVectorClass(0, "odd"), BVectorClass(1, "odd"),
               BVectorClass(1, "even"), BVectorClass(2, "even")]


class TestPairFormsMatchReference:
    @pytest.mark.parametrize("pairs", [_holder_pairs(), _indicator_pairs()],
                             ids=["holder", "indicator"])
    def test_bit_equal(self, pairs):
        for h1, h2 in pairs:
            assert bits_equal(lambda_sq_distance(h1, h2), ref_lambda_sq_distance(h1, h2))
            for tol in (1e-10, 1e-8):
                assert bits_equal(lambda_prod(h1, h2, tol), ref_lambda_h_product(h1, h2, tol))


class TestSetMemberPairs:
    @pytest.mark.parametrize("cls", SET_CLASSES, ids=lambda c: f"B{c.n_breakpoints}")
    def test_exact_symdiff_and_intersection(self, cls):
        for a, b in _set_pairs(cls, 60):
            xor, inter = _cell_measures(a.set, b.set)
            assert a.set.symdiff_measure(b.set) == xor
            assert lambda_sq_distance(a, b) == float(xor)
            assert lambda_prod(a, b, 1e-10) == float(inter)
            bare = IntervalUnion(a.bounds), IntervalUnion(b.bounds)
            assert lambda_sq_distance(*bare) == float(xor)
            assert lambda_prod(*bare, 1e-10) == float(inter)

    def test_b3_pairs_that_quadrature_without_breakpoints_missed(self):
        # The breakpoint-free quadrature read these pairs up to 0.357 off.
        pairs = _set_pairs(BVectorClass(1, "odd"), 200)
        got = np.array([lambda_sq_distance(a, b) for a, b in pairs])
        exact = np.array([float(a.set.symdiff_measure(b.set)) for a, b in pairs])
        assert bits_equal(got, exact)
        assert bits_equal(lambda_sq_matrix([a for a, _ in pairs[:20]]),
                          np.array([[float(x.set.symdiff_measure(y.set))
                                     for y, _ in pairs[:20]] for x, _ in pairs[:20]]))

    def test_mixed_indicator_and_set_pairs_use_breakpoints(self):
        rng = np.random.default_rng(3)
        for cls in SET_CLASSES:
            for a, _ in _set_pairs(cls, 10, seed=int(rng.integers(1 << 30))):
                h = IndicatorMember(float(rng.random()))
                xor, inter = _cell_measures(IntervalUnion.from_pairs([(0, h.t)]), a.set)
                assert lambda_sq_distance(h, a) == pytest.approx(float(xor), abs=1e-12)
                assert lambda_sq_distance(a, h) == pytest.approx(float(xor), abs=1e-12)
                assert lambda_prod(h, a, 1e-10) == pytest.approx(float(inter), abs=1e-12)


class TestObservedGapMatchesReference:
    def _members(self):
        rng = np.random.default_rng(21)
        out = [HolderClass(1.0, 1.0, beta).random_member(rng) for beta in (0.5, 1.0)]
        out += HolderClass(1.0, 1.0, 1.0).net_sample(0.5, 3, rng)
        out += [cls.random_member(rng) for cls in SET_CLASSES + [BVectorClass(2, "odd")]]
        out += [cls.member([Fraction(1, 3)] * cls.n_breakpoints) for cls in SET_CLASSES]
        out += [IndicatorMember(t) for t in (0.05, 1 / 3, 0.5, 0.999, 1.0)]
        out += [b_infinity_witness(k) for k in (1, 3, 7)]
        out += [IntervalUnion.from_pairs([(Fraction(1, 7), Fraction(2, 7)), (0.5, 0.9)])]
        return out

    def test_bit_equal(self):
        for m in self._members():
            for n in (1, 7, 10, 64, 1000):
                assert bits_equal(observed_riemann_gap(m, n), ref_observed_riemann_gap(m, n))


class TestProtocol:
    def test_breakpoints(self):
        assert IndicatorMember(0.25).breakpoints() == (0.25,)
        assert HolderClass(1.0, 1.0, 1.0).random_member(np.random.default_rng(0)) \
            .breakpoints() == ()
        m = BVectorClass(1, "even").member([0.1, 0.4])
        assert m.breakpoints() == (0.1, 0.4)
        assert BVectorClass(0, "odd").member([0.0]).breakpoints() == ()

    def test_exact_lambdas(self):
        m = BVectorClass(1, "odd").member([0.25, 0.5, 0.75])
        assert m.lambda_exact() == Fraction(1, 2) and m(0.6) == 1.0 and m(0.4) == 0.0
        assert m.lambda_n(8) == Fraction(4, 8)
        assert IndicatorMember(0.25).lambda_n(10) == Fraction(2, 10)
        assert IndicatorMember(0.3).lambda_n(10) == Fraction(2, 10)   # the float 0.3 < 3/10
        assert IndicatorMember(0.3).lambda_exact() == 0.3

    def test_stored_lebesgue_is_the_sum(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = BVectorClass(2, "even").random_member(rng)
            assert u.lebesgue() == _ref_measure(u) == u.lambda_exact()
        assert IntervalUnion.empty().lebesgue() == 0
        assert IntervalUnion.full().lebesgue() == 1

    @pytest.mark.parametrize("t", [0.0, -0.25, 1.0 + 1e-12, 2.5, math.nan])
    def test_indicator_end_point_outside_unit_interval_rejected(self, t):
        # lambda(h1 h2) reads min(t1, t2), which only holds for t in (0, 1]
        with pytest.raises(ValueError):
            IndicatorMember(t)
        assert IndicatorMember(1.0).lambda_exact() == 1.0

    def test_indicator_family_envelope_is_a_constant(self):
        assert IndicatorFamily().envelope_constant == 1.0
        with pytest.raises(TypeError):
            IndicatorFamily(2.0)
