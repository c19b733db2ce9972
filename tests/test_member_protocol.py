"""The h-member protocol and the pair closed forms.

The reference functions below are the lambda((h1-h2)^2), lambda(h1 h2) and
observed-gap computations as they stood when each caller switched on member
types itself, with an indicator 1_(0, t] recognised as a union of one
interval anchored at 0.  On the pairs those switches already handled exactly
(Holder piecewise-linear, indicators) the protocol path must give the same
floats bit for bit.  Set-member pairs are checked against exact Fraction
forms instead: the old switch sent them to breakpoint-free quadrature, which
reads 0.0 for many disjoint-looking pairs.  A set member times a
piecewise-linear one is checked against exact Fraction arithmetic and
against quadrature; a cusp Holder member has no closed form and is refused.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import (
    BVectorClass,
    HolderClass,
    b_infinity_witness,
    indicator,
    lambda_prod,
    lambda_sq_matrix,
    observed_riemann_gap,
)
from semproc.intervals import IntervalUnion
from semproc.piecewise import PiecewiseLinear, diff_sq_integral, prod_integral

from member_oracles import CuspMember, contains, random_members, set_member
from quad_oracle import lambda_prod_quadrature


# -- reference implementations (the per-caller type switches) ---------------

def _ref_indicator_end(h):
    """The float t of an indicator 1_(0, t], a union of one interval anchored
    at 0 whose end is a float; None for any other member."""
    if isinstance(h, IntervalUnion) and len(h.bounds) == 1 and h.bounds[0][0] == 0:
        t = h.bounds[0][1]
        if Fraction(float(t)) == t:
            return float(t)
    return None


def _both_indicators(h1, h2):
    return _ref_indicator_end(h1) is not None and _ref_indicator_end(h2) is not None


def _both_pl(h1, h2):
    return isinstance(h1, PiecewiseLinear) and isinstance(h2, PiecewiseLinear)


def ref_lambda_h_product(h1, h2):
    if _both_indicators(h1, h2):
        return min(_ref_indicator_end(h1), _ref_indicator_end(h2))
    assert _both_pl(h1, h2)
    return prod_integral(h1, h2)


def ref_lambda_sq_distance(h1, h2):
    if _both_indicators(h1, h2):
        return abs(_ref_indicator_end(h1) - _ref_indicator_end(h2))
    assert _both_pl(h1, h2)
    return diff_sq_integral(h1, h2)


def _ref_measure(iu):
    return sum((b - a for a, b in iu.bounds), Fraction(0))


def ref_observed_riemann_gap(member, n):
    if isinstance(member, (CuspMember, PiecewiseLinear)):
        return abs(member.lambda_n(n) - member.lambda_exact())
    t = _ref_indicator_end(member)
    if t is not None:
        member = IntervalUnion.from_pairs([(0, t)])
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
        in_u, in_v = contains(u, mid), contains(v, mid)
        xor += (hi - lo) * (in_u != in_v)
        inter += (hi - lo) * (in_u and in_v)
    return xor, inter


def _holder_members():
    """Four cusp members, then seven piecewise-linear net members on two knot
    grids (four cells, then three)."""
    rng = np.random.default_rng(11)
    cusp = [random_members(HolderClass(1.0, 1.0, beta), rng, 1)[0] for beta in (0.5, 1.0)]
    cusp += random_members(HolderClass(2.0, 0.5, 0.7), rng, 2)
    pl = HolderClass(1.0, 1.0, 1.0).build_net(0.5, 4, rng)
    pl += HolderClass(1.0, 0.5, 1.0).build_net(0.4, 3, rng)   # another knot grid
    return cusp, pl


def _holder_pairs():
    _, pl = _holder_members()
    return [(a, b) for a in pl for b in pl]


def _cusp_pairs():
    cusp, pl = _holder_members()
    return [(cusp[0], cusp[1]), (cusp[2], cusp[3]), (cusp[1], pl[0]), (pl[5], cusp[3]),
            (cusp[0], indicator(0.5)), (indicator(0.5), cusp[2])]


def _indicator_pairs():
    ts = [0.05, 0.3, 1 / 3, 0.5, 0.71, 1.0]
    return [(indicator(a), indicator(b)) for a in ts for b in ts]


def _set_pairs(cls, count, seed=0):
    members = random_members(cls, np.random.default_rng(seed), 2 * count)
    return list(zip(members[::2], members[1::2]))


SET_CLASSES = [BVectorClass(0, "odd"), BVectorClass(1, "odd"),
               BVectorClass(1, "even"), BVectorClass(2, "even")]


class TestPairFormsMatchReference:
    @pytest.mark.parametrize("pairs", [_holder_pairs(), _indicator_pairs()],
                             ids=["holder", "indicator"])
    def test_bit_equal(self, pairs):
        for h1, h2 in pairs:
            if _both_indicators(h1, h2) or (_both_pl(h1, h2) and h1.knots == h2.knots):
                # the two families lambda_sq_matrix takes
                assert bits_equal(lambda_sq_matrix([h1, h2])[0, 1],
                                  ref_lambda_sq_distance(h1, h2))
            assert bits_equal(lambda_prod(h1, h2), ref_lambda_h_product(h1, h2))

    def test_cusp_member_raises_type_error(self):
        # a cusp member has no closed-form lambda(h1 h2) with any member
        for h1, h2 in _cusp_pairs():
            with pytest.raises(TypeError):
                lambda_prod(h1, h2)


class TestSetMemberPairs:
    @pytest.mark.parametrize("cls", SET_CLASSES, ids=lambda c: f"B{c.n_breakpoints}")
    def test_exact_symdiff_and_intersection(self, cls):
        for a, b in _set_pairs(cls, 60):
            xor, inter = _cell_measures(a, b)
            assert a.symdiff_measure(b) == xor
            assert lambda_prod(a, b) == float(inter)
            bare = IntervalUnion(a.bounds), IntervalUnion(b.bounds)
            assert bare[0].symdiff_measure(bare[1]) == xor
            assert lambda_prod(*bare) == float(inter)

    def test_b3_pairs_that_quadrature_without_breakpoints_missed(self):
        # The breakpoint-free quadrature read these pairs up to 0.357 off.
        # The exact forms read them right; lambda_sq_matrix takes no B(3) family.
        pairs = _set_pairs(BVectorClass(1, "odd"), 200)
        got = np.array([lambda_prod(a, b) for a, b in pairs])
        exact = np.array([float(_cell_measures(a, b)[1]) for a, b in pairs])
        assert bits_equal(got, exact)
        assert all(a.symdiff_measure(b) == _cell_measures(a, b)[0] for a, b in pairs)
        with pytest.raises(TypeError):
            lambda_sq_matrix([a for a, _ in pairs[:20]])

    def test_mixed_indicator_and_set_pairs_are_exact(self):
        # an indicator is a set member, so it meets any union in the exact forms
        rng = np.random.default_rng(3)
        for cls in SET_CLASSES:
            for a, _ in _set_pairs(cls, 10, seed=int(rng.integers(1 << 30))):
                t = float(rng.random())
                h = indicator(t)
                xor, inter = _cell_measures(IntervalUnion.from_pairs([(0, t)]), a)
                assert h.symdiff_measure(a) == a.symdiff_measure(h) == xor
                assert lambda_prod(h, a) == float(inter)


def _exact_set_pl(u, p) -> Fraction:
    """The integral of p over u in exact Fractions of the float knots, values
    and endpoints: p is linear on each knot cell, so each piece of a cell
    inside an interval is its width times the mean of p at its two ends."""
    knots = [Fraction(k) for k in p.knots]
    vals = [Fraction(v) for v in p.values]
    total = Fraction(0)
    for a, b in u.bounds:
        for k0, k1, v0, v1 in zip(knots, knots[1:], vals, vals[1:]):
            lo, hi = max(a, k0), min(b, k1)
            if lo < hi:
                at_lo, at_hi = (v0 + (v1 - v0) * (t - k0) / (k1 - k0) for t in (lo, hi))
                total += (hi - lo) * (at_lo + at_hi) / 2
    return total


def _set_pl_pairs():
    """Random unions of every set class, and indicators, times the
    piecewise-linear members on both knot grids of _holder_members."""
    _, pl = _holder_members()
    rng = np.random.default_rng(17)
    sets = [m for cls in SET_CLASSES + [BVectorClass(2, "odd")]
            for m in random_members(cls, rng, 6)]
    sets += [indicator(t) for t in (0.05, 0.5, 0.71, 1.0)]
    return [(u, p) for u in sets for p in pl]


class TestSetTimesPiecewiseLinear:
    def test_exact_fraction_oracle(self):
        for u, p in _set_pl_pairs():
            got = lambda_prod(u, p)
            assert bits_equal(lambda_prod(p, u), got)
            assert abs(Fraction(got) - _exact_set_pl(u, p)) <= Fraction(1, 10**15)

    def test_quadrature_oracle(self):
        for u, p in _set_pl_pairs():
            assert abs(lambda_prod(u, p) - lambda_prod_quadrature(u, p)) <= 1e-12


class TestObservedGapMatchesReference:
    def _members(self):
        rng = np.random.default_rng(21)
        out = [random_members(HolderClass(1.0, 1.0, beta), rng, 1)[0] for beta in (0.5, 1.0)]
        out += HolderClass(1.0, 1.0, 1.0).build_net(0.5, 3, rng)
        out += [random_members(cls, rng, 1)[0] for cls in SET_CLASSES + [BVectorClass(2, "odd")]]
        out += [set_member(cls, [Fraction(1, 3)] * cls.n_breakpoints) for cls in SET_CLASSES]
        out += [indicator(t) for t in (0.05, 1 / 3, 0.5, 0.999, 1.0)]
        out += [b_infinity_witness(k) for k in (1, 3, 7)]
        out += [IntervalUnion.from_pairs([(Fraction(1, 7), Fraction(2, 7)), (0.5, 0.9)])]
        return out

    def test_bit_equal(self):
        for m in self._members():
            for n in (1, 7, 10, 64, 1000):
                assert bits_equal(observed_riemann_gap(m, n), ref_observed_riemann_gap(m, n))


class TestProtocol:
    def test_exact_lambdas(self):
        m = set_member(BVectorClass(1, "odd"), [0.25, 0.5, 0.75])
        assert m.lambda_exact() == Fraction(1, 2)
        assert m.on_grid(10).tolist() == [1, 1, 0, 0, 0, 1, 1, 0, 0, 0]
        assert m.lambda_n(8) == Fraction(4, 8)
        assert indicator(0.25).lambda_n(10) == Fraction(2, 10)
        assert indicator(0.3).lambda_n(10) == Fraction(2, 10)   # the float 0.3 < 3/10
        assert indicator(0.3).on_grid(10).sum() == 2.0
        assert indicator(0.3).lambda_exact() == 0.3

    def test_stored_lebesgue_is_the_sum(self):
        rng = np.random.default_rng(4)
        for u in random_members(BVectorClass(2, "even"), rng, 50):
            assert u.lebesgue() == _ref_measure(u) == u.lambda_exact()
        assert IntervalUnion(()).lebesgue() == 0
        assert IntervalUnion.from_pairs([(0, 1)]).lebesgue() == 1

    @pytest.mark.parametrize("t", [0.0, -0.25, 1.0 + 1e-12, 2.5, math.nan, -0.1, 1.5])
    def test_indicator_end_point_outside_unit_interval_rejected(self, t):
        # an indicator is a nonempty B(1) set (0, t], so t lies in (0, 1]
        with pytest.raises(ValueError, match=r"indicator end point t=.* is outside \(0, 1\]"):
            indicator(t)
        assert indicator(1.0).lambda_exact() == 1.0
