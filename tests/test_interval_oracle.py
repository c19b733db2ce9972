"""IntervalUnion's integer paths against the all-Fraction reference.

fraction_from_pairs converts every endpoint to a Fraction before it sorts and
merges, and the reference measure, grid count and gap are Fraction sums; this
is how intervals and observed_riemann_gap computed them before the endpoints
were merged as floats and counted over one common denominator.  The fast
paths must agree with it exactly: equal Fractions, equal integers, and gaps
with the same float bits.
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
    observed_riemann_gap,
)
from semproc.intervals import IntervalUnion

from member_oracles import random_members

N_LIST = (1, 7, 10, 100, 1000, 4096)


def fraction_from_pairs(pairs):
    raw = []
    for a, b in pairs:
        fa, fb = Fraction(a), Fraction(b)
        if fa < 0 or fb > 1:
            raise ValueError(f"interval ({a}, {b}] not inside [0, 1]")
        if fa < fb:
            raw.append((fa, fb))
    raw.sort()
    merged = []
    for a, b in raw:
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return tuple(merged)


def fraction_lebesgue(bounds):
    return sum((b - a for a, b in bounds), Fraction(0))


def fraction_grid_count(bounds, n):
    return sum(math.floor(n * b) - math.floor(n * a) for a, b in bounds)


def fraction_intersection(bounds1, bounds2):
    """The intersection of two merged Fraction unions, pair by pair, merged
    again: how IntervalUnion.intersect built it before the merge walk."""
    return fraction_from_pairs([(max(a, c), min(b, d)) for a, b in bounds1
                                for c, d in bounds2 if max(a, c) < min(b, d)])


def fraction_gap(lambda_n, lambda_exact):
    return float(abs(lambda_n - Fraction(lambda_exact)))


def assert_matches_reference(union, pairs):
    ref = fraction_from_pairs(pairs)
    assert union.bounds == ref
    assert all(type(x) is Fraction for pair in union.bounds for x in pair)
    lam = fraction_lebesgue(ref)
    assert type(union.lambda_exact()) is Fraction and union.lambda_exact() == lam
    for n in N_LIST:
        count = fraction_grid_count(ref, n)
        assert union.grid_count(n) == count
        assert union.lambda_n(n) == Fraction(count, n)
        if n <= 100:
            assert union.on_grid(n).tolist() == [
                float(any(a < Fraction(i, n) <= b for a, b in ref)) for i in range(1, n + 1)]
        want = fraction_gap(Fraction(count, n), lam)
        assert observed_riemann_gap(union, n).hex() == want.hex()


@pytest.mark.parametrize("j,parity", [(0, "odd"), (1, "even"), (1, "odd"), (2, "even"),
                                      (2, "odd")])
def test_random_b_members(j, parity):
    cls = BVectorClass(j, parity)
    rng = np.random.default_rng(40 + 2 * j + (parity == "odd"))
    for _ in range(200):
        t = np.sort(rng.random(cls.n_breakpoints))
        pairs = [(0, t[0])] if parity == "odd" else []
        rest = t[1:] if parity == "odd" else t
        pairs += [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
        assert_matches_reference(cls.member(t), pairs)


def test_fraction_endpoints():
    rng = np.random.default_rng(5)
    for _ in range(300):
        den = int(rng.integers(1, 60))
        ends = [Fraction(int(rng.integers(0, den + 1)), den) for _ in range(2 * int(
            rng.integers(0, 5)))]
        pairs = list(zip(ends[::2], ends[1::2]))
        assert_matches_reference(IntervalUnion.from_pairs(pairs), pairs)


def test_b_infinity_witness():
    for n in range(1, 21):
        eps = Fraction(1, n * 2**n)
        pairs = [(Fraction(m, n), Fraction(m + 1, n) - eps) for m in range(n)]
        w = b_infinity_witness(n)
        assert_matches_reference(w, pairs)
        assert w.lambda_n(n) == 0 and w.lebesgue() == 1 - Fraction(1, 2**n)


@pytest.mark.parametrize("pairs", [
    [(0.0, 0.25), (0.25, 0.5)],                      # touching
    [(0.5, 0.75), (0.0, 0.5)],                       # touching, unsorted
    [(0.1, 0.6), (0.4, 0.9)],                        # overlapping
    [(0.1, 0.9), (0.3, 0.4)],                        # nested
    [(0.2, 0.5), (Fraction(1, 2), 0.7)],             # float meets equal Fraction
    [(Fraction(1, 5), 0.5), (0.2, Fraction(1, 3))],  # Fraction 1/5 vs float 0.2
    [(0, 1), (0.3, 0.6)],                            # int endpoints
    [(0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.05, 0.1)],
])
def test_touching_and_overlapping_merge(pairs):
    assert_matches_reference(IntervalUnion.from_pairs(pairs), pairs)


@pytest.mark.parametrize("pairs", [
    [],
    [(0.3, 0.3)],
    [(0.6, 0.2)],
    [(1, 0)],
    [(0.3, 0.3), (0.1, 0.2), (0.9, 0.4)],
    [(np.float64(0.25), np.float64(0.75))],
    [(np.int64(0), np.float64(0.5)), (Fraction(1, 4), np.int64(1))],
    [(Fraction(2, 3), Fraction(1, 3)), (0.5, 0.5)],
])
def test_empty_intervals_and_bare_input(pairs):
    assert_matches_reference(IntervalUnion.from_pairs(pairs), pairs)


@pytest.mark.parametrize("pairs", [[(-0.1, 0.5)], [(0.2, 1.5)], [(float("nan"), 0.5)],
                                   [(0.2, float("nan"))], [(0.0, float("inf"))]])
def test_outside_unit_interval_raises(pairs):
    with pytest.raises((ValueError, OverflowError)):
        fraction_from_pairs(pairs)
    with pytest.raises(ValueError):
        IntervalUnion.from_pairs(pairs)


def test_non_set_members_keep_their_gaps():
    rng = np.random.default_rng(9)
    for cls in (HolderClass(1, 1, 0.5), HolderClass(1, 1, 1.0)):
        for h in random_members(cls, rng, 50):
            for n in (10, 100, 1000):
                want = fraction_gap(h.lambda_n(n), h.lambda_exact())
                assert observed_riemann_gap(h, n).hex() == want.hex()
    for t in rng.random(100):
        h = indicator(float(t))
        for n in N_LIST:
            want = fraction_gap(h.lambda_n(n), h.lambda_exact())
            assert observed_riemann_gap(h, n).hex() == want.hex()


def _random_union(rng, den):
    """A union whose ends sit on the grid k / den, as Fractions or floats
    (exact when den is a power of 2), at 0 or 1 as ints, or off the grid as
    floats, so that two unions on one grid often share and touch ends."""
    def end():
        kind, k = rng.random(), int(rng.integers(0, den + 1))
        if kind < 0.4:
            return Fraction(k, den)
        if kind < 0.8:
            return k / den
        return int(rng.integers(0, 2)) if kind < 0.9 else float(rng.random())

    ends = [end() for _ in range(2 * int(rng.integers(0, 6)))]
    return IntervalUnion.from_pairs(zip(ends[::2], ends[1::2]))


def test_intersection_and_symdiff_measures_against_fraction_pairs():
    rng = np.random.default_rng(28)
    for trial in range(600):
        den = int(rng.choice([7, 8, 12]))
        a = _random_union(rng, den)
        b = a if trial % 5 == 0 else _random_union(rng, den)
        inter = fraction_lebesgue(fraction_intersection(a.bounds, b.bounds))
        assert a.intersection_measure(b) == b.intersection_measure(a) == inter
        assert type(a.intersection_measure(b)) is Fraction
        assert a.symdiff_measure(b) == a.lebesgue() + b.lebesgue() - 2 * inter
