"""Bulk member draws and the integer form of IntervalUnion.

A class's array draw of m members (random_breakpoints, random_cusps) must
give the rows, and leave the generator in the state, of m one-row draws.
An IntervalUnion holds its endpoints as integers over one denominator;
equality and hashing read that form, and the Fraction endpoints are built
only when bounds or lebesgue() is read.
"""

from fractions import Fraction

import numpy as np
import pytest

from semproc import intervals
from semproc.function_classes import INDICATORS, BVectorClass, HolderClass
from semproc.intervals import IntervalUnion

CLASSES = {
    "B1": INDICATORS, "B2": BVectorClass(1, "even"), "B3": BVectorClass(1, "odd"),
    "B4": BVectorClass(2, "even"), "B5": BVectorClass(2, "odd"),
    "holder": HolderClass(1.0, 1.0, 0.5),
}


def draw(cls, rng, count) -> list:
    """The arrays of count members: random_cusps's four, or random_breakpoints's one."""
    if isinstance(cls, HolderClass):
        return list(cls.random_cusps(rng, count))
    return [cls.random_breakpoints(rng, count)]


@pytest.mark.parametrize("count", [0, 1, 33])
@pytest.mark.parametrize("name", sorted(CLASSES))
def test_random_members_match_one_at_a_time(name, count):
    cls = CLASSES[name]
    bulk_rng, one_rng = np.random.default_rng(21), np.random.default_rng(21)
    bulk = draw(cls, bulk_rng, count)
    ones = [draw(cls, one_rng, 1) for _ in range(count)]
    assert len(bulk[0]) == count
    for k, got in enumerate(bulk):
        want = np.concatenate([one[k] for one in ones]) if ones else got[:0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert bulk_rng.bit_generator.state == one_rng.bit_generator.state


PAIRS = {
    "float": [(0.5, 0.75), (0.1, 0.3), (0.25, 0.6), (0.9, 0.9)],
    "int": [(0, 1)],
    "fraction": [(Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(1, 7))],
    "mixed": [(0, 0.25), (Fraction(1, 4), Fraction(2, 5)), (0.5, 1)],
    "empty": [],
}


@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_bounds_round_trip(kind):
    union = IntervalUnion.from_pairs(PAIRS[kind])
    assert all(type(x) is Fraction for pair in union.bounds for x in pair)
    again = IntervalUnion(union.bounds)
    assert again == union and hash(again) == hash(union)
    # endpoints given as floats or ints give the union their Fractions give
    as_fractions = [(Fraction(a), Fraction(b)) for a, b in PAIRS[kind]]
    assert IntervalUnion.from_pairs(as_fractions) == union
    assert IntervalUnion(union.bounds).bounds == union.bounds


def test_equality_is_endpoint_equality():
    assert IntervalUnion.from_pairs([(0.5, 1)]) == IntervalUnion(((Fraction(1, 2), 1),))
    assert IntervalUnion.from_pairs([(0.1, 0.2)]) != IntervalUnion.from_pairs(
        [(Fraction(1, 10), Fraction(1, 5))])
    assert len({IntervalUnion.from_pairs([(0, 0.5)]), IntervalUnion.from_pairs([(0, 0.25),
                                                                              (0.25, 0.5)])}) == 1


def test_float_members_build_no_fraction_until_read(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(intervals, "Fraction", counting)
    union = IntervalUnion.from_pairs([(0.125, 0.5), (0.3, 0.7), (0.8, 0.95)])
    union.grid_count(10)
    union.riemann_gap(7)
    assert built == []
    union.lebesgue()
    assert len(built) == 1
    union = IntervalUnion.from_pairs([(0.125, 0.5)])
    union.bounds
    assert len(built) == 3
