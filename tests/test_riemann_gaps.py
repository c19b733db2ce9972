"""observed_riemann_gap_rows against the one-member gap, bit for bit.

Cusp Holder members are evaluated in row blocks; every gap must equal
scalar_riemann_gap (set members: the exact rational gap rounded once), at
block edges, for every cusp count and beta, and in the caller's order.  One
call must also stay small in memory, so that an unblocked evaluation of every
member at once fails here.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from semproc.function_classes import (
    BVectorClass,
    HolderClass,
    HolderMember,
    b_infinity_witness,
    indicator,
    observed_riemann_gap,
    observed_riemann_gap_rows,
)
from semproc.intervals import IntervalUnion

from member_oracles import observed_riemann_gap_exact, scalar_riemann_gap

BETAS = (0.3, 0.5, 0.75, 1.0)
NS = (1, 2, 7, 10, 100, 1000)
COUNTS = (1, 15, 16, 17, 1000)


def cusp_member(rng, beta, cusps):
    """A member of H(1, 1, beta) with exactly `cusps` cusps."""
    coeffs = rng.standard_normal(cusps)
    coeffs *= rng.random() / np.sum(np.abs(coeffs))
    centers = rng.random(cusps)
    a = float(2.0 * rng.random() - 1.0 - np.sum(coeffs * centers**beta))
    return HolderMember(1.0, 1.0, beta, a=a, coeffs=tuple(coeffs), centers=tuple(centers))


def mixed_cusps(rng, beta, count):
    return [cusp_member(rng, beta, 1 + int(rng.integers(3))) for _ in range(count)]


def reference_gap(member, n):
    if isinstance(member, IntervalUnion):
        return float(observed_riemann_gap_exact(member, n))
    return scalar_riemann_gap(member, n)


def assert_bits(got, members, n):
    assert len(got) == len(members)
    for g, m in zip(got, members):
        assert type(g) is float
        assert g.hex() == reference_gap(m, n).hex()


@pytest.mark.parametrize("beta", BETAS)
def test_block_edges_and_cusp_counts(beta):
    rng = np.random.default_rng(int(beta * 100))
    lists = [mixed_cusps(rng, beta, count) for count in COUNTS]
    lists += [[cusp_member(rng, beta, cusps) for _ in range(17)] for cusps in (1, 2, 3)]
    for n in NS:
        for members in lists:
            assert_bits(observed_riemann_gap_rows(members, [n])[0], members, n)


def test_random_members_of_the_bounds_classes():
    rng = np.random.default_rng(11)
    for beta in (0.5, 1.0):
        members = [HolderClass(1.0, 1.0, beta).random_member(rng) for _ in range(200)]
        for n in (10, 100, 1000):
            assert_bits(observed_riemann_gap_rows(members, [n])[0], members, n)


def test_mixed_list_keeps_its_order():
    rng = np.random.default_rng(5)
    others = [
        indicator(0.3), indicator(1.0),
        BVectorClass(1, "odd").random_member(rng), BVectorClass(2, "even").random_member(rng),
        b_infinity_witness(4),
        IntervalUnion.from_pairs([(Fraction(1, 7), Fraction(2, 7)), (0.5, 0.9)]),
        *HolderClass(1.0, 1.0, 1.0).net_sample(0.5, 3, rng),
        HolderMember(1.0, 1.0, 0.5, a=0.25),  # no cusps
    ]
    cusps = [cusp_member(rng, beta, 1 + i % 3) for i, beta in enumerate(BETAS * 9)]
    members = others + cusps
    order = rng.permutation(len(members))
    members = [members[i] for i in order]
    for n in NS:
        got = observed_riemann_gap_rows(members, [n])[0]
        assert_bits(got, members, n)
        assert [observed_riemann_gap(m, n) for m in members] == got


def test_empty_list():
    assert observed_riemann_gap_rows([], [10])[0] == []


def test_one_call_stays_below_one_megabyte():
    rng = np.random.default_rng(2)
    members = mixed_cusps(rng, 0.5, 1000)
    observed_riemann_gap_rows(members, [1000])  # warm up
    tracemalloc.start()
    try:
        observed_riemann_gap_rows(members, [1000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
