"""cusp_riemann_gap_rows against the one-member gap, bit for bit.

Cusp Holder members are evaluated in row blocks; every gap must equal
scalar_riemann_gap of the member's CuspMember, at block edges, for every
cusp count and beta, and in the caller's order.  One call must also stay
small in memory, so that an unblocked evaluation of every member at once
fails here.
"""

import tracemalloc

import numpy as np
import pytest

from semproc.function_classes import HolderClass, cusp_riemann_gap_rows

from member_oracles import cusp_members, scalar_riemann_gap

BETAS = (0.3, 0.5, 0.75, 1.0)
NS = (1, 2, 7, 10, 100, 1000)
COUNTS = (1, 15, 16, 17, 1000)


def cusp_arrays(rng, beta, cusp_counts):
    """The arrays (a, coeffs, centers, cusps) of members of H(1, 1, beta),
    member i with cusp_counts[i] cusps, laid out as random_cusps lays them."""
    cusps = np.array(cusp_counts, dtype=np.int64)
    a = np.empty(len(cusps))
    coeffs, centers = np.zeros((len(cusps), 3)), np.zeros((len(cusps), 3))
    for i, k in enumerate(cusps):
        c = rng.standard_normal(k)
        if k:
            c *= rng.random() / np.sum(np.abs(c))
        x = rng.random(k)
        coeffs[i, :k], centers[i, :k] = c, x
        a[i] = 2.0 * rng.random() - 1.0 - np.sum(c * x**beta)
    return a, coeffs, centers, cusps


def mixed_cusps(rng, beta, count):
    return cusp_arrays(rng, beta, 1 + rng.integers(3, size=count))


def assert_cusp_bits(beta, arrays, n):
    members = cusp_members(HolderClass(1.0, 1.0, beta), arrays)
    got = cusp_riemann_gap_rows(beta, arrays, [n])[0]
    assert len(got) == len(members)
    for g, m in zip(got, members):
        assert type(g) is float
        assert g.hex() == scalar_riemann_gap(m, n).hex()


@pytest.mark.parametrize("beta", BETAS)
def test_block_edges_and_cusp_counts(beta):
    rng = np.random.default_rng(int(beta * 100))
    lists = [mixed_cusps(rng, beta, count) for count in COUNTS]
    lists += [cusp_arrays(rng, beta, [cusps] * 17) for cusps in (1, 2, 3)]
    for n in NS:
        for arrays in lists:
            assert_cusp_bits(beta, arrays, n)


def test_random_members_of_the_bounds_classes():
    rng = np.random.default_rng(11)
    for beta in (0.5, 1.0):
        arrays = HolderClass(1.0, 1.0, beta).random_cusps(rng, 200)
        for n in (10, 100, 1000):
            assert_cusp_bits(beta, arrays, n)


def test_mixed_list_keeps_its_order():
    # the kernel sorts rows by cusp count; the gaps come back in row order,
    # a member with no cusps among them
    rng = np.random.default_rng(5)
    for beta in BETAS:
        counts = rng.permutation([0, 0] + [1 + i % 3 for i in range(36)])
        for n in NS:
            assert_cusp_bits(beta, cusp_arrays(rng, beta, counts), n)


def test_empty_list():
    arrays = HolderClass(1.0, 1.0, 0.5).random_cusps(np.random.default_rng(0), 0)
    assert cusp_riemann_gap_rows(0.5, arrays, [10]) == [[]]


def test_one_call_stays_below_one_megabyte():
    rng = np.random.default_rng(2)
    arrays = mixed_cusps(rng, 0.5, 1000)
    cusp_riemann_gap_rows(0.5, arrays, [1000])  # warm up
    tracemalloc.start()
    try:
        cusp_riemann_gap_rows(0.5, arrays, [1000])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
