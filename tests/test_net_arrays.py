"""Array-built Holder nets and the lambda((h1-h2)^2) matrix against their
scalar references: the recursive net enumeration and the pair-by-pair
lambda_sq_distance."""

import math

import numpy as np
import pytest

from semproc.function_classes import (
    HolderClass,
    HolderMember,
    IndicatorFamily,
    NetTooLargeError,
    lambda_sq_distance,
    lambda_sq_matrix,
)
from semproc.piecewise import PiecewiseLinear
from semproc.seeds import derive_seed


def recursive_net(cls: HolderClass, u: float, max_members: int = 200_000):
    """Reference enumeration: depth-first over (anchor, step_1, ..., step_m),
    Holder minorant and anchor clamp at each leaf, first occurrence kept per
    row rounded to 9 decimals.  Returns the grid and the member rows."""
    m = cls.net_grid_count(u)
    step = u / 2.0
    grid = np.arange(0, m + 1, dtype=float) / m
    hol = cls.C * np.abs(grid[:, None] - grid[None, :]) ** cls.beta
    anchor_lo = -(cls.T + u / 4.0)
    anchor_hi = cls.T + u / 4.0
    anchors = [k * step for k in range(math.ceil(anchor_lo / step),
                                       math.floor(anchor_hi / step) + 1)]
    max_step = cls.C / m**cls.beta + u / 2.0
    n_steps = 2 * math.floor(max_step / step + 1e-12) + 1
    estimate = len(anchors) * n_steps**m
    if estimate > max_members:
        raise NetTooLargeError(estimate, max_members)
    step_options = [k * step for k in range(-(n_steps // 2), n_steps // 2 + 1)]
    env = cls.C + cls.T + u / 4.0

    members: dict = {}
    seq = np.empty(m + 1)

    def extend(k: int):
        if k == m + 1:
            vals = np.min(seq[None, :] + hol, axis=1)
            shift = min(cls.T, max(-cls.T, vals[0])) - vals[0]
            vals = vals + shift
            key = tuple(np.round(vals, 9))
            if key not in members:
                members[key] = vals
            return
        prev = seq[:k]
        for s in step_options:
            cand = seq[k - 1] + s
            if abs(cand) > env + 1e-12:
                continue
            window = hol[k, :k] + u / 2.0 + 1e-12
            if np.any(np.abs(cand - prev) > window):
                continue
            seq[k] = cand
            extend(k + 1)

    for a0 in anchors:
        seq[0] = a0
        extend(1)
    return grid, np.array(list(members.values()))


def scalar_sq(members) -> np.ndarray:
    k = len(members)
    sq = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            sq[i, j] = sq[j, i] = lambda_sq_distance(members[i], members[j])
    return sq


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestNetValues:
    @pytest.mark.parametrize("T,C,beta,u", [
        (1.0, 1.0, 1.0, 0.3), (1.0, 1.0, 1.0, 0.5), (1.0, 1.0, 0.5, 1.2),
        (1.0, 1.0, 1.0, 0.8), (1.0, 1.0, 1.0, 4.0), (0.5, 2.0, 1.0, 0.9),
        (2.0, 0.5, 1.0, 0.35),
    ])
    def test_build_net_matches_recursive_order_and_bits(self, T, C, beta, u):
        cls = HolderClass(T, C, beta)
        grid, rows = recursive_net(cls, u, max_members=500_000)
        net = cls.build_net(u, max_members=500_000)
        assert len(net) == len(rows)
        assert bits_equal([m.pl.values for m in net], rows)
        assert all(m.pl.knots == tuple(grid) for m in net)
        got_grid, got_rows = cls.net_values(u, max_members=500_000)
        assert bits_equal(got_grid, grid) and bits_equal(got_rows, rows)

    @pytest.mark.parametrize("u,cap,estimate", [
        (0.1, 500_000, 3910064697265625),
        (0.05, 10**6, 736690708436071872711181640625),
    ])
    def test_too_large_estimate_unchanged(self, u, cap, estimate):
        cls = HolderClass(1.0, 1.0, 1.0)
        with pytest.raises(NetTooLargeError) as err:
            cls.net_values(u, max_members=cap)
        assert err.value.estimate == estimate and err.value.cap == cap
        with pytest.raises(NetTooLargeError) as ref:
            recursive_net(cls, u, max_members=cap)
        assert ref.value.estimate == estimate


class TestLambdaSqMatrix:
    def test_equals_scalar_on_h_pool_subsample(self):
        # the 4 * cap = 240 rows fclt._h_pool draws at net_u 0.3, seed 1
        net = HolderClass(1.0, 1.0, 1.0).build_net(0.3, max_members=500_000)
        rng = np.random.default_rng(derive_seed(1, ["h-pool"]))
        pool = [net[i] for i in sorted(rng.choice(len(net), size=240, replace=False))]
        assert bits_equal(lambda_sq_matrix(pool), scalar_sq(pool))

    @pytest.mark.parametrize("beta,u", [(1.0, 0.5), (0.5, 1.2)])
    def test_equals_scalar_on_whole_net(self, beta, u):
        net = HolderClass(1.0, 1.0, beta).build_net(u)
        sq = lambda_sq_matrix(net)  # several row blocks at these sizes
        assert bits_equal(sq, sq.T) and not np.any(np.diag(sq))
        rng = np.random.default_rng(3)
        for i, j in rng.integers(0, len(net), size=(3000, 2)):
            assert bits_equal(sq[i, j], lambda_sq_distance(net[i], net[j]))
        strided = net[:: len(net) // 90]
        assert bits_equal(lambda_sq_matrix(strided), scalar_sq(strided))

    def test_indicators(self):
        net = IndicatorFamily().build_net(0.2, "d2_lambda")
        assert bits_equal(lambda_sq_matrix(net), scalar_sq(net))

    def test_mixed_knots_fall_back_to_scalar(self):
        cls = HolderClass(1.0, 1.0, 1.0)
        coarse = cls.build_net(0.8)[:3]
        fine = cls.build_net(0.5)[:3]
        other = HolderMember(1.0, 1.0, 1.0, pl=PiecewiseLinear((0.0, 0.3, 1.0), (0.1, -0.2, 0.4)))
        cusp = cls.random_member(np.random.default_rng(2))
        family = coarse + fine + [other, cusp]
        assert bits_equal(lambda_sq_matrix(family), scalar_sq(family))
