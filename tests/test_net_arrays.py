"""Array-built Holder nets and the lambda((h1-h2)^2) matrix against their
scalar references: the recursive net enumeration, and pair by pair
piecewise.diff_sq_integral and IntervalUnion.symdiff_measure."""

import math
from fractions import Fraction

import numpy as np
import pytest

import semproc.function_classes as fc
from semproc.function_classes import (
    BVectorClass,
    HolderClass,
    NetTooLargeError,
    indicator,
    indicator_net,
    lambda_sq_matrix,
)
from semproc.intervals import IntervalUnion
from semproc.piecewise import PiecewiseLinear, diff_sq_integral
from semproc.seeds import derive_seed

from member_oracles import set_member


def recursive_net(cls: HolderClass, u: float, max_members: int = 200_000):
    """Reference enumeration: depth-first over (anchor, step_1, ..., step_m),
    Holder minorant and anchor clamp at each leaf, first occurrence kept per
    row rounded to 9 decimals.  Returns the grid and the member rows; raises
    NetTooLargeError, with the exact bound anchors * steps^m as its
    estimate, when that bound exceeds max_members."""
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
        err = NetTooLargeError(math.log10(estimate), max_members)
        err.estimate = estimate
        raise err
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


def pair_sq(a, b) -> float:
    """lambda((a-b)^2) of one pair: the per-cell Simpson sum of two
    piecewise-linear members, the symmetric-difference measure of two sets."""
    if isinstance(a, IntervalUnion):
        return float(a.symdiff_measure(b))
    return diff_sq_integral(a, b)


def scalar_sq(members) -> np.ndarray:
    k = len(members)
    sq = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            sq[i, j] = sq[j, i] = pair_sq(members[i], members[j])
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
        net = cls.build_net(u)
        assert len(net) == len(rows)
        assert bits_equal([m.values for m in net], rows)
        assert all(m.knots == tuple(grid) for m in net)
        got_grid, got_rows = cls.net_values(u)
        assert bits_equal(got_grid, grid) and bits_equal(got_rows, rows)

    @pytest.mark.parametrize("T,C,beta,u", [(1.0, 1.0, 1.0, 0.3), (1.0, 1.0, 0.5, 1.2),
                                            (2.0, 0.5, 1.0, 0.35)])
    def test_running_minorant_equals_the_broadcast_form(self, monkeypatch, T, C, beta, u):
        # (1, 1, 1, 0.3) is the default fclt net, 32,803 rows over 8 knots
        def broadcast(seqs, hol):
            return np.min(seqs[:, None, :] + hol, axis=2)

        running = fc._grid_minorant
        cls = HolderClass(T, C, beta)
        grid, rows = cls.net_values(u)
        monkeypatch.setattr(fc, "_grid_minorant", broadcast)
        want_grid, want_rows = cls.net_values(u)
        assert bits_equal(grid, want_grid) and bits_equal(rows, want_rows)
        rng = np.random.default_rng(5)
        seqs = rng.standard_normal((300, len(grid)))
        hol = C * np.abs(grid[:, None] - grid[None, :]) ** beta
        assert bits_equal(running(seqs, hol), broadcast(seqs, hol))

    @pytest.mark.parametrize("u,cap,estimate", [
        (0.1, 500_000, 3910064697265625),
        (0.05, 10**6, 736690708436071872711181640625),
    ])
    def test_too_large_estimate_unchanged(self, u, cap, estimate):
        # net_values has the one cap 500,000; the reference takes cap
        cls = HolderClass(1.0, 1.0, 1.0)
        with pytest.raises(NetTooLargeError) as err:
            cls.net_values(u)
        assert err.value.log10_estimate == pytest.approx(math.log10(estimate), rel=1e-14)
        assert err.value.cap == 500_000
        with pytest.raises(NetTooLargeError) as ref:
            recursive_net(cls, u, max_members=cap)
        assert ref.value.estimate == estimate

    @pytest.mark.parametrize("T,C,beta,u", [(1.0, 1.0, 1.0, 0.8), (0.5, 2.0, 1.0, 0.9),
                                            (1.0, 1.0, 0.5, 1.2)])
    def test_cap_compares_the_exact_count(self, monkeypatch, T, C, beta, u):
        # at a cap equal to the exact bound the net is built; one below, it is not
        cls = HolderClass(T, C, beta)
        with pytest.raises(NetTooLargeError) as ref:
            recursive_net(cls, u, max_members=0)
        estimate = ref.value.estimate
        monkeypatch.setattr(fc, "_HOLDER_NET_CAP", estimate)
        grid, rows = recursive_net(cls, u, max_members=estimate)
        assert bits_equal(cls.net_values(u)[1], rows)
        monkeypatch.setattr(fc, "_HOLDER_NET_CAP", estimate - 1)
        with pytest.raises(NetTooLargeError):
            cls.net_values(u)


class TestLambdaSqMatrix:
    def test_equals_scalar_on_h_pool_subsample(self):
        # the 4 * cap = 240 rows fclt._h_pool draws at net_u 0.3, seed 1
        net = HolderClass(1.0, 1.0, 1.0).build_net(0.3)
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
            assert bits_equal(sq[i, j], pair_sq(net[i], net[j]))
        strided = net[:: len(net) // 90]
        assert bits_equal(lambda_sq_matrix(strided), scalar_sq(strided))

    def test_indicators(self):
        net = indicator_net(0.2 * 0.2)
        assert bits_equal(lambda_sq_matrix(net), scalar_sq(net))

    @pytest.mark.parametrize("mesh", [0.01, 0.09, 0.1, 1 / 7, 0.3])
    def test_indicator_nets_equal_the_exact_symmetric_difference(self, mesh):
        # |t_i - t_j| in floats against the Fraction measure of (0, t_i] xor (0, t_j]
        net = indicator_net(mesh)
        exact = np.array([[float(a.symdiff_measure(b)) for b in net] for a in net])
        assert bits_equal(lambda_sq_matrix(net), exact)

    @pytest.mark.parametrize("family", [
        [indicator(0.2), set_member(BVectorClass(1, "even"), [0.1, 0.4]), indicator(0.7)],
        [indicator(0.5), set_member(BVectorClass(1, "odd"), [0.2, 0.5, 0.9]), indicator(1.0)],
        [indicator(0.25), set_member(BVectorClass(0, "odd"), [Fraction(1, 3)])],
        HolderClass(1.0, 1.0, 1.0).build_net(0.8)[:3]
        + [PiecewiseLinear((0.0, 0.3, 1.0), (0.1, -0.2, 0.4))],
        [indicator(0.5), PiecewiseLinear((0.0, 1.0), (0.0, 1.0))],
    ], ids=["unanchored", "two-intervals", "non-float-end", "mixed-knots", "set-and-pl"])
    def test_other_families_raise_type_error(self, family):
        # no member pool holds such a family; the pair forms stay per pair
        with pytest.raises(TypeError, match="lambda_sq_matrix takes"):
            lambda_sq_matrix(family)
