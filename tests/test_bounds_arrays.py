"""The bounds experiment's array path against member objects, bit for bit.

set_riemann_gap_rows reads a set member's Riemann gap from its breakpoints in
uint64 residues; IntervalUnion.riemann_gap, the exact integer form over the
member's own denominator, is its oracle at every n, past 2**64 included.
HolderClass.random_cusps must give the members, and leave the generator in
the state, of the one-member draw it replaced (scalar_random_member below),
and cusp_riemann_gap_rows the one-member float gap of those members as
CuspMembers.  A bounds run builds no member object but the counterexample
witnesses, so its object count does not grow with the number of members.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from semproc import intervals, piecewise
from semproc.cli import run_experiment
from semproc.function_classes import (
    _MAX_CUSPS,
    INDICATORS,
    BVectorClass,
    HolderClass,
    cusp_riemann_gap_rows,
    set_riemann_gap_rows,
)

from member_oracles import CuspMember, cusp_members, scalar_riemann_gap, set_member

SET_CLASSES = {
    "B1": INDICATORS, "B2": BVectorClass(1, "even"), "B3": BVectorClass(1, "odd"),
    "B4": BVectorClass(2, "even"), "B5": BVectorClass(2, "odd"),
    "B10": BVectorClass(5, "even"),
}
# small n, n past 2**31, 2**53 and 2**64, and n with few or many low zero bits
GAP_NS = (1, 2, 3, 7, 1000, 2**31 - 1, 10**10, 2**36 - 1, 2**40 + 7, 2**53 - 1,
          2**53 + 1, 2**60 + 3, 2**64 - 1, 2**64 + 5)
BETAS = (0.3, 0.5, 0.7, 1.0)


def assert_set_gaps(t: np.ndarray, cls: BVectorClass, n_list):
    members = [set_member(cls, row) for row in t.tolist()]
    for n, got in zip(n_list, set_riemann_gap_rows(t, n_list)):
        assert [g.hex() for g in got] == [m.riemann_gap(n).hex() for m in members]


@pytest.mark.parametrize("name", sorted(SET_CLASSES))
def test_set_gaps_equal_interval_union_gaps(name):
    cls = SET_CLASSES[name]
    for seed in range(5):
        t = cls.random_breakpoints(np.random.default_rng(seed), 40)
        assert_set_gaps(t, cls, GAP_NS)


def test_set_gaps_at_the_ends_and_at_equal_breakpoints():
    top = 1.0 - 2.0**-53  # the largest Generator.random draw
    rows = {
        BVectorClass(2, "even"): [[0.0, 0.0, 0.5, 0.5], [0.0, top, top, top],
                                  [0.25, 0.25, 0.25, 1.0], [2.0**-53, 0.5, 0.5, top]],
        BVectorClass(1, "odd"): [[0.0, 0.0, 0.0], [top, top, top], [0.0, 0.5, 1.0]],
    }
    for cls, t in rows.items():
        assert_set_gaps(np.array(t), cls, GAP_NS)


def test_set_gaps_of_no_member():
    assert set_riemann_gap_rows(np.empty((0, 3)), [10, 20]) == [[], []]


@pytest.mark.parametrize("bad", [0.1, 2.0**-60, 1.0 / 3.0, -2.0**-53, 1.0 + 2.0**-52,
                                 np.nan, np.inf])
def test_breakpoints_off_the_random_grid_are_rejected(bad):
    with pytest.raises(ValueError, match="multiples of 2"):
        set_riemann_gap_rows(np.array([[0.25, bad]]), [10])


def scalar_random_member(cls: HolderClass, rng) -> CuspMember:
    """The one-member draw that HolderClass.random_cusps replaced."""
    k = int(rng.integers(1, _MAX_CUSPS + 1))
    centers = rng.random(k)
    raw = rng.standard_normal(k)
    denom = np.sum(np.abs(raw))
    if denom == 0.0:
        raw = np.ones(k)
        denom = float(k)
    coeffs = raw / denom * cls.C * rng.random()
    t0 = (2.0 * rng.random() - 1.0) * cls.T
    a = t0 - float(np.sum(coeffs * centers**cls.beta))
    return CuspMember(cls.T, cls.C, cls.beta, a=a, coeffs=tuple(coeffs),
                      centers=tuple(centers))


def assert_cusps_equal(arrays, members):
    a, coeffs, centers, cusps = arrays
    assert cusps.tolist() == [len(m.coeffs) for m in members]
    for i, m in enumerate(members):
        k = cusps[i]
        assert float(a[i]).hex() == float(m.a).hex()
        assert [float(x).hex() for x in coeffs[i, :k]] == [float(x).hex() for x in m.coeffs]
        assert [float(x).hex() for x in centers[i, :k]] == [float(x).hex() for x in m.centers]
        assert not coeffs[i, k:].any() and not centers[i, k:].any()


@pytest.mark.parametrize("beta", BETAS)
def test_cusp_arrays_equal_one_member_draws(beta):
    cls = HolderClass(1.0, 1.0, beta)
    for seed in range(20):
        bulk_rng, one_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        arrays = cls.random_cusps(bulk_rng, 500)
        members = [scalar_random_member(cls, one_rng) for _ in range(500)]
        assert_cusps_equal(arrays, members)
        assert bulk_rng.bit_generator.state == one_rng.bit_generator.state
        assert cusp_members(cls, arrays) == members


def test_cusp_arrays_take_the_zero_normals_branch():
    """A member whose normals are all zero gets k equal coefficients."""
    def zero_normals(seed):
        rng = np.random.default_rng(seed)
        calls = iter(range(10**6))
        return SimpleNamespace(
            integers=rng.integers, random=rng.random,
            standard_normal=lambda k: np.zeros(k) if next(calls) % 3 == 0
            else rng.standard_normal(k))

    cls = HolderClass(2.0, 0.5, 0.7)
    arrays = cls.random_cusps(zero_normals(4), 60)
    one_rng = zero_normals(4)
    members = [scalar_random_member(cls, one_rng) for _ in range(60)]
    assert_cusps_equal(arrays, members)
    assert len(set(members[0].coeffs)) == 1


@pytest.mark.parametrize("beta", BETAS)
def test_cusp_gaps_equal_one_member_gaps(beta):
    cls = HolderClass(1.0, 1.0, beta)
    arrays = cls.random_cusps(np.random.default_rng(3), 40)
    members = cusp_members(cls, arrays)
    n_list = [1, 10, 999, 1000, 1001]
    for n, got in zip(n_list, cusp_riemann_gap_rows(beta, arrays, n_list)):
        assert [g.hex() for g in got] == [scalar_riemann_gap(m, n).hex() for m in members]


def construction_counts(monkeypatch, members: int) -> dict:
    counts = {"IntervalUnion": 0, "PiecewiseLinear": 0}
    for name, owner in (("IntervalUnion", intervals.IntervalUnion),
                        ("PiecewiseLinear", piecewise.PiecewiseLinear)):
        init = owner.__init__

        def counting(self, *args, _init=init, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(owner, "__init__", counting)
    run_experiment("bounds", {"members": members, "seed": 3, "n_list": [10, 100],
                              "witness_max_n": 6})
    monkeypatch.undo()
    return counts


def test_bounds_builds_member_objects_only_for_the_witnesses(monkeypatch):
    few = construction_counts(monkeypatch, 10)
    many = construction_counts(monkeypatch, 1000)
    assert few == many
    assert few["PiecewiseLinear"] == 0


def test_lambda_gaps_are_clamped_at_one():
    cls = BVectorClass(9, "even")
    assert cls.sup_lambda_gap(5) == 1.0
    assert cls.riemann_gap_bound(5) == 1.0
    assert BVectorClass(10**12, "odd").sup_lambda_gap(5) == 1.0
    # up to the clamp every value is the unclamped count over n
    for cls in SET_CLASSES.values():
        for n in (20, 40, 100, 1000):
            assert cls.sup_lambda_gap(n) == cls.n_intervals / n
            assert cls.riemann_gap_bound(n) == 2.0 * cls.n_breakpoints / n


def test_lambda_centering_adds_at_most_one():
    cfg = {"j": 9, "parity": "even", "n_schedule": [5], "centering": "lambda",
           "replicates": 20}
    exact, = run_experiment("ulln", dict(cfg, centering="lambda_n"))["results"]
    row, = run_experiment("ulln", cfg)["results"]
    assert row["sup_lambda_gap"] == 1.0
    for key in ("mean", "median", "q95", "max"):
        assert row[key] <= exact[key] + 1.0
