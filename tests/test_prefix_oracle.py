"""The exact j = 0 statistic against the insertion pass it replaced.

insertion_prefix_stat is the sorted-prefix insertion loop that computed the
j = 0 statistic before the branch-and-bound column sweep: one O(p) pass per
step, O(n^2) in all.  It is kept here as the oracle.  The sweep evaluates the
same float expressions at the same (column, step) cells, so it must return
the same bits, on ties and on samples whose F saturates at 0 or 1 too.
"""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproc.measures import Sample, draw_sample, parse_model
from semproc.seeds import derive_seed
from semproc.ulln import (
    _prefix_branch_and_bound,
    _prefix_may_beat,
    sup_deviation_bruteforce,
    sup_deviation_exact_BW,
)

MODELS = ("uniform01", "standard-normal", "exponential(1)")
SIZES = (1, 2, 17, 100, 1000, 3000, 10000)


def insertion_prefix_stat(sample: Sample, model) -> float:
    """(1/n) max_p p max(KS+_p, KS-_p) by keeping the first p values of F
    sorted, one insertion per step."""
    n = sample.n
    f_arrival = np.asarray(model.cdf(sample.xs()), dtype=float)
    if f_arrival.ndim == 0:
        f_arrival = f_arrival[None]
    fs = np.empty(n)
    ranks1 = np.arange(1.0, n + 1.0)
    best = 0.0
    for p in range(1, n + 1):
        f = f_arrival[p - 1]
        t = int(np.searchsorted(fs[:p - 1], f))
        fs[t + 1:p] = fs[t:p - 1]
        fs[t] = f
        d = p * fs[:p] - ranks1[:p]        # p F(Y_j) - j
        best = max(best, float(d.max()) + 1.0, -float(d.min()))
    return max(best, 0.0) / n


def _draw(name: str, n: int, label: str, r: int) -> Sample:
    return draw_sample(name, n, derive_seed(8, ["prefix-oracle", label, name, n, r]))


def _tied(name: str, n: int, r: int) -> Sample:
    """A draw rounded to a coarse grid, so most values repeat."""
    xs = np.round(_draw(name, n, "tied", r).xs(), 1 if name != "uniform01" else 2)
    return Sample(n=n, values=xs, model=name)


def _saturated(name: str, n: int, r: int) -> Sample:
    """A draw with every third value moved to where F is exactly 1.0 (x > 37
    for exponential(1), x > 38 for the normal, x > 1 for the uniform), four
    distinct such values in turn, and every seventh to where F is 0.0."""
    xs = np.array(_draw(name, n, "saturated", r).xs())
    far = {"uniform01": (-0.5, 1.5), "standard-normal": (-40.0, 40.0),
           "exponential(1)": (-1.0, 40.0)}[name]
    xs[::3] = far[1] + np.arange(len(xs[::3])) % 4
    xs[1::7] = far[0]
    return Sample(n=n, values=xs, model=name)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("n", SIZES)
def test_bit_equal_to_insertion_pass(name, n):
    model = parse_model(name)
    for r in range(2):
        sample = _draw(name, n, "plain", r)
        assert sup_deviation_exact_BW(0, "odd", sample) == insertion_prefix_stat(sample, model)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("n", SIZES[:-1])
def test_bit_equal_on_ties_and_saturated_tails(name, n):
    model = parse_model(name)
    for r in range(2):
        for sample in (_tied(name, n, r), _saturated(name, n, r)):
            assert (sup_deviation_exact_BW(0, "odd", sample, model)
                    == insertion_prefix_stat(sample, model))


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_bit_equal_at_other_block_widths(block):
    # narrow blocks give many blocks at small n, so pruning and the per-step
    # candidates run on every kind of sample; at width 1 a block's bound is
    # its column's largest candidate up to rounding, the tightest case
    for name in MODELS:
        model = parse_model(name)
        for n in (5, 40, 300):
            for sample in (_draw(name, n, "plain", 0), _tied(name, n, 0), _saturated(name, n, 0)):
                f = np.asarray(model.cdf(sample.xs()), dtype=float)
                best, visited, blocks = _prefix_branch_and_bound(f, block)
                assert blocks == -(-n // block) and 0 <= visited <= blocks
                assert max(best, 0.0) / n == insertion_prefix_stat(sample, model)


_KINDS = {"plain": lambda name, n: _draw(name, n, "plain", 0),
          "tied": lambda name, n: _tied(name, n, 0),
          "saturated": lambda name, n: _saturated(name, n, 0)}


@lru_cache(maxsize=None)
def _case(kind: str, name: str, n: int) -> tuple:
    """F at the arrivals of one sample and its insertion-pass statistic."""
    model = parse_model(name)
    sample = _KINDS[kind](name, n)
    f = np.asarray(model.cdf(sample.xs()), dtype=float)
    return f, insertion_prefix_stat(sample, model)


@pytest.mark.parametrize("step_block", [1, 2, 5, 16, 33, 1001])
def test_bit_equal_over_a_grid_of_cell_widths(step_block):
    # step widths from one step per cell to one cell for every step (1001 > n),
    # each against column widths from 1 to past n: every kind of cell bound,
    # short last blocks on both sides, and batches of visited blocks
    for block in (1, 2, 3, 7, 20, 64):
        for kind in _KINDS:
            for name in MODELS:
                for n in (5, 40, 300, 1000):
                    f, want = _case(kind, name, n)
                    best, visited, blocks = _prefix_branch_and_bound(f, block, step_block)
                    assert blocks == -(-n // block) and 0 <= visited <= blocks
                    assert max(best, 0.0) / n == want, (block, kind, name, n)


@pytest.mark.parametrize("name", MODELS)
def test_bit_equal_at_thirty_thousand(name):
    # the default step width is past its floor here (isqrt(n) // 4 = 43)
    model = parse_model(name)
    sample = _draw(name, 30_000, "plain", 0)
    assert sup_deviation_exact_BW(0, "odd", sample, model) == insertion_prefix_stat(sample, model)


def test_memory_peak_at_ten_thousand():
    # pass 1 and pass 2 arrays stay within the run-DP block rule, so one call
    # peaks at a few O(n) arrays: about 1.3 MB at n = 1e4
    model = parse_model("uniform01")
    f = np.asarray(model.cdf(draw_sample(model, 10_000, 0).xs()), dtype=float)
    tracemalloc.start()
    try:
        _prefix_branch_and_bound(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=12),
    st.integers(1, 4),
)
def test_matches_bruteforce_and_oracle_with_forced_ties(grid, block):
    # values on the grid {-1/4, 0, ..., 5/4}: ties everywhere, and F = 0 or 1
    # at both ends
    n = len(grid)
    sample = Sample(n=n, values=np.asarray(grid) / 4.0 - 0.25, model="uniform01")
    model = parse_model("uniform01")
    got = sup_deviation_exact_BW(0, "odd", sample)
    assert got == insertion_prefix_stat(sample, model)
    assert abs(got - sup_deviation_bruteforce(0, "odd", sample)) <= 1e-12
    best, _, _ = _prefix_branch_and_bound(np.asarray(model.cdf(sample.xs()), dtype=float), block)
    assert max(best, 0.0) / n == got


def test_pruning_skips_most_blocks():
    # a silent fall back to evaluating every block would still be exact;
    # this is what catches it
    model = parse_model("uniform01")
    sample = draw_sample(model, 10_000, 0)
    f = np.asarray(model.cdf(sample.xs()), dtype=float)
    _, visited, blocks = _prefix_branch_and_bound(f)
    assert blocks == 500
    assert visited < blocks / 2


def test_bound_equal_to_best_is_not_pruned():
    # One column with F = 0.005 at step 1 and no earlier arrivals: its bound
    # p F - C_base rounds to 0.005, while its candidate (p F - C) + 1.0
    # rounds above that.  Were best equal to the bound, a comparison without
    # slack would prune the block that holds the larger value.
    bound = 1 * 0.005 - 0.0
    candidate = (1 * 0.005 - 1.0) + 1.0
    assert candidate > bound
    assert _prefix_may_beat(bound, bound, 1)
    # whenever best is below the candidate, the block is visited
    assert _prefix_may_beat(bound, np.nextafter(candidate, 0.0), 1)
    # the slack stays a few ulps of n: a bound clearly below best is pruned
    assert not _prefix_may_beat(bound - 1e-12, bound, 1)
    assert not _prefix_may_beat(10_000.0 - 1e-9, 10_000.0, 10_000)
