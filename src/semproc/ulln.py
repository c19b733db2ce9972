"""Uniform-law-of-large-numbers statistics and bounds.

The exact supremum statistic over B(2j+1) x half-lines works in two layers:

  * Half-line reduction.  For a fixed index set S of grid points, the
    deviation sum is affine in nu(W) and piecewise constant in w between
    order statistics, and the max over the index-set family of an affine
    family is convex in nu(W).  The supremum over all half-lines is therefore
    attained among the n+1 canonical cut positions evaluated at both
    one-sided limits (inclusive constant F(X_(k)) and right limit
    F(X_(k+1)), with 1 at the top end).  A sum over S falls as nu(W)
    grows, so the positive deviation peaks at the inclusive column and the
    negative one at the right limit: one sign per column, 2n+1 signed
    columns.

  * Interval reduction.  For a fixed signed column with per-atom terms
    a_i, the supremum over B(2j+1) of sum_{i/n in B} a_i is a best-choice
    problem over unions of at most j grid runs plus an optional anchored
    prefix (the initial interval <0, t_0]), solved by a dynamic program
    that sweeps the n rows once and updates a list of columns of a block
    of replicates of one n at each row, O(n j) per column; each column
    carries its own sign.  n rows hold at most ceil(n / 2) runs, so j is
    clamped to floor(n / 2) beside the prefix (odd parity) or ceil(n / 2)
    (even parity) first, with the same bits (_runs_class).  At every n a
    branch and bound picks which columns to sweep.  The plus and the minus
    columns go in blocks of 8.  Each block is bounded by one column: a plus
    block's last cut at its least nu, a minus block's first cut at its
    greatest nu.  Its a_i are at least those of every column of the block,
    and every DP step (-, + and max) rounds monotonically, so its float
    value is at least theirs.  A first sweep runs the bound columns and up
    to 4 exact pilot columns per sign, those of largest one-sided
    |k - n nu|; the best pilot is a real column's value.  A second sweep
    runs exactly the columns of the blocks whose bound is strictly above
    that best: every other column is at most the best, so the max is the
    full sweep's bit for bit.  Bounds, pilots and columns are values of one
    float sweep, so a bound equal to the best hides nothing above it and
    the strict test needs no slack (the j = 0 bounds below do: they bound
    exact quantities).  At n = 1000 the second sweep takes 3-14% of the
    blocks (about 7% on average, 3% at n = 3000), so the two sweeps update
    about a fifth of the 2n + 1 columns.  The replicate block keeps the
    first sweep's state arrays and the block's (replicates, 2n + 1) column
    arrays below 128 KiB, and a longer second sweep goes in chunks within
    that.

For j = 0 (the anchored-prefix-only family B(1)) a two-level branch and bound
over (block of sorted columns x block of steps) cells bounds every cell from
arrival counts at the ends of the step blocks, O(n^2 / (20 step_block)) in
all, then evaluates exactly only the (column, step) cells of the cells whose
bound and whose per-step bound can beat the best value found, with the same
float expressions as a full O(n^2) pass and so the same bits, in
O(n + 16,000) memory; this is what the desk-scale convergence experiments
run on.

The class is a BVectorClass throughout: the run DP takes its number of
intervals and whether it is anchored, the brute-force oracle enumerates its
cut_masks, and gc_experiment runs the replicated statistic for any class.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .fclt import process_deviations
from .function_classes import (_BLOCK_CELLS, INDICATORS, BVectorClass, grid_values, half_line,
                               half_line_net, indicator_net)
from .measures import NuModel, Sample, draw_sample
from .quadrature import integrate
from .seeds import derive_seed
from .special import check_order, log_factorials, poisson_tail

__all__ = [
    "sup_deviation_net",
    "sup_deviation_exact_BW",
    "sup_deviation_bruteforce",
    "gc_tail_bound",
    "series_I_closed_form",
    "series_I_quadrature",
    "series_S_diagnostic",
    "gc_sample",
    "gc_experiment",
]


# ---------------------------------------------------------------------------
# Exact supremum over B x W
# ---------------------------------------------------------------------------

def _canonical_columns(sample: Sample):
    """Ranks plus the nu values of the signed canonical columns.

    ranks[i] is the rank of the i-th point among the sorted values.  Cut k
    (the k smallest points) has the inclusive column (k, F(X_(k))) for
    k >= 1 and the right-limit column (k, F(X_(k+1))), with 1 at k = n, F
    the sample's model.  A selected sum of [rank <= k] - nu only falls as nu
    grows, so the plus sign peaks at a cut's inclusive column and the minus
    sign at its right limit: nus holds F(X_(1)), ..., F(X_(n)) for the plus
    columns k = 1..n, then F(X_(1)), ..., F(X_(n)), 1 for the minus columns
    k = 0..n (_signed_cuts)."""
    n = sample.n
    xs = sample.xs()
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    f_sorted = np.asarray(sample.model.cdf(xs[order]), dtype=float)  # F(X_(k)), k=1..n
    return ranks, np.concatenate([f_sorted, f_sorted, [1.0]])


def _signed_cuts(n: int) -> np.ndarray:
    """The cut index of each signed column: 1..n (plus), then 0..n (minus);
    column c takes the minus sign iff c >= n."""
    return np.concatenate([np.arange(1, n + 1), np.arange(n + 1)])


def _runs_class(cls: BVectorClass, n: int) -> BVectorClass:
    """cls with j at most what n grid points can use.  They hold at most
    ceil(n / 2) runs, so past floor(n / 2) free runs beside the anchored
    prefix (odd parity) or ceil(n / 2) (even parity) a run more adds no index
    set, and the run DP's value, a max over the same float sums, keeps its
    bits."""
    return BVectorClass(min(cls.j, (n + (not cls.anchored)) // 2), cls.parity)


# Signed columns per block in the j >= 1 branch and bound (6-8 measured
# alike at n = 1000; at 12 and 16 the second sweep takes 2-3 times the
# blocks).
_RUNS_WIDTH = 8
# Exact pilot columns per sign and sample in the first sweep (1-16 measured
# within 10% of each other at n = 1000).
_RUNS_PILOTS = 4


def _runs_sweep(ranks: np.ndarray, reps: np.ndarray, cuts: np.ndarray, nus: np.ndarray,
                minus: np.ndarray, cls: BVectorClass) -> np.ndarray:
    """n times the statistic at each of some signed columns of R samples of
    one size n.  ranks is (R, n), from _canonical_columns; cuts and nus are
    (G, C), and reps, the sample of each column, and minus, whether it takes
    the minus sign, broadcast against them: reps is (G, 1) when each row of
    columns is one sample's, (1, C) when the columns are one list, and minus
    has C columns.  Column [g, c] has the value max over the index sets cls
    cuts out of the grid of the selected-entry sum of
    a_i = +-([rank of point i in sample reps <= cut] - nu).

    The family is <= j free runs, plus, when cls is anchored, an optional
    prefix {1..p} alongside the j runs.  Empty selection (value 0) is always
    allowed, so every value is >= 0.  One sweep over the rows updates a
    chunk of columns at once, so that closed, of (n_intervals + 1, G, chunk)
    cells, stays within _BLOCK_CELLS.  The prefix is a run that may only
    start at the first row, so one set of run states holds the sets with and
    without it: float + is monotone, so the max of two states plus a_i
    rounds to the max of the two sums.  The time is O(n G C j).  Every step
    is a float -, + or max, each rounding monotonically, so a column whose
    a_i are all at least another's has a value at least the other's:
    _max_runs bounds blocks of columns by that.
    """
    n = ranks.shape[1]
    levels = cls.n_intervals
    values = []
    width = max(1, _BLOCK_CELLS // ((levels + 1) * len(cuts)))
    for lo in range(0, cuts.shape[1], width):
        chunk = np.s_[:, lo:lo + width]
        at = reps if reps.shape[1] == 1 else reps[chunk]    # samples by row or by column
        ks, vs, signs = cuts[chunk], nus[chunk], minus[chunk]
        # closed[r + 1]: best so far with at most r + 1 runs, closed[0] the
        # empty set's 0; opened[r]: best with the (r + 1)-th run ending at
        # the current row.  When anchored, the prefix is the first run:
        # opened[0] starts from 0.0 and, with closed[0] = -inf, can never
        # start later.
        closed = np.zeros((levels + 1,) + ks.shape)
        opened = np.full((levels,) + ks.shape, -np.inf)
        if cls.anchored:
            closed[0] = -np.inf
            opened[0] = 0.0
        before, after = closed[:-1], closed[1:]
        # a_i of a block of rows at once, in half of _BLOCK_CELLS (a quarter
        # ran slower at n = 1000, all of it no faster)
        rows = max(1, _BLOCK_CELLS // (2 * ks.size))
        inside = np.empty((rows,) + ks.shape, dtype=bool)
        a = np.empty((rows,) + ks.shape)
        for i in range(0, n, rows):
            m = min(rows, n - i)
            np.less_equal(ranks.T[i:i + m][:, at], ks, out=inside[:m])
            np.subtract(inside[:m], vs, out=a[:m])
            np.negative(a[:m], out=a[:m], where=signs)
            for a_i in a[:m]:
                # a run opened at this row follows what closed held one row
                # earlier
                np.maximum(opened, before, out=opened)
                np.add(a_i, opened, out=opened)
                np.maximum(after, opened, out=after)
        values.append(closed[-1])
    return np.concatenate(values, axis=1)


def _runs_block(n: int, cls: BVectorClass) -> int:
    """Replicates of size n swept at once: as many as keep both the first
    sweep's closed, of (n_intervals + 1, block, columns) cells with one
    bound column per block of _RUNS_WIDTH plus or minus columns and
    _RUNS_PILOTS pilots per sign, and a (block, 2n + 1) array of the signed
    columns' nu values within _BLOCK_CELLS, and at least 1."""
    columns = -(-n // _RUNS_WIDTH) + -(-(n + 1) // _RUNS_WIDTH) + 2 * _RUNS_PILOTS
    return max(1, min(_BLOCK_CELLS // ((cls.n_intervals + 1) * columns),
                      _BLOCK_CELLS // (2 * n + 1)))


def _block_starts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first signed column (_signed_cuts) of each block of _RUNS_WIDTH
    plus columns, then of each block of minus columns."""
    return np.arange(0, n, _RUNS_WIDTH), np.arange(n, 2 * n + 1, _RUNS_WIDTH)


def _bound_columns(nus: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cut, (blocks,), and the nu values, (R, blocks), of each block's
    bound column, plus blocks first: a plus block's last cut at its least
    nu, a minus block's first cut at its greatest nu."""
    ks = _signed_cuts(n)
    plus, minus = _block_starts(n)
    return (np.concatenate([ks[np.append(plus[1:], n) - 1], ks[minus]]),
            np.concatenate([np.minimum.reduceat(nus[:, :n], plus, axis=1),
                            np.maximum.reduceat(nus, minus, axis=1)], axis=1))


def _pilot_columns(nus: np.ndarray, n: int) -> np.ndarray:
    """The signed columns (_signed_cuts) of each sample: the
    min(_RUNS_PILOTS, n) plus columns of largest k - n nu, then the
    min(_RUNS_PILOTS, n + 1) minus ones of largest n nu - k."""
    score, p = n * nus - _signed_cuts(n), _RUNS_PILOTS
    return np.concatenate([np.argsort(score[:, :n], axis=1, kind="stable")[:, :p],
                           n + np.argsort(-score[:, n:], axis=1, kind="stable")[:, :p]], axis=1)


def _first_sweep(ranks: np.ndarray, nus: np.ndarray, cls: BVectorClass) -> tuple:
    """The bound of each (sample, block) cell, (R, blocks), and each
    sample's best pilot, (R,), from one _runs_sweep over, per sample, the
    bound columns (_bound_columns), then the pilots (_pilot_columns)."""
    R, n = ranks.shape
    pilots = _pilot_columns(nus, n)
    block_cuts, block_nus = _bound_columns(nus, n)
    blocks = len(block_cuts)
    starts = np.concatenate(_block_starts(n))
    first = _runs_sweep(
        ranks, np.arange(R)[:, None],
        np.concatenate([np.broadcast_to(block_cuts, (R, blocks)), _signed_cuts(n)[pilots]], axis=1),
        np.concatenate([block_nus, np.take_along_axis(nus, pilots, axis=1)], axis=1),
        np.concatenate([np.broadcast_to(starts >= n, (R, blocks)), pilots >= n], axis=1), cls)
    return first[:, :blocks], first[:, blocks:].max(axis=1)


def _max_runs(ranks: np.ndarray, nus: np.ndarray, cls: BVectorClass) -> tuple:
    """n times the statistic of each of R samples of one size n, with the
    number of (sample, block) cells swept exactly and the number of cells.
    ranks is (R, n) and nus (R, 2n + 1), from _canonical_columns; the
    statistic is the max of _runs_sweep over the 2n + 1 signed columns
    (_signed_cuts).

    The plus columns k = 1..n and the minus columns k = 0..n go in blocks of
    _RUNS_WIDTH (_block_starts).  Along a block nu rises with k, and
    a_i = [rank <= k] - nu of a plus column is at most that of the column at
    the block's last cut and its least nu: float - is monotone in both
    operands.  For the minus sign a_i = nu - [rank <= k] is at most that at
    the block's first cut and its greatest nu (_bound_columns).  _runs_sweep
    rounds monotonically, so the value of such a bound column is at least
    the computed value of every column of its block.  The first sweep runs
    the bound columns and a few exact pilot columns, whose max is best
    (_first_sweep).  The second sweep runs, as one list, the columns of the
    blocks whose bound is strictly above best.  Every other column's value
    is at most best, a real column's, so the max is the full sweep's bit for
    bit.  Bounds, pilots and columns are values of the same float sweep, not
    an exact quantity and its rounding, so a bound equal to best hides
    nothing above it and the test needs no slack."""
    n = ranks.shape[1]
    starts = np.concatenate(_block_starts(n))
    bound, best = _first_sweep(ranks, nus, cls)
    keep = bound > best[:, None]
    kept = keep[:, np.repeat(np.arange(len(starts)), np.diff(np.append(starts, 2 * n + 1)))]
    rep, col = np.nonzero(kept)                     # the kept columns as one list
    if len(col):
        second = _runs_sweep(ranks, rep[None, :], _signed_cuts(n)[col][None, :],
                             nus[rep, col][None, :], (col >= n)[None, :], cls)
        np.maximum.at(best, rep, second[0])
    return best, int(keep.sum()), keep.size


def _exact_stats_runs(samples: list, cls: BVectorClass) -> np.ndarray:
    """The exact statistic of each of some samples of one size n, by the
    run-DP branch and bound over cls (clamped by _runs_class)."""
    n = samples[0].n
    ranks = np.empty((len(samples), n), dtype=np.int64)
    nus = np.empty((len(samples), 2 * n + 1))
    for r, sample in enumerate(samples):
        ranks[r], nus[r] = _canonical_columns(sample)
    return _max_runs(ranks, nus, cls)[0] / n


# Sorted columns per block in the j = 0 branch and bound (16-28 measured
# alike at n = 1e3 and 1e4; wider blocks loosen the bounds, narrower ones
# lengthen pass 1).
_PREFIX_BLOCK = 20
# Steps per step block: this, or isqrt(n) / 4 where that is more (n >= 17,424)
# (measured: 16-48 alike at n = 1e4, 43-96 at 3e4, 64-128 at 1e5, the
# other side of each range from halving the pass-1 cells to twice the
# blocks visited).
_PREFIX_STEPS = 32
# Pruning slack, in units of (n + 1) eps.  A bound takes two float64 roundings
# (p * F, an integer subtraction) and a candidate three (one more for + 1.0),
# each of a value of magnitude <= n + 1, so together they stray at most
# 5 (n + 1) 2^-53 from the exact candidate <= bound; 4 (n + 1) eps =
# 8 (n + 1) 2^-53 covers that and the rounding of bound + slack itself.
_PREFIX_SLACK_ULPS = 4.0


def _prefix_may_beat(bound, best: float, n: int):
    """Whether a j = 0 bound, computed in float64, may hide a candidate above
    best: a bound equal to best may, by rounding, so it is not pruned."""
    return bound + _PREFIX_SLACK_ULPS * (n + 1) * np.finfo(float).eps > best


def _prefix_counts(step_block_of: np.ndarray, n_step_blocks: int, stops: np.ndarray,
                   start: int = 0, base=0.0) -> np.ndarray:
    """C at the ends of step blocks, one row per column stop.

    Row i of the (len(stops) + 1, n_step_blocks + 1) result counts the
    sorted columns below stops[i - 1] (row 0: below start, which base holds)
    whose point arrives by the last step of step block P - 1, in column P
    (column 0: before step 1).  stops is nondecreasing; the columns
    start..stops[-1] take one bincount and two cumsums."""
    cols = np.arange(start, stops[-1])
    counts = np.zeros((len(stops) + 1, n_step_blocks + 1))
    counts[0] = base
    counts[1:, 1:] = np.bincount(
        np.searchsorted(stops, cols, side="right") * n_step_blocks + step_block_of[cols],
        minlength=len(stops) * n_step_blocks).reshape(len(stops), n_step_blocks)
    np.cumsum(counts[1:, 1:], axis=1, out=counts[1:, 1:])
    return np.cumsum(counts, axis=0, out=counts)


def _prefix_cell_bounds(base: np.ndarray, end: np.ndarray, p_first: np.ndarray,
                        p_last: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """The bound of each (column block, step block) cell, (blocks, step
    blocks), from the _prefix_counts rows of each block's start (C_base) and
    end (C_end).  For steps P0..P1, with a = C_base(P1) - C_base(P0 - 1)
    and e = C_end(P1) - C_end(P0 - 1), every candidate of the cell is at most

        max((P1 - a) F_hi - C_base(P0 - 1), C_end(P1) - max(P0, P0 - 1 + e) F_lo).

    Both counts rise with p, by at most one a step (one point arrives per
    step), so C_base(p) >= max(C_base(P0 - 1), C_base(P1) - (P1 - p)) and
    C_end(p) <= min(C_end(P1), C_end(P0 - 1) + p - P0 + 1); each per-step
    bound's max over p then sits where its two caps cross.  Lowering P1 by
    a and raising P0 to P0 - 1 + e is what makes this tighter than
    max(P1 F_hi - C_base(P0 - 1), C_end(P1) - P0 F_lo)."""
    base_first, base_last = base[:, :-1], base[:, 1:]
    end_first, end_last = end[:, :-1], end[:, 1:]
    up = (p_last - (base_last - base_first)) * f_hi[:, None] - base_first
    p_down = np.maximum(p_first, end_last - end_first + (p_first - 1.0))
    return np.maximum(up, end_last - p_down * f_lo[:, None], out=up)


def _prefix_branch_and_bound(f_arrival: np.ndarray, block: int = _PREFIX_BLOCK,
                             step_block: Optional[int] = None) -> tuple[float, int, int]:
    """n times the j = 0 statistic before the floor at 0, with the number of
    column blocks visited and the number of blocks.

    Columns k are the values sorted by F; a_k is the arrival step of column k
    and C_k(p) counts the points arrived by step p at sorted positions <= k.
    The value is the max over arrived (k, p) of d + 1.0 and -d with
    d = p F_k - C_k(p), the float expressions of a sorted-prefix insertion
    pass (the j-th smallest of the first p values sits at C_k(p) = j), so the
    result is that pass's bit for bit.  For a block of sorted columns, with
    C_base(p) the arrivals in earlier blocks and C_end(p) those through the
    block's end, every candidate at step p is at most

        max(p F_hi - C_base(p), C_end(p) - p F_lo).

    Pass 1 bounds every (column block, step block) cell from C_base and
    C_end at the ends of the step blocks alone (_prefix_cell_bounds), a
    group of column blocks at a time so that each array stays within
    _BLOCK_CELLS.  The plain cell bound
    max(P1 F_hi - C_base(P0 - 1), C_end(P1) - P0 F_lo) is at least every
    float per-step bound of its cell, float rounding being monotone in p F
    and in the counts; the tighter one is, like the per-step bound, at least
    the exact candidates it covers and rounded twice, which is what
    _prefix_may_beat's slack is for.  Pass 2 starts from the exact p = n
    row and visits the column blocks by decreasing cell maximum, in batches
    of 1, 2, 4, ..., until none can beat the best value: it rebuilds a
    batch's counts in O(n), keeps the cells that may beat the best value,
    and evaluates exactly the steps of those cells whose per-step bound may
    too.  The work is O(n log n + n^2 / (block step_block)) for pass 1 and
    O(n) per batch besides the steps evaluated; the memory is
    O(n + _BLOCK_CELLS)."""
    n = len(f_arrival)
    if step_block is None:
        step_block = max(_PREFIX_STEPS, math.isqrt(n) // 4)
    order = np.argsort(f_arrival, kind="stable")   # arrival index of sorted column k
    f_sorted = f_arrival[order]
    n_blocks = -(-n // block)
    n_step_blocks = -(-n // step_block)
    block_of = np.empty(n, dtype=np.int64)          # block of the point arriving at step p
    block_of[order] = np.arange(n) // block
    step_block_of = order // step_block             # step block of column k's arrival
    col_stop = np.minimum(np.arange(n_blocks + 1) * block, n)
    f_lo, f_hi = f_sorted[col_stop[:-1]], f_sorted[col_stop[1:] - 1]
    steps = np.arange(1.0, n + 1.0)
    p_first = steps[::step_block]
    p_last = steps[np.minimum(np.arange(1, n_step_blocks + 1) * step_block, n) - 1]
    # rows of _prefix_counts that fit in _BLOCK_CELLS
    rows = max(2, _BLOCK_CELLS // (n_step_blocks + 1))

    bounds = np.empty(n_blocks)
    counts = np.zeros((1, n_step_blocks + 1))
    for b0 in range(0, n_blocks, rows - 1):
        blocks = slice(b0, min(b0 + rows - 1, n_blocks))
        counts = _prefix_counts(step_block_of, n_step_blocks, col_stop[b0 + 1:blocks.stop + 1],
                                col_stop[b0], counts[-1])
        bounds[blocks] = _prefix_cell_bounds(counts[:-1], counts[1:], p_first, p_last,
                                             f_lo[blocks], f_hi[blocks]).max(axis=1)

    d = n * f_sorted - steps                        # the p = n row: C_k(n) = k
    best = max(float(d.max()) + 1.0, -float(d.min()))
    # arrival index and F of each block's sorted columns, (block, blocks);
    # the last block is padded with columns that never arrive, at F = 1
    arrival_cols = np.full(n_blocks * block, n)
    arrival_cols[:n] = order
    arrival_cols = arrival_cols.reshape(n_blocks, block).T.copy()
    f_cols = np.ones(n_blocks * block)
    f_cols[:n] = f_sorted
    f_cols = f_cols.reshape(n_blocks, block).T.copy()
    width = min(step_block, n)
    # cells whose steps go at once, so that (block, steps) stays within
    # _BLOCK_CELLS
    per_chunk = max(1, _BLOCK_CELLS // (block * width))
    visit = np.argsort(-bounds, kind="stable")
    visited, batch = 0, 1
    while visited < n_blocks and _prefix_may_beat(bounds[visit[visited]], best, n):
        ahead = visit[visited:visited + min(batch, max(1, (rows - 1) // 2))]
        bs = np.sort(ahead[_prefix_may_beat(bounds[ahead], best, n)])
        visited += len(bs)
        batch *= 2
        counts = _prefix_counts(step_block_of, n_step_blocks,
                                col_stop[np.stack([bs, bs + 1], axis=1).ravel()])
        base, end = counts[1::2], counts[2::2]
        kept_block, kept_cell = np.nonzero(_prefix_may_beat(_prefix_cell_bounds(
            base, end, p_first, p_last, f_lo[bs], f_hi[bs]), best, n))
        for i in range(0, len(kept_cell), per_chunk):
            kb, kc = kept_block[i:i + per_chunk], kept_cell[i:i + per_chunk]
            b = bs[kb]
            at = kc * step_block + np.arange(width)[:, None]    # (steps, cells)
            inside = at < n                         # the last step block may be short
            at = np.minimum(at, n - 1)
            arriving = block_of[at]
            c_base = base[kb, kc] + np.cumsum(arriving < b, axis=0)
            c_end = end[kb, kc] + np.cumsum(arriving <= b, axis=0)
            up = steps[at] * f_hi[b] - c_base
            down = c_end - steps[at] * f_lo[b]
            may = np.flatnonzero(_prefix_may_beat(np.maximum(up, down), best, n) & inside)
            if not len(may):
                continue
            at, c_base, b = at.take(may), c_base.take(may), b[may % len(b)]  # b by column
            # (block, candidates): C_k(p) at every column, arrived or not.  At
            # a column not yet arrived, -d is at most that of the last arrived
            # column below (same C, smaller F), or <= 0 if there is none; with
            # C + 1, the C of the first arrived column above, d + 1.0 is at
            # most that column's (larger F), or <= 0 if there is none.  The
            # p = n row's best is >= 0, so neither needs a mask.
            arrived = arrival_cols[:, b] <= at
            c = np.cumsum(arrived, axis=0, dtype=float)
            c += c_base
            pf = steps[at] * f_cols[:, b]
            best = max(best, -float((pf - c).min()))
            c += ~arrived
            best = max(best, float(np.subtract(pf, c, out=c).max()) + 1.0)
    return best, visited, n_blocks


def sup_deviation_exact_BW(
    j: int,
    parity: str,
    sample: Sample,
    model: Optional[NuModel] = None,
) -> float:
    """Exact sup over B(2j+1) (parity 'odd') or B(2j) ('even') and all
    half-lines W of |P_n(B x W) - lambda_n(B) nu(W)|, nu the sample's model.
    A model passed as well must be that model (ValueError otherwise)."""
    cls = BVectorClass(j, parity)  # validates (j, parity)
    if model not in (None, sample.model):
        raise ValueError(f"model {model} is not the sample's model {sample.model}")
    if cls == INDICATORS:  # max_p p max(KS+_p, KS-_p) / n over the grid prefixes
        f_arrival = np.atleast_1d(np.asarray(sample.model.cdf(sample.xs()), dtype=float))
        best, _, _ = _prefix_branch_and_bound(f_arrival)
        return max(best, 0.0) / sample.n
    return float(_exact_stats_runs([sample], _runs_class(cls, sample.n))[0])


def sup_deviation_bruteforce(
    j: int,
    parity: str,
    sample: Sample,
) -> float:
    """Independent oracle: exhaustive enumeration over the grid index sets
    the class cuts out (BVectorClass.cut_masks) and the canonical half-line
    columns of the sample's model.  n <= 16."""
    cls = BVectorClass(j, parity)  # validates (j, parity)
    n = sample.n
    if n > 16:
        raise ValueError("brute force limited to n <= 16")
    ranks, nus = _canonical_columns(sample)
    A = (ranks[:, None] <= _signed_cuts(n)[None, :]).astype(float) - nus[None, :]
    bits = (cls.cut_masks(n)[:, None] >> np.arange(n)[None, :]) & 1
    sums = bits.astype(float) @ A
    return float(np.max(np.abs(sums))) / n


# ---------------------------------------------------------------------------
# Net sandwich for product classes
# ---------------------------------------------------------------------------

def sup_deviation_net(sample: Sample, net_u: float) -> tuple[float, float]:
    """Net sandwich (lower, upper) for sup |P_n(hg) - lambda_n(h) nu(g)| over
    the Kiefer class F = indicators x half-lines.

    lower is the max over net pairs (fclt.process_deviations on the sample);
    upper = lower + 2 net_u, valid because the one-sided replacement error
    of (h, g) by its net neighbor is at most G_env * (h gap) + H_env * (g
    gap) <= net_u on the P_n side and again on the centering side.  Both
    envelopes are 1, so each side gets the gap u = net_u / 2: indicators at
    mesh u - 1/n (one grid point more at most in lambda_n L1), and
    half-lines at merged sample and F quantiles, which keeps both the
    empirical and the population L1 gap within u.
    """
    model = sample.model
    u = net_u / 2.0
    if u <= 1.5 / sample.n:  # also every net_u <= 0
        raise ValueError(f"net_u={net_u} is too small for n={sample.n}")
    h_net = indicator_net(u - 1.0 / sample.n)
    xs = sample.xs()
    xs_sorted = np.sort(xs)
    # a stride past n selects only the last point, which the net holds anyway
    stride = max(1, int(math.floor(min(u, 1.0) * sample.n)))
    ws = set(float(x) for x in xs_sorted[stride - 1::stride])
    ws.add(float(xs_sorted[-1]))
    ws.update(g.hi for g in half_line_net(u, model))
    g_net = [half_line(w) for w in sorted(ws)]

    h_vals = grid_values(h_net, sample.n)
    lower = float(np.abs(process_deviations(h_vals, g_net, xs[None, :], model)).max())
    return lower, lower + 2.0 * net_u


# ---------------------------------------------------------------------------
# Tail bound and series
# ---------------------------------------------------------------------------

def gc_tail_bound(epsilon: float, k: int, S: int) -> dict:
    """{"value", "vacuous", "applicable"}: the value 8 (k+1)^S exp(-eps^2 k /
    32), the Hoeffding-union tail bound for the B-empirical deviation, with
    the Sauer bound on the shatter coefficient.  Flagged inapplicable when
    k < 8 eps^-2 (the symmetrization precondition), vacuous when the value
    exceeds 1."""
    if epsilon <= 0 or k < 1 or S < 1:
        raise ValueError("need epsilon > 0, k >= 1, S >= 1")
    log_val = math.log(8.0) + S * math.log(k + 1.0) - epsilon**2 * k / 32.0
    value = math.exp(log_val) if log_val < 700 else math.inf
    return {"value": value, "vacuous": value > 1.0, "applicable": k >= 8.0 / epsilon**2}


def series_I_closed_form(c: float, D1: int, D2: int) -> float:
    """The double integral int_1^inf int_y^inf y^D1 x^D2 e^{-cx} dx dy in
    closed form: e^{-c} sum_{p<=D2} sum_{l<=D1+D2-p} c^{-(p+l+2)}
    D2! (D1+D2-p)! / ((D2-p)! (D1+D2-p-l)!)."""
    if c <= 0:
        raise ValueError("c must be > 0")
    if D1 < 0 or D2 < 0:
        raise ValueError("D1, D2 must be >= 0")
    terms = [
        (math.factorial(D2) * math.factorial(D1 + D2 - p)
         // (math.factorial(D2 - p) * math.factorial(D1 + D2 - p - l)), p + l + 2)
        for p in range(D2 + 1) for l in range(D1 + D2 - p + 1)
    ]
    log_c = math.log(c)
    total = 0.0
    for ratio, e in terms:
        if ratio.bit_length() > 1023 or -e * log_c > 709.0:
            break   # float(ratio) or c ** -e would raise OverflowError
        total += ratio * c ** (-e)
        if not math.isfinite(total):
            break
    else:
        return math.exp(-c) * total
    # big-number fallback: accumulate in log space (math.log handles big ints)
    logs = [math.log(ratio) - e * log_c for ratio, e in terms]
    m = max(logs)
    log_sum = m + math.log(math.fsum(math.exp(v - m) for v in logs))
    out = -c + log_sum
    return math.exp(out) if out < 700 else math.inf


# series_I_quadrature's tolerance relative to a coarse first pass: 1e-7 gave
# errors up to 1.5e-6 against the closed form, over the 1e-6 ledger gate
_SERIES_REL_TOL = 1e-9


def series_I_quadrature(c: float, D1: int, D2: int) -> float:
    """Independent quadrature oracle for the same double integral.  The inner
    integral is the upper incomplete gamma closed form
    int_y^inf x^D2 e^{-cx} dx = Gamma(D2+1, c y) / c^(D2+1); the outer one runs
    over u = 1/y in (0, 1] by adaptive Simpson, with the absolute tolerance
    _SERIES_REL_TOL times a coarse first pass (the values on the bounds grid
    span about 0.1 to 3e5)."""
    scale = math.gamma(D2 + 1) / c ** (D2 + 1)
    # gammaincc(D2 + 1, c / u), its order and the sign of c / u (that of c,
    # as u > 0) checked once here rather than at every node
    order, _ = check_order(D2 + 1, c)

    def f(u):
        return u ** -(D1 + 2) * poisson_tail(order, c / u) * scale

    return integrate(f, 0.0, 1.0, tol=_SERIES_REL_TOL * abs(integrate(f, 0.0, 1.0, tol=1e-3)))


def _or_inf(f, *args) -> float:
    """f(*args), or inf where the float result is past the float range and f
    raises OverflowError."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def _partial_sums(D: int, c: float, N: int) -> list[float]:
    """The partial sums through n = N of S(D, c) = sum_n sum_{k<=n} k^D
    C(n,k) e^{-cn}, each term summed in log space.  A term past the float
    range reads inf, and so does every partial sum after it."""
    partial, total = [], 0.0
    lf = log_factorials(N)
    for n in range(1, N + 1):
        k = np.arange(1, n + 1, dtype=float)
        logs = D * np.log(k) + lf[n] - lf[1:n + 1] - lf[n - 1::-1]
        m = float(np.max(logs))
        inner = m + math.log(float(np.sum(np.exp(logs - m))))
        total += _or_inf(math.exp, inner - c * n) if inner - c * n > -745 else 0.0
        partial.append(total)
    return partial


def _bracket_misses(D: int, c: float, partial_sums: Sequence[float]) -> int:
    """Partial sums outside their closed-form bracket by more than 1e-12
    relative.  Termwise 2^n - 1 <= sum_k k^D C(n,k) <= n^D (2^n - 1), so the
    m-th partial sum lies in [sum_{n<=m} (2^n - 1) e^{-cn}, sum_{n<=m} n^D
    (2^n - 1) e^{-cn}]."""
    misses, lo, hi = 0, 0.0, 0.0
    for n, total in enumerate(partial_sums, start=1):
        log_lo = n * math.log(2.0) + math.log1p(-(2.0**-n)) - c * n
        log_hi = log_lo + D * math.log(n)
        lo += _or_inf(math.exp, log_lo) if log_lo > -745 else 0.0
        hi += math.exp(log_hi) if log_hi < 709 else math.inf
        if not lo * (1.0 - 1e-12) <= total <= hi * (1.0 + 1e-12):
            misses += 1
    return misses


def series_S_diagnostic(D: int, c: float, N: int) -> dict:
    """The bounds report's row for S(D, c): the dichotomy at c = log 2 and the
    first N partial sums' bracket misses.  The bracket's upper end converges
    for c > log 2 and its lower end diverges otherwise."""
    if D < 1 or c <= 0 or N < 1 or N > 10**4:
        raise ValueError("need D >= 1, c > 0, 1 <= N <= 1e4")
    return {"classification": "convergent" if c > math.log(2.0) else "divergent",
            "bracket_misses": _bracket_misses(D, c, _partial_sums(D, c, N))}


# ---------------------------------------------------------------------------
# GC experiment
# ---------------------------------------------------------------------------

def gc_sample(model, n: int, seed: int, r: int) -> Sample:
    """Replicate r of size n of gc_experiment under the root seed, drawn
    from model (a NuModel or its name) under the derived seed ["gc", n, r]."""
    return draw_sample(model, n, derive_seed(seed, ["gc", n, r]))


def gc_experiment(cls: BVectorClass, model: NuModel, n_schedule: Sequence[int],
                  replicates: int, seed: int, centering: str = "lambda_n") -> tuple:
    """Replicated exact deviations over cls x half-lines per n, plus the
    deterministic correction term when the centering is "lambda" rather than
    "lambda_n" (triangle split: the lambda-centered sup is bounded by the
    exact statistic plus sup_B |lambda_n(B) - lambda(B)| times sup_W nu(W)
    <= the class gap).  Returns the rows, one per n, and {n: the replicate
    statistics before that correction}.

    Replicates are independent samples (gc_sample); results are assembled in
    replicate order, so they do not depend on how the replicates are
    scheduled.  The indicators take the exact statistic one replicate at a
    time; any other class takes each block of _runs_block replicates
    through one run-DP branch and bound (_max_runs)."""
    rows, values = [], {}
    for n in n_schedule:
        vals = np.empty(replicates)
        if cls == INDICATORS:
            for r in range(replicates):
                vals[r] = sup_deviation_exact_BW(0, "odd", gc_sample(model, n, seed, r))
        else:
            runs = _runs_class(cls, n)
            block = _runs_block(n, runs)
            for lo in range(0, replicates, block):
                rs = range(lo, min(lo + block, replicates))
                vals[lo:rs.stop] = _exact_stats_runs([gc_sample(model, n, seed, r) for r in rs],
                                                     runs)
        values[n] = vals
        if centering == "lambda":
            vals = vals + cls.sup_lambda_gap(n)  # sup_W nu(W) <= 1 for half-lines
        rows.append(
            {
                "n": n,
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
                "q95": float(np.quantile(vals, 0.95)),
                "max": float(vals.max()),
                "lambda_gap_bound": cls.riemann_gap_bound(n),
                "sup_lambda_gap": cls.sup_lambda_gap(n),
            }
        )
    return rows, values
