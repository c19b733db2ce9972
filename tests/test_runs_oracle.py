"""The generic run DP against the chunked kernel it replaced.

chunked_runs_stat is the j >= 1 exact statistic as computed before the
one-sweep run DP: the columns built by a Python loop over the cuts, then, per
chunk of 512 columns and per sign, a row loop over a materialised (n, 512)
matrix.  It is kept here as the oracle.  The sweep applies the same float
operations to every column in the same order, and a max is exact, so it must
return the same bits: across the old chunk edge (n = 256 gives 513 columns),
on ties, on samples whose F saturates at 0 or 1, and, at every n, through
the column-block branch and bound, which sweeps exactly only the blocks
whose bound column can beat the pilots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semproc.function_classes import BVectorClass
from semproc.measures import NuModel, Sample, draw_sample, parse_model
from semproc.seeds import derive_seed
from semproc.ulln import sup_deviation_bruteforce, sup_deviation_exact_BW
from semproc import ulln
from semproc.ulln import gc_experiment, gc_sample

MODELS = ("uniform01", "standard-normal", "exponential(1)")
SIZES = (1, 2, 17, 255, 256, 1000)
CLASSES = [(j, parity) for j in (1, 2, 3) for parity in ("odd", "even")]


def _canonical_columns(sample: Sample, model: NuModel):
    """Sorted ranks plus the canonical (cut index, nu value) column pairs."""
    xs = sample.xs()
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(sample.n, dtype=np.int64)
    ranks[order] = np.arange(1, sample.n + 1)
    f_sorted = np.asarray(model.cdf(xs[order]), dtype=float)  # F(X_(k)), k=1..n
    return ranks, f_sorted


def _max_runs_dp(A: np.ndarray, j: int, anchored: bool) -> np.ndarray:
    """Column-wise max over selectable index sets of the selected-entry sum.

    A has shape (n, K); the family is <= j free runs, plus, when anchored, an
    optional prefix {1..p} alongside the j runs.  Empty selection (value 0)
    is always allowed.
    """
    n, K = A.shape
    neg = -np.inf
    open_r = np.full((j + 1, K), neg)     # open_r[r]: r-th run ends at current i
    closed_r = np.zeros((j + 1, K))       # closed_r[r]: best with <= r runs so far
    closed_r[1:, :] = 0.0
    if anchored:
        pref = np.zeros(K)
        aclosed = np.full((j + 1, K), neg)
        aopen = np.full((j + 1, K), neg)
    for i in range(n):
        a = A[i]
        if anchored:
            pref = pref + a
            # aclosed[r-1] still holds the i-1 value here (descending update),
            # so a run opened at i correctly follows a prefix closed by i-1
            for r in range(j, 0, -1):
                aopen[r] = a + np.maximum(aopen[r], aclosed[r - 1])
                aclosed[r] = np.maximum(aclosed[r], aopen[r])
            aclosed[0] = np.maximum(aclosed[0], pref)
        for r in range(j, 0, -1):
            open_r[r] = a + np.maximum(open_r[r], closed_r[r - 1])
            closed_r[r] = np.maximum(closed_r[r], open_r[r])
    best = closed_r[j].copy() if j >= 1 else np.zeros(K)
    if anchored:
        best = np.maximum(best, aclosed[j])
    return np.maximum(best, 0.0)


def chunked_runs_stat(sample: Sample, model: NuModel, j: int, parity: str,
                      col_chunk: int = 512) -> float:
    n = sample.n
    ranks, f_sorted = _canonical_columns(sample, model)
    # columns: (k, nu) with nu the inclusive constant (k >= 1) or right limit
    ks, nus = [], []
    for k in range(n + 1):
        if k >= 1:
            ks.append(k)
            nus.append(f_sorted[k - 1])
        right = f_sorted[k] if k < n else 1.0
        ks.append(k)
        nus.append(right)
    ks_arr = np.asarray(ks)
    nus_arr = np.asarray(nus)
    anchored = parity == "odd"
    best = 0.0
    for lo in range(0, len(ks_arr), col_chunk):
        kc = ks_arr[lo:lo + col_chunk]
        nc = nus_arr[lo:lo + col_chunk]
        A = (ranks[:, None] <= kc[None, :]).astype(float) - nc[None, :]
        best = max(best, float(np.max(_max_runs_dp(A, j, anchored))))
        best = max(best, float(np.max(_max_runs_dp(-A, j, anchored))))
    return best / n


def _draw(name: str, n: int, label: str, r: int) -> Sample:
    return draw_sample(name, n, derive_seed(9, ["runs-oracle", label, name, n, r]))


def _tied(name: str, n: int) -> Sample:
    """A draw rounded to a coarse grid, so most values repeat."""
    xs = np.round(_draw(name, n, "tied", 0).xs(), 1 if name != "uniform01" else 2)
    return Sample(n=n, values=xs, model=name)


def _saturated(name: str, n: int) -> Sample:
    """A draw with every third value moved to where F is exactly 1.0 (x > 37
    for exponential(1), x > 38 for the normal, x > 1 for the uniform), four
    distinct such values in turn, and every seventh to where F is 0.0."""
    xs = np.array(_draw(name, n, "saturated", 0).xs())
    far = {"uniform01": (-0.5, 1.5), "standard-normal": (-40.0, 40.0),
           "exponential(1)": (-1.0, 40.0)}[name]
    xs[::3] = far[1] + np.arange(len(xs[::3])) % 4
    xs[1::7] = far[0]
    return Sample(n=n, values=xs, model=name)


@pytest.mark.parametrize("j,parity", CLASSES)
@pytest.mark.parametrize("n", SIZES)
def test_bit_equal_to_chunked_kernel(j, parity, n):
    for name in MODELS:
        model = parse_model(name)
        sample = _draw(name, n, "plain", 0)
        assert sup_deviation_exact_BW(j, parity, sample) == chunked_runs_stat(sample, model,
                                                                              j, parity)


@pytest.mark.parametrize("j,parity", CLASSES)
@pytest.mark.parametrize("n", SIZES[:-1])
def test_bit_equal_on_ties_and_saturated_tails(j, parity, n):
    for name in MODELS:
        model = parse_model(name)
        for sample in (_tied(name, n), _saturated(name, n)):
            assert sup_deviation_exact_BW(j, parity, sample) == chunked_runs_stat(sample, model,
                                                                                  j, parity)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=12),
    st.sampled_from(CLASSES),
)
def test_matches_bruteforce_with_forced_ties(grid, cls):
    # values on the grid {-1/4, 0, ..., 5/4}: ties everywhere, and F = 0 or 1
    # at both ends
    j, parity = cls
    sample = Sample(n=len(grid), values=np.asarray(grid) / 4.0 - 0.25, model="uniform01")
    got = sup_deviation_exact_BW(j, parity, sample)
    assert got == chunked_runs_stat(sample, parse_model("uniform01"), j, parity)
    assert abs(got - sup_deviation_bruteforce(j, parity, sample)) <= 1e-12


# Past floor(n / 2) runs beside the prefix (odd) or ceil(n / 2) (even) j is
# clamped: at j = n + 2 the value keeps the bits of the unclamped chunked
# kernel and matches the brute force, and so does a j whose unclamped state
# arrays would not fit in memory.

@pytest.mark.parametrize("parity", ("odd", "even"))
@pytest.mark.parametrize("n", range(1, 17))
def test_j_past_the_runs_n_points_hold(n, parity):
    for name in MODELS:
        sample = _draw(name, n, "large-j", 0)
        got = sup_deviation_exact_BW(n + 2, parity, sample)
        assert got == chunked_runs_stat(sample, parse_model(name), n + 2, parity)
        assert abs(got - sup_deviation_bruteforce(n + 2, parity, sample)) <= 1e-12
        assert sup_deviation_exact_BW(10**12, parity, sample) == got


# gc_experiment sweeps a block of replicates of one n at once; each
# replicate's statistic must have the bits sup_deviation_exact_BW gives its
# sample alone.

def _one_at_a_time(j, parity, name, n, replicates, seed):
    model = parse_model(name)
    return np.array([sup_deviation_exact_BW(j, parity,
                                            draw_sample(model, n, derive_seed(seed, ["gc", n, r])))
                     for r in range(replicates)])


@pytest.mark.parametrize("j,parity", CLASSES)
@pytest.mark.parametrize("name", MODELS)
def test_batched_replicates_bit_equal_to_one_at_a_time(j, parity, name):
    # at n = 500 one full block of 15 and a short last block of 2
    cls = BVectorClass(j, parity)
    sizes, replicates = (1, 2, 7, 500), ulln._runs_block(500, cls) + 2
    assert 1 < ulln._runs_block(500, cls) < replicates
    _, values = gc_experiment(cls, parse_model(name), sizes, replicates, 5)
    for n in sizes:
        want = _one_at_a_time(j, parity, name, n, replicates, 5)
        assert values[n].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_batched_replicates_one_per_block(name):
    cls = BVectorClass(3, "odd")
    assert ulln._runs_block(4000, cls) == 1
    _, values = gc_experiment(cls, parse_model(name), (4000,), 3, 6)
    assert values[4000].tobytes() == _one_at_a_time(3, "odd", name, 4000, 3, 6).tobytes()


class _RecordingNumpy:
    """numpy, with the bytes of every array that zeros, full and empty make."""

    def __init__(self):
        self.nbytes = []

    def __getattr__(self, attr):
        make = getattr(np, attr)
        if attr not in ("zeros", "full", "empty"):
            return make

        def recorded(*args, **kwargs):
            out = make(*args, **kwargs)
            self.nbytes.append(out.nbytes)
            return out
        return recorded


def _columns(name: str, n: int, replicates: int, seed: int = 21):
    """ranks and nus of replicates gc samples of size n, stacked as
    gc_experiment stacks a block."""
    model = parse_model(name)
    columns = [ulln._canonical_columns(gc_sample(model, n, seed, r)) for r in range(replicates)]
    return np.stack([c[0] for c in columns]), np.stack([c[1] for c in columns])


@pytest.mark.parametrize("j,parity", CLASSES)
def test_block_rule_keeps_each_state_array_below_128_kib(j, parity, monkeypatch):
    cls = BVectorClass(j, parity)
    for n in (1, 2, 7, 100, 1000, 10**4, 10**6):
        assert ulln._runs_block(n, cls) >= 1
    # the arrays one block's sweeps make, at sizes whose block holds 2 or
    # more: the bound sweep, then the second sweep when a block survives
    for n in (7, 300, 1000 // j, 3000):
        block = ulln._runs_block(n, cls)
        assert block >= 2
        ranks, nus = _columns("standard-normal", n, block)
        sweeps = []
        sweep = ulln._runs_sweep
        monkeypatch.setattr(ulln, "_runs_sweep", lambda *args: sweeps.append(1) or sweep(*args))
        recording = _RecordingNumpy()
        monkeypatch.setattr(ulln, "np", recording)
        _, swept, _ = ulln._max_runs(ranks, nus, cls)
        monkeypatch.undo()
        assert len(sweeps) == 1 + (swept > 0)
        assert max(recording.nbytes) <= 128 * 1024


# Small cell budgets split both sweeps into column chunks, some across the
# plus/minus edge, and the sweep into short row blocks: the same bits.

@pytest.mark.parametrize("j,parity", [(1, "odd"), (2, "even"), (3, "odd")])
@pytest.mark.parametrize("cells", (97, 700))
def test_column_chunks_bit_equal_to_chunked_kernel(j, parity, cells, monkeypatch):
    cls, model = BVectorClass(j, parity), parse_model("standard-normal")
    for n in (60, 300):
        samples = [gc_sample(model, n, 41, r) for r in range(3)]
        want = np.array([chunked_runs_stat(s, model, j, parity) for s in samples])
        monkeypatch.setattr(ulln, "_BLOCK_CELLS", cells)
        got = ulln._exact_stats_runs(samples, cls)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()


# The branch and bound at scale, n = 3000 (test_bit_equal_to_chunked_kernel
# covers n = 1000); the oracle in chunks of 2n + 1 columns, for speed.

@pytest.mark.parametrize("j,parity", CLASSES)
def test_branch_and_bound_bit_equal_to_chunked_kernel_at_3000(j, parity):
    for name in MODELS:
        model = parse_model(name)
        sample = gc_sample(model, 3000, 31, 0)
        assert sup_deviation_exact_BW(j, parity, sample) == chunked_runs_stat(
            sample, model, j, parity, col_chunk=6001)


# The share of (replicate, block) cells swept exactly on the benchmark's two
# run-DP configs at n = 1000, 6 replicates (0.03-0.14 over seeds 1-60).
_RUNS_CONFIGS = [(1, "odd", "standard-normal"), (2, "even", "exponential(1)")]


@pytest.mark.parametrize("j,parity,name", _RUNS_CONFIGS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_blocks_swept_exactly_at_most_15_percent(j, parity, name, seed):
    _, swept, blocks = ulln._max_runs(*_columns(name, 1000, 6, seed), BVectorClass(j, parity))
    assert blocks == 6 * (125 + 126)
    assert 0 < swept <= 0.15 * blocks


# Small n goes through the same branch and bound: at n = 60 some cells are
# pruned.

@pytest.mark.parametrize("j,parity,name", _RUNS_CONFIGS)
def test_blocks_pruned_at_small_n(j, parity, name):
    _, swept, blocks = ulln._max_runs(*_columns(name, 60, 6), BVectorClass(j, parity))
    assert blocks == 6 * (8 + 8)
    assert swept < blocks


# Each column carries its sign through both sweeps.  Samples near the top of
# the uniform make the minus column at cut 0, the first minus column, the
# max; a wrong sign there in one sweep alone is hidden by the other (the
# pilot or the block that holds it), so each sweep is checked on its own
# against every column's value from the oracle's DP.

def _high(n: int, r: int) -> Sample:
    """A uniform01 draw moved into [0.9, 1): F(X_(1)) is at least 0.9."""
    xs = 0.9 + 0.1 * _draw("uniform01", n, "high", r).xs()
    return Sample(n=n, values=xs, model="uniform01")


@pytest.mark.parametrize("j,parity", [(1, "odd"), (2, "even"), (3, "odd")])
@pytest.mark.parametrize("n", (7, 60))
def test_each_column_carries_its_sign(j, parity, n, monkeypatch):
    cls = BVectorClass(j, parity)
    samples = [_high(n, r) for r in range(3)] + [_draw("standard-normal", n, "plain", r)
                                                  for r in range(3)]
    columns = [ulln._canonical_columns(s) for s in samples]
    ranks, nus = np.stack([c[0] for c in columns]), np.stack([c[1] for c in columns])
    cuts, minus = ulln._signed_cuts(n), np.arange(2 * n + 1) >= n
    want = np.empty(nus.shape)
    for r in range(len(samples)):
        A = (ranks[r][:, None] <= cuts[None, :]).astype(float) - nus[r][None, :]
        A[:, minus] = -A[:, minus]
        want[r] = _max_runs_dp(A, j, cls.anchored)
    assert (want[:3].argmax(axis=1) == n).all()     # the minus column at cut 0
    # the first sweep: every bound at least its block's columns, every
    # pilot its column's value
    bound, best = ulln._first_sweep(ranks, nus, cls)
    ends = np.append(np.concatenate(ulln._block_starts(n)), 2 * n + 1)
    for b, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        assert (bound[:, b] >= want[:, lo:hi].max(axis=1)).all()
    pilots = ulln._pilot_columns(nus, n)
    assert best.tobytes() == np.take_along_axis(want, pilots, axis=1).max(axis=1).tobytes()
    # the second sweep alone, every block kept and no pilot
    monkeypatch.setattr(ulln, "_first_sweep", lambda ranks, nus, cls: (
        np.full(bound.shape, np.inf), np.zeros(len(samples))))
    assert ulln._max_runs(ranks, nus, cls)[0].tobytes() == want.max(axis=1).tobytes()


# Planted faults in the block bound.  Each makes a bound column fall below
# some column of its block, so the second sweep skips a block that holds the
# max, and the statistic drops below the chunked kernel's on some sample.

_bound_columns = ulln._bound_columns


def _plus_bound_at_greatest_nu(nus, n):
    cuts, vals = _bound_columns(nus, n)
    plus, _ = ulln._block_starts(n)
    vals[:, :len(plus)] = np.maximum.reduceat(nus[:, :n], plus, axis=1)
    return cuts, vals


def _minus_bound_at_last_cut(nus, n):
    cuts, vals = _bound_columns(nus, n)
    plus, minus = ulln._block_starts(n)
    cuts[len(plus):] = ulln._signed_cuts(n)[np.append(minus[1:], 2 * n + 1) - 1]
    return cuts, vals


@pytest.mark.parametrize("fault", [_plus_bound_at_greatest_nu, _minus_bound_at_last_cut])
@pytest.mark.parametrize("j,parity,name", _RUNS_CONFIGS)
def test_planted_bound_faults_miss_the_max(fault, j, parity, name, monkeypatch):
    cls, model = BVectorClass(j, parity), parse_model(name)
    samples = [gc_sample(model, 300, 21, r) for r in range(12)]
    want = np.array([chunked_runs_stat(s, model, j, parity) for s in samples])
    assert ulln._exact_stats_runs(samples, cls).tobytes() == want.tobytes()
    monkeypatch.setattr(ulln, "_bound_columns", fault)
    got = ulln._exact_stats_runs(samples, cls)
    assert (got <= want).all() and (got < want).any()
