"""The exact covering search and the random covering distances against their
slow reference forms.

bfs_covering_number is the breadth-first search over unions of target masks
that exact_covering_number replaced, and bfs_min_cover is that search on
masks already built, the form in which check_covering_lemmas hands each set
cover to _min_cover.  random_covering_boundedness reads its L1 distances
from a table of integer quadrant counts; gram_l1, the 0/1 Gram form it
replaced, and row_loop_l1, the row-at-a-time mean absolute difference before
that, read the member values at the design points, a set's membership taken
on the Fraction i/n.  They are kept here as oracles: the fast paths must give
the same counts and the same float bits."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from semproc import covering
from semproc.covering import (
    MAX_EXACT_TARGETS,
    check_covering_lemmas,
    exact_covering_number,
)
from semproc.function_classes import half_line, indicator
from semproc.measures import draw_sample, parse_model

from member_oracles import exact_grid_values

SRC = Path(__file__).resolve().parents[1] / "src"


def bfs_covering_number(dist, u, targets=None, centers=None, hard_cap=22):
    """Minimum u-net size by breadth-first search over every union of masks."""
    k = dist.shape[0]
    tg = list(range(k)) if targets is None else list(targets)
    ct = list(range(k)) if centers is None else list(centers)
    t = len(tg)
    if t == 0:
        return 0
    if t > hard_cap:
        raise ValueError(f"exact covering limited to {hard_cap} targets, got {t}")
    pos = {p: i for i, p in enumerate(tg)}
    masks = []
    for c in ct:
        m = 0
        for p in tg:
            if dist[c, p] < u:
                m |= 1 << pos[p]
        masks.append(m)
    return bfs_min_cover(masks, t)


def bfs_min_cover(masks, t):
    """The fewest masks whose union is the t >= 1 low bits, by breadth-first
    search over every union of the nonzero masks."""
    masks = [m for m in masks if m]
    full = (1 << t) - 1
    if not masks:
        raise ValueError("some target cannot be covered at this radius")
    best = {0: 0}
    frontier = {0}
    count = 0
    while True:
        if full in best:
            return best[full]
        count += 1
        new_frontier = set()
        for state in frontier:
            for m in masks:
                nxt = state | m
                if nxt not in best:
                    best[nxt] = count
                    new_frontier.add(nxt)
        if not new_frontier:
            raise ValueError("some target cannot be covered at this radius")
        frontier = new_frontier


def row_loop_l1(vals):
    """Mean absolute difference between every pair of rows, one row at a time."""
    return np.stack([np.mean(np.abs(v - vals), axis=1) for v in vals])


def gram_l1(vals):
    """Mean absolute difference between every pair of 0/1 rows as
    (sum a + sum b - 2 a.b) / n: every term is an integer below 2^53, so the
    row sums and the Gram matrix are exact whatever the summation order."""
    v = np.asarray(vals, dtype=float)
    assert ((v == 0.0) | (v == 1.0)).all()
    s = v.sum(axis=1)
    return (s[:, None] + s[None, :] - 2.0 * (v @ v.T)) / v.shape[1]


def fine_net_rows(model, n, seeds):
    """The 0/1 rows of random_covering_boundedness's members in its call
    order: per n the indicators, then per seed the products and the
    half-lines."""
    k = covering._FINE_NET
    h = np.stack([exact_grid_values(indicator((i + 1) / k), n) for i in range(k)])
    out = [h]
    for seed in seeds:
        xs = draw_sample(model, n, seed).xs()
        g = np.stack([half_line(float(model.ppf((i + 1) / (k + 1))))(xs) for i in range(k)])
        out += [(h[:, None, :] * g[None, :, :]).reshape(-1, n), g]
    return out


def _euclid(points):
    return np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))


def _recorded_lemma_calls(monkeypatch, trials, seed):
    calls = []
    kernel = covering._min_cover

    def record(masks, t):
        calls.append((list(masks), t))
        return kernel(masks, t)

    with monkeypatch.context() as m:
        m.setattr(covering, "_min_cover", record)
        check_covering_lemmas(trials, seed)
    return calls


class TestExactCoveringAgainstBFS:
    @pytest.mark.parametrize("seed", [1, 505])
    def test_every_lemma_call(self, monkeypatch, seed):
        calls = _recorded_lemma_calls(monkeypatch, 250, seed)
        assert len(calls) == 7 * 250  # N(u, d) is computed once per trial
        for masks, t in calls:
            assert covering._min_cover(masks, t) == bfs_min_cover(masks, t)

    def test_restricted_targets_and_centers(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            k = int(rng.integers(4, 15))
            dist = _euclid(rng.random((k, 2)))
            u = float(rng.random() * dist.max() + 1e-6)
            tg = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
            ct = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
            try:
                want = bfs_covering_number(dist, u, targets=tg, centers=ct)
            except ValueError:
                with pytest.raises(ValueError):
                    exact_covering_number(dist, u, targets=tg, centers=ct)
                continue
            assert exact_covering_number(dist, u, targets=tg, centers=ct) == want
            checked += 1
        assert checked >= 100

    def test_uncoverable_target_raises_in_both(self):
        pts = np.array([[0.0], [0.1], [5.0]])
        dist = _euclid(pts)
        for fn in (bfs_covering_number, exact_covering_number):
            with pytest.raises(ValueError, match="cannot be covered"):
                fn(dist, 1.0, centers=[0, 1])
            with pytest.raises(ValueError, match="cannot be covered"):
                fn(dist, 1.0, centers=[])

    def test_target_limit(self):
        assert MAX_EXACT_TARGETS == 22
        rng = np.random.default_rng(3)
        dist = _euclid(rng.random((23, 2)))
        u = 0.45
        tg = list(range(22))
        assert exact_covering_number(dist, u, targets=tg) == bfs_covering_number(
            dist, u, targets=tg)
        for fn in (bfs_covering_number, exact_covering_number):
            with pytest.raises(ValueError, match="limited to 22 targets, got 23"):
                fn(dist, u)


# n = 12 puts five fine-net end points (i + 1) / 12 on floats that round
# below their grid points: the float rule would count those points
_COVER_NS, _COVER_SEEDS = [10, 12, 100, 1000], [1, 2, 3]

_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from semproc import covering
    from semproc.measures import parse_model

    outs = []
    fast = covering._quadrant_distances

    def record(counts, n):
        outs.append(fast(counts, n))
        return outs[-1]

    covering._quadrant_distances = record
    covering.random_covering_boundedness(0.5, %r, %r, parse_model("uniform01"))
    np.savez(sys.argv[1], *outs)
""" % (_COVER_NS, _COVER_SEEDS))


class TestL1DistancesAgainstRowLoop:
    @pytest.mark.parametrize("threads", ["1", None])
    def test_bit_equal_by_blas_threads(self, tmp_path, threads):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = tmp_path / "l1.npz"
        subprocess.run([sys.executable, "-c", _CHILD, str(out)], env=env, check=True,
                       timeout=120)
        with np.load(out) as z:
            got = [z[f"arr_{i}"] for i in range(len(z.files))]
        model = parse_model("uniform01")
        rows = [v for n in _COVER_NS for v in fine_net_rows(model, n, _COVER_SEEDS)]
        assert len(got) == len(rows) == len(_COVER_NS) * (1 + 2 * len(_COVER_SEEDS))
        for v, d in zip(rows, got):
            assert d.tobytes() == gram_l1(v).tobytes() == row_loop_l1(v).tobytes()
