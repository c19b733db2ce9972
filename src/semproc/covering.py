"""Covering numbers, shatter coefficients, random covering numbers.

Nets follow the strict-inequality convention: {m_1..m_k} is a u-net when every
point of the space is within distance strictly less than u of some m_i.  Exact
covering numbers (minimum net size) are a minimum set cover over target
bitmasks (_min_cover): masks contained in another mask are dropped, covers of
one mask, of one-bit masks only and of two masks are answered directly, and
the rest by iterative-deepening depth-first search in which each step
branches only on the masks that cover the lowest uncovered target (the column
choice of Knuth's Algorithm X).  The search is exponential in the worst case,
so it is limited to small instances; the greedy farthest-point-first net
provides the general upper bound.

The covering lemma check runs its random trials in blocks: a draw pass takes
every trial's generator draws in trial order into padded arrays, the block's
distance matrices and target bitmasks come from array operations with the
float operations of a single trial, and each trial's set covers then go to
_min_cover.

The subset monotonicity check uses ambient nets (net points may be taken from
the superset): with nets forced inside the subset the inequality
N(u, M', d) <= N(u, M, d) is false in general (a hub point of M can cover
several points of M' that cannot cover each other), and the ambient reading is
the one actually used when passing from a product class to its factor classes.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Optional, Sequence

import numpy as np

from .function_classes import BVectorClass, indicator
from .measures import NuModel, draw_sample

__all__ = [
    "greedy_net_indices",
    "product_distances",
    "exact_covering_number",
    "check_covering_lemmas",
    "shatter_coefficient",
    "random_covering_boundedness",
]


# Kept only because perfbench/tracing.py wraps this name; no report calls it.
def pairwise_distances(family: Sequence, metric) -> np.ndarray:
    """Distance matrix of a finite family under a callable (a, b) -> float."""
    k = len(family)
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d[i, j] = d[j, i] = metric(family[i], family[j])
    return d


# ---------------------------------------------------------------------------
# Covering numbers
# ---------------------------------------------------------------------------

def greedy_net_indices(dist: np.ndarray, u: float) -> list[int]:
    """Farthest-point-first u-net (strict < u coverage); deterministic start
    at index 0.  The selected points are pairwise >= u apart, so the result is
    simultaneously a maximal u-packing and a valid u-net.  Raises ValueError
    for u <= 0, a non-finite distance or a self-distance >= u (an index the
    sweep picks on every pass), where the sweep would never end."""
    if not u > 0:
        raise ValueError(f"greedy net radius u must be > 0, got {u!r}")
    if not (np.isfinite(dist).all() and (np.diagonal(dist) < u).all()):
        raise ValueError(f"greedy net distances must be finite and self-distances < u = {u!r}")
    k = dist.shape[0]
    if k == 0:
        return []
    chosen = [0]
    mind = dist[0].copy()
    while True:
        far = int(np.argmax(mind))
        if mind[far] < u:
            break
        chosen.append(far)
        mind = np.minimum(mind, dist[far])
    return chosen


MAX_EXACT_TARGETS = 22
_TARGET_BITS = 1 << np.arange(MAX_EXACT_TARGETS, dtype=np.int64)


def exact_covering_number(
    dist: np.ndarray,
    u: float,
    targets: Optional[Sequence[int]] = None,
    centers: Optional[Sequence[int]] = None,
) -> int:
    """Minimum u-net size: the fewest centers whose strict u-balls cover every
    target.  targets are the rows to cover (default all); centers the allowed
    net points (default all -> ambient = internal when both default).

    Each center becomes the bitmask of the targets it covers, read from the
    rows of dist (only the centers' rows when centers is given, only the
    targets' columns when targets is given), and _min_cover solves the set
    cover.  Raises ValueError for more than MAX_EXACT_TARGETS targets or a
    target no center covers."""
    t = dist.shape[0] if targets is None else len(targets)
    if t == 0:
        return 0
    if t > MAX_EXACT_TARGETS:
        raise ValueError(f"exact covering limited to {MAX_EXACT_TARGETS} targets, got {t}")
    if centers is not None:
        dist = dist[np.asarray(centers, dtype=np.intp)]
    if targets is not None:
        dist = dist[:, np.asarray(targets, dtype=np.intp)]
    return _min_cover(((dist < u) @ _TARGET_BITS[:t]).tolist(), t)


def _min_cover(masks: Sequence[int], t: int) -> int:
    """The fewest of the int masks whose union is the t >= 1 low bits.

    Equal masks are kept once, and a mask that is a subset of another mask
    (0 among them) is never needed in a minimum cover and is dropped.  Three
    exact answers come first: 1 when a mask is full, t when the widest kept
    mask has one bit, 2 when two kept masks make up the full mask.  Depths
    max(3, ceil(t / widest)), ... are then tried in turn by depth-first
    search; a step takes the lowest uncovered target and branches only on the
    masks that cover it, and a branch is cut when its remaining depth times
    the widest mask size cannot reach the uncovered count.  Raises ValueError
    when the masks leave a target uncovered."""
    full = (1 << t) - 1
    masks = set(masks)
    if full in masks:
        return 1
    if reduce(or_, masks, 0) != full:
        raise ValueError("some target cannot be covered at this radius")
    kept: list[int] = []  # widest first: a mask meets its supersets before itself
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for w in kept:
            if m & w == m:
                break
        else:
            kept.append(m)
    widest = kept[0].bit_count()
    if widest == 1:
        return t
    if 2 * widest >= t:
        for i, a in enumerate(kept):
            rest = full & ~a
            for b in kept[i + 1:]:
                if b & rest == rest:
                    return 2
    by_target = [[m for m in kept if m >> i & 1] for i in range(t)]

    def covers(uncovered: int, depth: int) -> bool:
        if uncovered == 0:
            return True
        if uncovered.bit_count() > depth * widest:
            return False
        low = (uncovered & -uncovered).bit_length() - 1
        for m in by_target[low]:
            if covers(uncovered & ~m, depth - 1):
                return True
        return False

    depth = max(3, -(-t // widest))
    while not covers(full, depth):
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# The four covering lemmas as randomized property checks
# ---------------------------------------------------------------------------

def _euclidean(points: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Distance matrices of a block of padded point clouds: points is
    (clouds, slots, dim) and cloud c holds its k[c] points first.  An entry
    is sqrt of the squared coordinate differences added in coordinate order,
    one addition per coordinate after the first (0.0 + x * x is x * x), and
    every entry off a cloud's first k[c] points is +inf, so it is never < u."""
    sq = 0.0
    for c in range(points.shape[2]):
        diff = points[:, :, None, c] - points[:, None, :, c]
        sq = sq + diff * diff
    held = np.arange(points.shape[1]) < k[:, None]
    return np.where(held[:, :, None] & held[:, None, :], np.sqrt(sq), np.inf)


def _diameter(d: np.ndarray) -> np.ndarray:
    """The largest finite entry of each matrix of a block from _euclidean."""
    return np.max(d, axis=(1, 2), where=np.isfinite(d), initial=0.0)


def product_distances(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The composite metric d1 + d2 on the product of two finite spaces:
    member (a, b) has flat index a * len(d2) + b."""
    k = d1.shape[0] * d2.shape[0]
    return (d1[:, None, :, None] + d2[None, :, None, :]).reshape(k, k)


# Trials per block.  The largest temporary, the (block, 4, 4, 4, 4) product
# distances, is 102,400 bytes: below glibc's default 128 KiB mmap threshold,
# so freeing a block never raises that threshold (which would lift the peak
# RSS of whatever runs later).
_LEMMA_BLOCK = 50
_POINTS = 10   # a space has 3..10 points
_FACTOR = 4    # a product factor has 2..4 points


def check_covering_lemmas(trials: int, seed: int) -> dict:
    """Randomized finite metric spaces (Euclidean point clouds, <= 10 points),
    exact covering numbers; checks subset monotonicity (ambient nets), metric
    domination, the product bound and isometry invariance.  Returns the
    covering report's lemma part: "lemma_checks", the trials per lemma;
    "lemma_reports", one {lemma, trials, violations, worst_case} record per
    lemma; and "lemma_violations", every violation in trial order.

    Trials run in blocks of _LEMMA_BLOCK.  A draw pass makes each trial's
    generator calls in trial order (the cloud, the radius draw, the subset,
    the dominating offsets, the two factors, t and their radius draw, the
    relabeling) into padded arrays.  The block's distances, radii and target
    bitmasks (each a 0/1 "closer than u" matrix times the targets' bits, 0
    off the targets) then come from a few array operations, with the float
    operations of one trial at a time: the radii are r * 1.2 * diam + 1e-6,
    and the product metric adds one factor distance to the other.  Each trial
    then solves seven set covers with _min_cover: N(u, d) once, read by the
    subset, domination and isometry checks alike, then the subset, the
    dominating metric d' >= d, the product space and its two factors, and the
    relabeled space.  Most are answered by its early exits (one mask or two
    masks cover everything)."""
    if trials < 1:
        raise ValueError("trials >= 1")
    rng = np.random.default_rng(seed)
    violations = []
    for lo in range(0, trials, _LEMMA_BLOCK):
        violations += _lemma_block(rng, lo, min(trials, lo + _LEMMA_BLOCK))
    counts = {lemma: trials for lemma in ("subset", "domination", "product", "isometry")}
    reports = []
    for lemma, checked in counts.items():
        mine = [v for v in violations if v["lemma"] == lemma]
        reports.append({"lemma": lemma, "trials": checked, "violations": len(mine),
                        "worst_case": mine[0] if mine else None})
    return {"lemma_checks": counts, "lemma_reports": reports, "lemma_violations": violations}


def _lemma_block(rng: np.random.Generator, first: int, stop: int) -> list:
    """The violations of trials first..stop-1, drawn from rng in order."""
    b = stop - first
    bits = _TARGET_BITS[:_POINTS]
    k = np.empty(b, dtype=np.intp)
    pts = np.zeros((b, _POINTS, 2))
    extra = np.zeros((b, _POINTS, 1))
    k1, k2 = np.empty(b, dtype=np.intp), np.empty(b, dtype=np.intp)
    p1, p2 = np.zeros((b, _FACTOR, 2)), np.zeros((b, _FACTOR, 2))
    r_u, t, r_u2 = np.empty(b), np.empty(b), np.empty(b)
    subs = []
    # the bit of each column's target in the whole space, the subset and the
    # relabeled space (target a' is point perm[a']); a column that is no
    # subset target weighs 0, and the padding's distances are inf anyway
    target = np.zeros((b, _POINTS, 3), dtype=np.int64)
    target[:, :, 0] = bits
    for i in range(b):
        k[i] = n = int(rng.integers(3, 11))
        pts[i, :n] = rng.random((n, 2))
        r_u[i] = rng.random()
        sub = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist())
        subs.append(sub)
        target[i, sub, 1] = bits[:len(sub)]
        extra[i, :n] = rng.random((n, 1))
        a, c = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        k1[i], k2[i] = a, c
        p1[i, :a] = rng.random((a, 2))
        p2[i, :c] = rng.random((c, 2))
        t[i] = rng.random() * 0.8 + 0.1
        r_u2[i] = rng.random()
        target[i, rng.permutation(n), 2] = bits[:n]
    pts *= 2.0
    extra *= 2.0

    dist = _euclidean(pts, k)
    d1, d2 = _euclidean(p1, k1), _euclidean(p2, k2)
    u = r_u * 1.2 * _diameter(dist) + 1e-6
    u2 = r_u2 * 1.2 * (_diameter(d1) + _diameter(d2)) + 1e-6
    # the relabeled space's centers are the points in another order, so they
    # give the same set of masks
    masks = (dist < u[:, None, None]) @ target
    full_masks, sub_masks, perm_masks = masks.transpose(2, 0, 1).tolist()
    dom_masks = ((dist + _euclidean(extra, k) < u[:, None, None]) @ bits).tolist()
    f1_masks = ((d1 < (t * u2)[:, None, None]) @ bits[:_FACTOR]).tolist()
    f2_masks = ((d2 < ((1 - t) * u2)[:, None, None]) @ bits[:_FACTOR]).tolist()
    # member (a, b) of a product is bit a * k2 + b; padded members weigh 0
    cells = _FACTOR * _FACTOR
    slot = np.arange(_FACTOR)
    weight = np.where((slot[None, :, None] < k1[:, None, None])
                      & (slot[None, None, :] < k2[:, None, None]),
                      1 << (slot[None, :, None] * k2[:, None, None] + slot[None, None, :]), 0)
    prod_close = (d1[:, :, None, :, None] + d2[:, None, :, None, :]
                  < u2[:, None, None, None, None]).reshape(b, cells, cells)
    prod_masks = (prod_close @ weight.reshape(b, cells, 1))[:, :, 0].tolist()

    violations = []
    for i in range(b):
        trial, n, ui = first + i, int(k[i]), float(u[i])
        n_full = _min_cover(full_masks[i][:n], n)

        # subset monotonicity, ambient nets
        sub = subs[i]
        n_sub = _min_cover(sub_masks[i][:n], len(sub))
        if n_sub > n_full:
            violations.append(
                {"lemma": "subset", "trial": trial, "u": ui,
                 "points": pts[i, :n].tolist(), "subset": sub,
                 "n_sub": n_sub, "n_full": n_full}
            )

        # metric domination: d' = d + extra Euclidean block >= d
        n_dp = _min_cover(dom_masks[i][:n], n)
        if n_full > n_dp:
            violations.append(
                {"lemma": "domination", "trial": trial, "u": ui,
                 "points": pts[i, :n].tolist(), "n_d": n_full, "n_dprime": n_dp}
            )

        # product bound on two small factors
        a, c = int(k1[i]), int(k2[i])
        n_prod = _min_cover(prod_masks[i], a * c)
        bound = _min_cover(f1_masks[i][:a], a) * _min_cover(f2_masks[i][:c], c)
        if n_prod > bound:
            violations.append(
                {"lemma": "product", "trial": trial, "u": float(u2[i]), "t": float(t[i]),
                 "n_product": n_prod, "bound": bound,
                 "p1": p1[i, :a].tolist(), "p2": p2[i, :c].tolist()}
            )

        # isometry invariance under relabeling
        n_perm = _min_cover(perm_masks[i][:n], n)
        if n_perm != n_full:
            violations.append(
                {"lemma": "isometry", "trial": trial, "u": ui,
                 "n_original": n_full, "n_relabeled": n_perm}
            )
    return violations


# ---------------------------------------------------------------------------
# Shatter coefficients
# ---------------------------------------------------------------------------

def shatter_coefficient(cls: BVectorClass, points: Sequence[float]) -> int:
    """Exact count of the distinct subsets of `points` cut out by the class:
    on distinct points only their order matters, so this is the number of
    BVectorClass.cut_masks.  Half-lines and indicators cut exactly the
    prefixes of the sorted points, the sets of B(1) = INDICATORS.
    """
    pts = [float(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    if len(pts) > 20:
        raise ValueError("instance too large: at most 20 points")
    return len(cls.cut_masks(len(pts)))


# ---------------------------------------------------------------------------
# Stochastic boundedness of random covering numbers
# ---------------------------------------------------------------------------

def _quadrant_distances(counts: np.ndarray, n: int) -> np.ndarray:
    """Empirical L1 distances between the quadrants Q(a, k) = {i <= p_a,
    X_i <= w_k} of the design points (i/n, X_i), for ascending p and w, from
    counts[a, k] = #Q(a, k): the pair of members a * K + k and a' * K + k'
    differs on #Q(a, k) + #Q(a', k') - 2 #Q(min(a, a'), min(k, k')) points.
    The counts are integers, so the one rounding is the division by n."""
    rows, cols = counts.shape
    a, k = np.arange(rows), np.arange(cols)
    meet = counts[np.minimum.outer(a, a)[:, None, :, None],
                  np.minimum.outer(k, k)[None, :, None, :]].reshape(rows * cols, -1)
    c = counts.ravel()
    return (c[:, None] + c[None, :] - 2 * meet) / n


# members per factor of the fixed fine net: _FINE_NET indicators times
# _FINE_NET half-lines at the model's quantiles
_FINE_NET = 12


def random_covering_boundedness(
    tau: float,
    n_list: Sequence[int],
    seeds: Sequence[int],
    model: NuModel,
) -> dict:
    """Greedy covering numbers of a fixed fine net of the uniformly bounded
    product class F = indicators x half-lines (the Kiefer process class)
    under the random empirical L1 metric, trial by trial, against the
    factorized bound N(tau/2, H, d1_lambdan) * N(tau/2, G, d1_nun).  Returns
    the covering report's "covering_trials", one row per (n, seed) whose
    "ok" says the bound held, and "covering_max_observed".

    Every member is a quadrant of the design points (_quadrant_distances):
    the indicator (0, t] keeps the points i <= p = grid_count(n), the
    half-line (-inf, w] those with X_i <= w, and their product both, so
    the three distance matrices come from one table of integer counts."""
    h_net = [indicator((i + 1) / _FINE_NET) for i in range(_FINE_NET)]
    probs = [(i + 1) / (_FINE_NET + 1) for i in range(_FINE_NET)]
    ws = np.array([float(model.ppf(p)) for p in probs])

    trials = []
    for n in n_list:
        p = np.array([h.grid_count(n) for h in h_net])
        nh = len(greedy_net_indices(_quadrant_distances(p[:, None], n), tau / 2.0))
        for seed in seeds:
            xs = draw_sample(model, n, seed).xs()
            below = np.zeros((len(ws), n + 1), dtype=np.int64)  # [k, p] = #{i <= p : X_i <= w_k}
            np.cumsum(xs <= ws[:, None], axis=1, out=below[:, 1:])
            observed = len(greedy_net_indices(_quadrant_distances(below[:, p].T, n), tau))
            ng = len(greedy_net_indices(_quadrant_distances(below[None, :, n], n), tau / 2.0))
            trials.append({"n": n, "seed": seed, "observed": observed, "bound_h": nh,
                           "bound_g": ng, "bound": nh * ng, "ok": observed <= nh * ng})
    return {"covering_max_observed": max((t["observed"] for t in trials), default=0),
            "covering_trials": trials}
