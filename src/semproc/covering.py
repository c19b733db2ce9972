"""Covering numbers, shatter coefficients, random covering numbers.

Nets follow the strict-inequality convention: {m_1..m_k} is a u-net when every
point of the space is within distance strictly less than u of some m_i.  Exact
covering numbers (minimum net size) are a minimum set cover over target
bitmasks, found by iterative-deepening depth-first search: masks contained in
another mask are dropped, and each step branches only on the masks that cover
the lowest uncovered target (the column choice of Knuth's Algorithm X).  The
search is exponential in the worst case, so it is limited to small instances;
the greedy farthest-point-first net provides the general upper bound.

The subset monotonicity check uses ambient nets (net points may be taken from
the superset): with nets forced inside the subset the inequality
N(u, M', d) <= N(u, M, d) is false in general (a hub point of M can cover
several points of M' that cannot cover each other), and the ambient reading is
the one actually used when passing from a product class to its factor classes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .function_classes import BVectorClass, HalfLine, indicator
from .measures import NuModel, draw_sample, grid_points

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
    for u <= 0 or a non-finite distance, where the sweep would never end."""
    if not u > 0:
        raise ValueError(f"greedy net radius u must be > 0, got {u!r}")
    if not np.isfinite(dist).all():
        raise ValueError("greedy net distances must be finite")
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
    targets' columns when targets is given).  Equal masks are kept once, and
    a mask that is a subset of another mask is never needed in a minimum
    cover and is dropped.  Depths 1, 2, ... are then tried in turn by
    depth-first search; a step takes the lowest uncovered target and branches
    only on the masks that cover it, and a branch is cut when its remaining
    depth times the largest mask size cannot reach the uncovered count.
    Raises ValueError for more than MAX_EXACT_TARGETS targets or a target no
    center covers."""
    t = dist.shape[0] if targets is None else len(targets)
    if t == 0:
        return 0
    if t > MAX_EXACT_TARGETS:
        raise ValueError(f"exact covering limited to {MAX_EXACT_TARGETS} targets, got {t}")
    if centers is not None:
        dist = dist[np.asarray(centers, dtype=np.intp)]
    if targets is not None:
        dist = dist[:, np.asarray(targets, dtype=np.intp)]
    full = (1 << t) - 1
    masks = set(((dist < u) @ _TARGET_BITS[:t]).tolist())
    union = 0
    for m in masks:
        union |= m
    if union != full:
        raise ValueError("some target cannot be covered at this radius")
    kept: list[int] = []  # widest first: a mask meets its supersets before itself
    for m in sorted(masks, key=int.bit_count, reverse=True):
        for w in kept:
            if m & w == m:
                break
        else:
            kept.append(m)
    widest = kept[0].bit_count()
    by_target = [[m for m in kept if m >> i & 1] for i in range(t)]

    def covers(uncovered: int, depth: int) -> bool:
        if uncovered == 0:
            return True
        if uncovered.bit_count() > depth * widest:
            return False
        low = (uncovered & -uncovered).bit_length() - 1
        return any(covers(uncovered & ~m, depth - 1) for m in by_target[low])

    depth = -(-t // widest)
    while not covers(full, depth):
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# The four covering lemmas as randomized property checks
# ---------------------------------------------------------------------------

def _euclidean(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def product_distances(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The composite metric d1 + d2 on the product of two finite spaces:
    member (a, b) has flat index a * len(d2) + b."""
    k = d1.shape[0] * d2.shape[0]
    return (d1[:, None, :, None] + d2[None, :, None, :]).reshape(k, k)


def check_covering_lemmas(trials: int, seed: int) -> dict:
    """Randomized finite metric spaces (Euclidean point clouds, <= 10 points),
    exact covering numbers; checks subset monotonicity (ambient nets), metric
    domination, the product bound and isometry invariance.  Returns the
    covering report's lemma part: "lemma_checks", the trials per lemma;
    "lemma_reports", one {lemma, trials, violations, worst_case} record per
    lemma; and "lemma_violations", every violation in trial order.

    Each trial makes seven exact_covering_number calls: N(u, d) once, read by
    the subset, domination and isometry checks alike, then the subset, the
    dominating metric d' >= d, the product space and its two factors, and the
    relabeled space."""
    if trials < 1:
        raise ValueError("trials >= 1")
    rng = np.random.default_rng(seed)
    violations = []
    counts = {"subset": 0, "domination": 0, "product": 0, "isometry": 0}

    for trial in range(trials):
        k = int(rng.integers(3, 11))
        pts = rng.random((k, 2)) * 2.0
        dist = _euclidean(pts)
        diam = float(dist.max())
        u = float(rng.random() * 1.2 * diam + 1e-6)

        n_full = exact_covering_number(dist, u)

        # subset monotonicity, ambient nets
        sub_size = int(rng.integers(1, k + 1))
        sub = sorted(rng.choice(k, size=sub_size, replace=False).tolist())
        n_sub = exact_covering_number(dist, u, targets=sub)
        counts["subset"] += 1
        if n_sub > n_full:
            violations.append(
                {"lemma": "subset", "trial": trial, "u": u,
                 "points": pts.tolist(), "subset": sub,
                 "n_sub": n_sub, "n_full": n_full}
            )

        # metric domination: d' = d + extra Euclidean block >= d
        extra = rng.random((k, 1)) * 2.0
        dist_prime = dist + _euclidean(extra)
        n_dp = exact_covering_number(dist_prime, u)
        counts["domination"] += 1
        if n_full > n_dp:
            violations.append(
                {"lemma": "domination", "trial": trial, "u": u,
                 "points": pts.tolist(), "n_d": n_full, "n_dprime": n_dp}
            )

        # product bound on two small factors
        k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p1 = rng.random((k1, 2))
        p2 = rng.random((k2, 2))
        d1, d2 = _euclidean(p1), _euclidean(p2)
        dprod = product_distances(d1, d2)
        t = float(rng.random() * 0.8 + 0.1)
        u2 = float(rng.random() * 1.2 * (d1.max() + d2.max()) + 1e-6)
        n_prod = exact_covering_number(dprod, u2)
        bound = exact_covering_number(d1, t * u2) * exact_covering_number(d2, (1 - t) * u2)
        counts["product"] += 1
        if n_prod > bound:
            violations.append(
                {"lemma": "product", "trial": trial, "u": u2, "t": t,
                 "n_product": n_prod, "bound": bound,
                 "p1": p1.tolist(), "p2": p2.tolist()}
            )

        # isometry invariance under relabeling
        perm = rng.permutation(k)
        dist_perm = dist[perm][:, perm]
        n_perm = exact_covering_number(dist_perm, u)
        counts["isometry"] += 1
        if n_perm != n_full:
            violations.append(
                {"lemma": "isometry", "trial": trial, "u": u,
                 "n_original": n_full, "n_relabeled": n_perm}
            )

    reports = []
    for lemma, checked in counts.items():
        mine = [v for v in violations if v["lemma"] == lemma]
        reports.append({"lemma": lemma, "trials": checked, "violations": len(mine),
                        "worst_case": mine[0] if mine else None})
    return {"lemma_checks": counts, "lemma_reports": reports, "lemma_violations": violations}


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

def _l1_distances(vals: np.ndarray) -> np.ndarray:
    """Mean absolute difference between every pair of 0/1 rows.

    For 0/1 rows a and b, sum|a - b| = sum a + sum b - 2 a.b counts the
    positions where they differ.  Every term is an integer below 2^53, so the
    row sums and the Gram matrix V V^T are exact in float64 whatever the
    summation order (and the BLAS thread count), and the one rounding is the
    division by n, as in np.mean(np.abs(a - b)).  Raises ValueError on any
    entry that is not 0 or 1."""
    v = np.asarray(vals, dtype=float)
    if not ((v == 0.0) | (v == 1.0)).all():
        raise ValueError("_l1_distances takes rows of 0/1 values")
    s = v.sum(axis=1)
    return (s[:, None] + s[None, :] - 2.0 * (v @ v.T)) / v.shape[1]


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
    "ok" says the bound held, and "covering_max_observed"."""
    h_net = [indicator((i + 1) / _FINE_NET) for i in range(_FINE_NET)]
    probs = [(i + 1) / (_FINE_NET + 1) for i in range(_FINE_NET)]
    g_net = [HalfLine(float(model.ppf(p))) for p in probs]

    trials = []
    for n in n_list:
        s_grid = grid_points(n)
        h_vals = np.stack([h(s_grid) for h in h_net])      # (H, n)
        nh = len(greedy_net_indices(_l1_distances(h_vals), tau / 2.0))
        for seed in seeds:
            sample = draw_sample(model, n, seed)
            xs = sample.xs()
            g_vals = np.stack([g(xs) for g in g_net])      # (G, n)
            f_vals = (h_vals[:, None, :] * g_vals[None, :, :]).reshape(-1, n)
            observed = len(greedy_net_indices(_l1_distances(f_vals), tau))
            ng = len(greedy_net_indices(_l1_distances(g_vals), tau / 2.0))
            trials.append({"n": n, "seed": seed, "observed": observed, "bound_h": nh,
                           "bound_g": ng, "bound": nh * ng, "ok": observed <= nh * ng})
    return {"covering_max_observed": max((t["observed"] for t in trials), default=0),
            "covering_trials": trials}
