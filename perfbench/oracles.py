"""The benchmark's own evaluations of the quantities it checks.

Each function here computes a result from its definition, without calling the
semproc code path that produced the value under test, so a fault in that path
shows as a mismatch.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import special


def model_cdf(model: str):
    """The distribution function F of a semproc model identifier."""
    if model == "uniform01":
        return lambda x: np.clip(x, 0.0, 1.0)
    if model == "standard-normal":
        return special.ndtr
    if model.startswith("exponential(") and model.endswith(")"):
        rate = float(model[len("exponential("):-1])
        return lambda x: np.where(x > 0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)
    raise ValueError(f"no distribution function for model {model!r}")


def _canonical_columns(xs: np.ndarray, cdf):
    """Time-ordered ranks and the half-line columns (cut k, nu(W)).

    A half-line (-inf, w] with X_(k) <= w < X_(k+1) holds the k smallest
    points and has nu-mass in [F(X_(k)), F(X_(k+1))); a deviation that is
    affine in that mass peaks at one of the two ends, so the columns are
    (k, F(X_(k))) and (k, F(X_(k+1))) for k = 0..n, with F(X_(0)) = 0 and
    F(X_(n+1)) = 1.
    """
    n = len(xs)
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    f_sorted = np.asarray(cdf(xs[order]), dtype=float)
    cuts = np.concatenate((np.arange(n + 1), np.arange(n + 1)))
    nus = np.concatenate(([0.0], f_sorted, f_sorted, [1.0]))
    return ranks, cuts, nus


def prefix_sup(xs: np.ndarray, cdf) -> float:
    """sup over initial grid intervals {1..p} and half-lines W of
    |P_n(B x W) - lambda_n(B) nu(W)|, from prefix counts at every column:
    (1/n) max_{p, column} |#{i <= p : X_i <= w} - p nu(W)|."""
    n = len(xs)
    ranks, cuts, nus = _canonical_columns(xs, cdf)
    inside = ranks[:, None] <= cuts[None, :]
    counts = np.cumsum(inside, axis=0)                    # row p-1: first p points
    p = np.arange(1, n + 1, dtype=float)[:, None]
    return float(np.max(np.abs(counts - p * nus[None, :]))) / n


def enumerated_sup(xs: np.ndarray, cdf, j: int, parity: str) -> float:
    """The same supremum over B(2j+1) (odd) or B(2j) (even) by listing every
    grid subset the class can cut out: at most j runs of consecutive grid
    indices, plus one more run when the parity is odd and the run starts at
    index 1 (the anchored initial interval).  Exponential in n; n <= 14."""
    n = len(xs)
    if n > 14:
        raise ValueError("subset enumeration is limited to n <= 14")
    ranks, cuts, nus = _canonical_columns(xs, cdf)
    terms = (ranks[:, None] <= cuts[None, :]) - nus[None, :]   # (n, columns)
    chosen = []
    for mask in range(1 << n):
        runs = bin(mask & ~(mask << 1)).count("1")
        budget = j + (1 if parity == "odd" and mask & 1 else 0)
        if runs <= budget:
            chosen.append([(mask >> i) & 1 for i in range(n)])
    sums = np.asarray(chosen, dtype=float) @ terms
    return float(np.max(np.abs(sums))) / n


def row_stats(values) -> dict:
    """The per-n row statistics a semproc ulln report carries."""
    v = np.asarray(values, dtype=float)
    return {"mean": float(v.mean()), "median": float(np.median(v)),
            "q95": float(np.quantile(v, 0.95)), "max": float(v.max())}


def kiefer_kernel(cells) -> np.ndarray:
    """Cov of the Kiefer process at cells (s, x):
    min(s1, s2) (min(x1, x2) - x1 x2)."""
    s = np.array([c[0] for c in cells], dtype=float)
    x = np.array([c[1] for c in cells], dtype=float)
    return np.minimum.outer(s, s) * (np.minimum.outer(x, x) - np.outer(x, x))


def witness_gap(n: int) -> float:
    """|lambda_n(B_n) - lambda(B_n)| = 1 - 2^-n for the B(infinity) witness
    that misses the grid while filling Lebesgue measure 1 - 2^-n."""
    return float(1 - Fraction(1, 2**n))
