"""Piecewise-linear functions on [0, 1] with exact integral algebra.  A
PiecewiseLinear is also an h member of function_classes' protocol: the
Holder net members, the q-file holder-pl h and the identity h of the
Lindeberg check are all PiecewiseLinear."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import grid_points


@dataclass(frozen=True)
class PiecewiseLinear:
    """Linear interpolation through (knots, values); knots include 0 and 1."""

    knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.knots) != len(self.values) or len(self.knots) < 2:
            raise ValueError("need matching knots/values with at least two points")
        if self.knots[0] != 0.0 or self.knots[-1] != 1.0:
            raise ValueError("knots must span [0, 1]")
        if any(b <= a for a, b in zip(self.knots, self.knots[1:])):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, x):
        return np.interp(np.asarray(x, dtype=float), self.knots, self.values)

    def lambda_exact(self) -> float:
        """Exact integral over [0, 1] (trapezoid on the knot partition)."""
        k = np.asarray(self.knots)
        v = np.asarray(self.values)
        return float(np.sum(0.5 * (v[1:] + v[:-1]) * (k[1:] - k[:-1])))

    def lambda_n(self, n: int) -> float:
        return float(np.mean(self(grid_points(n))))


def merged_knots(p: PiecewiseLinear, q: PiecewiseLinear) -> np.ndarray:
    return np.union1d(np.asarray(p.knots), np.asarray(q.knots))


def simpson_cells(w: np.ndarray, ends: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Simpson's rule per cell, summed over the last axis: the sum of
    w/6 (f0 + 4 f_mid + f1) over cells of widths w, given an integrand's
    values at the knots (ends) and at the cell midpoints (mids); exact for
    an integrand quadratic on each cell."""
    return np.sum(w / 6.0 * (ends[..., :-1] + 4.0 * mids + ends[..., 1:]), axis=-1)


def diff_sq_integral(p: PiecewiseLinear, q: PiecewiseLinear) -> float:
    """Exact integral of (p - q)^2; the integrand is quadratic per merged cell,
    so Simpson's rule on each cell is exact."""
    k = merged_knots(p, q)
    mid = 0.5 * (k[1:] + k[:-1])
    return float(simpson_cells(k[1:] - k[:-1], (p(k) - q(k)) ** 2, (p(mid) - q(mid)) ** 2))


def prod_integral(p: PiecewiseLinear, q: PiecewiseLinear) -> float:
    """Exact integral of p*q (quadratic per merged cell)."""
    k = merged_knots(p, q)
    mid = 0.5 * (k[1:] + k[:-1])
    return float(simpson_cells(k[1:] - k[:-1], p(k) * q(k), p(mid) * q(mid)))
