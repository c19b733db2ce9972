"""Exact half-open interval unions on [0, 1].

Everything that touches the grid {i/n : i = 1..n} goes through this module so
that membership tests and counting are exact integer arithmetic, never float
comparisons.  Endpoints are stored as exact rationals (``fractions.Fraction``);
a float endpoint is converted through ``Fraction(float)``, which is lossless.

Intervals follow the half-open convention (a, b]: closed on the right, open on
the left.  The right-closed choice matches the grid-counting identity

    card((a, b] n {1/n, ..., n/n}) = floor(n*b) - floor(n*a),

which is used throughout for exact lambda_n evaluation.  A union is also a set
member of function_classes' h-member protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Number = Union[int, float, Fraction]


def _to_fraction(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x)  # exact binary expansion of the float


def _floor_times(n: int, x: Fraction) -> int:
    """floor(n * x) in exact integer arithmetic."""
    return (n * x.numerator) // x.denominator


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint half-open intervals (a, b] inside [0, 1]."""

    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):  # the Lebesgue measure, computed once
        object.__setattr__(self, "_lebesgue",
                           sum((b - a for a, b in self.bounds), Fraction(0)))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Number, Number]]) -> "IntervalUnion":
        """Normalize: exact endpoints, drop empty intervals, sort, merge overlaps."""
        raw = []
        for a, b in pairs:
            fa, fb = _to_fraction(a), _to_fraction(b)
            if fa < 0 or fb > 1:
                raise ValueError(f"interval ({a}, {b}] not inside [0, 1]")
            if fa < fb:  # (a, b] with a >= b is empty; degenerate vectors drop out here
                raw.append((fa, fb))
        raw.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for a, b in raw:
            if merged and a <= merged[-1][1]:
                la, lb = merged[-1]
                merged[-1] = (la, max(lb, b))
            else:
                merged.append((a, b))
        return cls(tuple(merged))

    @classmethod
    def full(cls) -> "IntervalUnion":
        return cls(((Fraction(0), Fraction(1)),))

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    def contains(self, x: Number) -> bool:
        fx = _to_fraction(x)
        for a, b in self.bounds:
            if a < fx <= b:
                return True
        return False

    def lebesgue(self) -> Fraction:
        """Exact Lebesgue measure."""
        return self._lebesgue

    lambda_exact = lebesgue

    def breakpoints(self) -> tuple[float, ...]:  # where the indicator jumps
        return tuple(float(x) for pair in self.bounds for x in pair)

    def grid_count(self, n: int) -> int:
        """Exact card(self n {1/n, ..., n/n})."""
        if n <= 0:
            raise ValueError("n must be a positive integer")
        return sum(_floor_times(n, b) - _floor_times(n, a) for a, b in self.bounds)

    def grid_indices(self, n: int) -> list[int]:
        """Indices i in {1..n} with i/n in the set, ascending."""
        out: list[int] = []
        for a, b in self.bounds:
            lo = _floor_times(n, a) + 1
            hi = _floor_times(n, b)
            out.extend(range(lo, hi + 1))
        return out

    def lambda_n(self, n: int) -> Fraction:
        """Exact value of the discrete uniform measure of the set."""
        return Fraction(self.grid_count(n), n)

    def intersect(self, other: "IntervalUnion") -> "IntervalUnion":
        pieces = []
        for a, b in self.bounds:
            for c, d in other.bounds:
                lo, hi = max(a, c), min(b, d)
                if lo < hi:
                    pieces.append((lo, hi))
        return IntervalUnion.from_pairs(pieces)

    def symdiff_measure(self, other: "IntervalUnion") -> Fraction:
        """Exact Lebesgue measure of the symmetric difference."""
        inter = self.intersect(other).lebesgue()
        return self.lebesgue() + other.lebesgue() - 2 * inter

    def indicator(self, xs) -> "object":
        """Vectorized {0,1} indicator for a numpy array of floats (float semantics)."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        out = np.zeros(xs.shape, dtype=float)
        for a, b in self.bounds:
            out += ((xs > float(a)) & (xs <= float(b))).astype(float)
        return np.minimum(out, 1.0)

    __call__ = indicator

    @property
    def n_intervals(self) -> int:
        return len(self.bounds)
