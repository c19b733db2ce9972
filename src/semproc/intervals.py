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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

Number = Union[int, float, Fraction]


def _exact_key(x: Number) -> Number:
    """x as a plain int, float or Fraction.  Comparisons among these types are
    exact, so endpoints sort and merge in this form with the order of their
    Fractions; other number types (numpy floats among them) are narrowed here
    first, exactly."""
    if type(x) in (float, int, Fraction):
        return x
    return float(x) if isinstance(x, float) else Fraction(x)


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint half-open intervals (a, b] inside [0, 1].

    ``bounds`` holds the endpoints as Fraction pairs, and Fractions are what
    bounds, lebesgue() (= lambda_exact()), lambda_n(), intersect() and
    symdiff_measure() give back.  Construction also puts the endpoints over
    one common denominator D (a power of two when they came from floats):
    the measure, grid_count(), grid_indices() and riemann_gap() are integer
    arithmetic on those numerators, and lebesgue() turns the integer measure
    into a Fraction on first use."""

    bounds: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        ratios = [x.as_integer_ratio() for pair in self.bounds for x in pair]
        den = math.lcm(*[q for _, q in ratios])
        nums = tuple([p * (den // q) for p, q in ratios])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_measure", sum(nums[1::2]) - sum(nums[::2]))

    @cached_property
    def _lebesgue(self) -> Fraction:
        return Fraction(self._measure, self._den)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Number, Number]]) -> "IntervalUnion":
        """Normalize: drop empty intervals, sort, merge overlaps, then convert
        the merged endpoints to Fractions."""
        raw = []
        for a, b in pairs:
            ka, kb = _exact_key(a), _exact_key(b)
            if not (0 <= ka and kb <= 1):  # also catches a NaN endpoint
                raise ValueError(f"interval ({a}, {b}] not inside [0, 1]")
            if ka < kb:  # (a, b] with a >= b is empty; degenerate vectors drop out here
                raw.append((ka, kb))
        raw.sort()
        ends: list[Number] = []  # merged intervals, flattened
        for a, b in raw:
            if ends and a <= ends[-1]:
                ends[-1] = max(ends[-1], b)
            else:
                ends += (a, b)
        fr = [Fraction(x) for x in ends]
        return cls(tuple(zip(fr[::2], fr[1::2])))

    def lebesgue(self) -> Fraction:
        """Exact Lebesgue measure."""
        return self._lebesgue

    lambda_exact = lebesgue

    def breakpoints(self) -> tuple[float, ...]:  # where the indicator jumps
        return tuple(float(x) for pair in self.bounds for x in pair)

    def grid_count(self, n: int) -> int:
        """Exact card(self n {1/n, ..., n/n}): the sum over the intervals of
        floor(n b) - floor(n a), in integers."""
        if n <= 0:
            raise ValueError("n must be a positive integer")
        d = self._den
        fl = [n * x // d for x in self._nums]
        return sum(fl[1::2]) - sum(fl[::2])

    def grid_indices(self, n: int) -> list[int]:
        """Indices i in {1..n} with i/n in the set, ascending."""
        d = self._den
        fl = [n * x // d for x in self._nums]
        return [i for lo, hi in zip(fl[::2], fl[1::2]) for i in range(lo + 1, hi + 1)]

    def lambda_n(self, n: int) -> Fraction:
        """Exact value of the discrete uniform measure of the set."""
        return Fraction(self.grid_count(n), n)

    def riemann_gap(self, n: int) -> float:
        """|lambda_n - lambda| = |count D - M n| / (n D) for the measure M / D,
        in integers, rounded once by the division."""
        d = self._den
        return abs(self.grid_count(n) * d - self._measure * n) / (n * d)

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
