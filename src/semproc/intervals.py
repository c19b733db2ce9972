"""Exact half-open interval unions on [0, 1].

Everything that touches the grid {i/n : i = 1..n} goes through this module so
that membership tests and counting are exact integer arithmetic, never float
comparisons: a union meets i/n only through the integer floors floor(n x) of
its end points x, which both grid_count() and the 0/1 grid values on_grid()
read.  A union's state is its endpoints over one common denominator D,
as integer numerators; a float endpoint enters through as_integer_ratio(),
which is lossless, and D is a power of two when every endpoint is a float.
The endpoints as exact rationals (``fractions.Fraction``) are built from that
state on first read of ``bounds``.

Intervals follow the half-open convention (a, b]: closed on the right, open on
the left.  The right-closed choice matches the grid-counting identity

    card((a, b] n {1/n, ..., n/n}) = floor(n*b) - floor(n*a),

which is used throughout for exact lambda_n evaluation.  A union is also a set
member of function_classes' h-member protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Union

import numpy as np

Number = Union[int, float, Fraction]


def _exact_key(x: Number) -> Number:
    """x as a plain int, float or Fraction.  Comparisons among these types are
    exact, so endpoints sort and merge in this form with the order of their
    Fractions; other number types (numpy floats among them) are narrowed here
    first, exactly."""
    if type(x) in (float, int, Fraction):
        return x
    return float(x) if isinstance(x, float) else Fraction(x)


@dataclass(frozen=True, init=False, repr=False)
class IntervalUnion:
    """A finite union of disjoint half-open intervals (a, b] inside [0, 1].

    The state is the flattened endpoints a1, b1, a2, b2, ... as integer
    numerators over D, the lcm of their reduced denominators, so two unions
    are equal (and hash alike) exactly when their endpoints are.  The
    measure, grid_count(), on_grid() and riemann_gap() are integer
    arithmetic on that state.  ``bounds``, the endpoints as Fraction pairs,
    and lebesgue() (= lambda_exact()) are built on first read; lambda_n(),
    intersection_measure() and symdiff_measure() give back Fractions too.
    The constructor drops empty pairs, sorts and merges the rest, and puts
    the merged endpoints over one denominator; an endpoint outside [0, 1]
    (or NaN) is a ValueError."""

    _den: int
    _nums: tuple[int, ...]
    _measure: int = field(compare=False)

    def __init__(self, pairs: Iterable[tuple[Number, Number]] = ()):
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
        ratios = [x.as_integer_ratio() for x in ends]
        den = math.lcm(*[q for _, q in ratios])
        nums = tuple([p * (den // q) for p, q in ratios])
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_measure", sum(nums[1::2]) - sum(nums[::2]))

    def __repr__(self) -> str:
        return f"IntervalUnion({self.bounds!r})"

    @cached_property
    def bounds(self) -> tuple[tuple[Fraction, Fraction], ...]:
        fr = [Fraction(p, self._den) for p in self._nums]
        return tuple(zip(fr[::2], fr[1::2]))

    @cached_property
    def _lebesgue(self) -> Fraction:
        return Fraction(self._measure, self._den)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Number, Number]]) -> "IntervalUnion":
        """The union of the pairs; the constructor under a name of its own."""
        return cls(pairs)

    def lebesgue(self) -> Fraction:
        """Exact Lebesgue measure."""
        return self._lebesgue

    lambda_exact = lebesgue

    def _floors(self, n: int) -> list[int]:
        """floor(n x) for every endpoint x, in integers: i/n lies in (a, b]
        exactly when floor(n a) < i <= floor(n b)."""
        if n <= 0:
            raise ValueError("n must be a positive integer")
        d = self._den
        return [n * x // d for x in self._nums]

    def grid_count(self, n: int) -> int:
        """Exact card(self n {1/n, ..., n/n}): the sum over the intervals of
        floor(n b) - floor(n a)."""
        fl = self._floors(n)
        return sum(fl[1::2]) - sum(fl[::2])

    def on_grid(self, n: int) -> np.ndarray:
        """The float64 0/1 values of the set's indicator at 1/n, ..., n/n."""
        out = np.zeros(n)
        fl = self._floors(n)
        for lo, hi in zip(fl[::2], fl[1::2]):
            out[lo:hi] = 1.0
        return out

    def lambda_n(self, n: int) -> Fraction:
        """Exact value of the discrete uniform measure of the set."""
        return Fraction(self.grid_count(n), n)

    def riemann_gap(self, n: int) -> float:
        """|lambda_n - lambda| = |count D - M n| / (n D) for the measure M / D,
        in integers, rounded once by the division."""
        d = self._den
        return abs(self.grid_count(n) * d - self._measure * n) / (n * d)

    def _common(self, other: "IntervalUnion") -> tuple[int, int, int, int]:
        """(M1, M2, I, D): the two measures and that of the intersection as
        numerators over D = lcm(D1, D2), I by a merge walk over the two
        endpoint lists, whose intervals are sorted and disjoint."""
        den = math.lcm(self._den, other._den)
        xs = [x * (den // self._den) for x in self._nums]
        ys = [y * (den // other._den) for y in other._nums]
        inter, i, j = 0, 0, 0
        while i < len(xs) and j < len(ys):
            inter += max(0, min(xs[i + 1], ys[j + 1]) - max(xs[i], ys[j]))
            # the interval that ends first meets nothing further in the other
            if xs[i + 1] <= ys[j + 1]:
                i += 2
            else:
                j += 2
        return (self._measure * (den // self._den), other._measure * (den // other._den),
                inter, den)

    def intersection_measure(self, other: "IntervalUnion") -> Fraction:
        """Exact Lebesgue measure of the intersection."""
        _, _, inter, den = self._common(other)
        return Fraction(inter, den)

    def symdiff_measure(self, other: "IntervalUnion") -> Fraction:
        """Exact Lebesgue measure of the symmetric difference."""
        m1, m2, inter, den = self._common(other)
        return Fraction(m1 + m2 - 2 * inter, den)
