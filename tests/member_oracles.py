"""Reference evaluations of class members for the tests.

semproc reads members through their protocol (h(x), lambda_exact, lambda_n);
these are the independent forms the tests compare against: pointwise
evaluation from the exact representation, a certified sup distance between
Holder members, the exact rational Riemann gap of an interval union, and the
constant q built from the product hooks.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from semproc.fclt import make_product_q
from semproc.function_classes import BoundedPolynomial, IndicatorMember, _exact_form
from semproc.intervals import IntervalUnion
from semproc.measures import QFunction


def holder_sup_distance(h1, h2, grid_size: int = 4001) -> float:
    """Certified upper bound on sup |h1 - h2|; exact when both are pl (the
    difference is piecewise linear, so its extremes sit at the merged knots)."""
    (k1, p1), (k2, p2) = _exact_form(h1), _exact_form(h2)
    if k1 == k2 == "pl":
        k = np.union1d(np.asarray(p1.knots), np.asarray(p2.knots))
        return float(np.max(np.abs(p1(k) - p2(k))))
    xs = np.linspace(0.0, 1.0, grid_size)
    est = float(np.max(np.abs(h1(xs) - h2(xs))))
    half = 0.5 / (grid_size - 1)
    slack = 0.0
    for h in (h1, h2):
        slack += h.C * half ** h.beta
    return est + slack


def observed_riemann_gap_exact(member: IntervalUnion, n: int) -> Fraction:
    """Exact rational gap for interval unions (used by the counterexample)."""
    return abs(member.lambda_n(n) - member.lebesgue())


def eval_member(member, point: float) -> float:
    """Pointwise evaluation with the conventions fixed by the class
    representations (exact right-closed intervals, pl interpolation)."""
    kind, form = _exact_form(member)
    if kind == "set":
        return 1.0 if form.contains(point) else 0.0
    return float(member(point))


def make_constant_q(c: float) -> QFunction:
    """q identically c, realized as the product 1_(0,1] * c so every product
    hook (kernel factorization included) is available."""
    return replace(make_product_q(IndicatorMember(1.0), BoundedPolynomial((c,))),
                   label=f"const[{c}]", sup_bound=abs(c))
