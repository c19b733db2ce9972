"""Reference evaluations of class members and measures for the tests.

semproc reads members through their protocol (grid_values, lambda_exact,
lambda_n); these are the independent forms the tests compare against:
pointwise evaluation from the exact representation (with its own membership
test for interval unions), the values at the grid i/n with a set's
membership decided on the Fraction i/n (exact_grid_values), a certified
sup distance between Holder members, the cusp Holder member that
function_classes keeps only as arrays (CuspMember, with its own lambda) and
the members of a class's array draw (random_members), the exact rational
Riemann gap of an interval union, the one-member float gap of any other
member, the constant
q as a product pair, scalar evaluators of lambda_n, lambda, the sequential
empirical measure P_n and the B-empirical measure nu_{n,B} that sum term by
term from the definitions, the one-shot Z matrix that semproc.fclt builds
from row blocks of the draws, and the per-q Z values that its one kernel
replaced.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from semproc.function_classes import BoundedPolynomial, HolderClass, indicator
from semproc.intervals import IntervalUnion
from semproc.measures import NuModel, Sample
from semproc.piecewise import PiecewiseLinear
from semproc.quadrature import DEFAULT_TOL, integrate

from quad_oracle import evaluator


def contains(union: IntervalUnion, x) -> bool:
    """Whether x lies in the union of half-open intervals (a, b], compared
    exactly against the Fraction end points."""
    fx = Fraction(x)
    return any(a < fx <= b for a, b in union.bounds)


@lru_cache(maxsize=256)
def _set_on_grid(union: IntervalUnion, n: int) -> tuple:
    return tuple(float(contains(union, Fraction(i, n))) for i in range(1, n + 1))


def exact_grid_values(h, n: int) -> np.ndarray:
    """h at 1/n, ..., n/n: for a set member, 1.0 where the Fraction i/n lies
    in it, point by point; any other member evaluated at the floats i / n."""
    if isinstance(h, IntervalUnion):
        return np.array(_set_on_grid(h, n))
    return np.asarray(h(np.arange(1, n + 1) / n), dtype=float)


def holder_sup_distance(h1, h2, grid_size: int = 4001) -> float:
    """Certified upper bound on sup |h1 - h2|; exact when both are pl (the
    difference is piecewise linear, so its extremes sit at the merged knots).
    Otherwise the grid maximum plus each member's largest change over half a
    grid step: C half^beta for a cusp member, the steepest slope times half
    for a piecewise-linear one."""
    if isinstance(h1, PiecewiseLinear) and isinstance(h2, PiecewiseLinear):
        k = np.union1d(np.asarray(h1.knots), np.asarray(h2.knots))
        return float(np.max(np.abs(h1(k) - h2(k))))
    xs = np.linspace(0.0, 1.0, grid_size)
    est = float(np.max(np.abs(h1(xs) - h2(xs))))
    half = 0.5 / (grid_size - 1)
    slack = 0.0
    for h in (h1, h2):
        if isinstance(h, PiecewiseLinear):
            slack += float(np.max(np.abs(np.diff(h.values) / np.diff(h.knots)))) * half
        else:
            slack += h.C * half ** h.beta
    return est + slack


@dataclass(frozen=True)
class CuspMember:
    """A member of H(T, C, beta), the cusp mixture

        h(x) = a + sum_k c_k |x - x_k|^beta   with sum |c_k| <= C, |h(0)| <= T,

    exactly Holder by subadditivity of t -> t^beta: one row of
    HolderClass.random_cusps as an object, the scalar reference of
    function_classes.cusp_riemann_gap_rows.  A value adds the cusp terms to
    a in order, lambda_n is the mean of the values at the floats i / n, and
    lambda is the per-cusp closed form in scalar Python floats."""

    T: float
    C: float
    beta: float
    a: float = 0.0
    coeffs: tuple = ()
    centers: tuple = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.a, dtype=float)
        for c, x0 in zip(self.coeffs, self.centers):
            out += c * np.abs(x - x0) ** self.beta
        return out

    def lambda_exact(self) -> float:
        """a + sum_k c_k int_0^1 |x - x_k|^beta dx, each integral
        (x_k^(beta+1) + (1 - x_k)^(beta+1)) / (beta + 1)."""
        p = self.beta + 1
        total = self.a
        for c, x0 in zip(self.coeffs, self.centers):
            total += c * (x0 ** p + (1 - x0) ** p) / p
        return total

    def lambda_n(self, n: int) -> float:
        return float(np.mean(self(np.arange(1, n + 1) / n)))


def cusp_members(cls: HolderClass, arrays) -> list:
    """The CuspMembers of cls given as arrays (a, coeffs, centers, cusps),
    laid out as HolderClass.random_cusps returns them."""
    a, coeffs, centers, cusps = (x.tolist() for x in arrays)
    return [CuspMember(cls.T, cls.C, cls.beta, a=a_i, coeffs=tuple(c[:k]), centers=tuple(x[:k]))
            for a_i, c, x, k in zip(a, coeffs, centers, cusps)]


def random_members(cls, rng: np.random.Generator, count: int) -> list:
    """count random members of an h class from its array draw: CuspMembers
    from HolderClass.random_cusps, set members cls.member(row) from the rows
    of BVectorClass.random_breakpoints."""
    if isinstance(cls, HolderClass):
        return cusp_members(cls, cls.random_cusps(rng, count))
    return [cls.member(row) for row in cls.random_breakpoints(rng, count).tolist()]


def observed_riemann_gap_exact(member: IntervalUnion, n: int) -> Fraction:
    """Exact rational gap for interval unions (used by the counterexample)."""
    return abs(member.lambda_n(n) - member.lebesgue())


def scalar_riemann_gap(member, n: int) -> float:
    """|lambda_n - lambda| of a member that is not a set, one member at a time:
    the float lambda_n of a Holder member minus lambda_exact as an exact
    Fraction, rounded once."""
    return float(abs(member.lambda_n(n) - Fraction(member.lambda_exact())))


def eval_member(member, point: float) -> float:
    """Pointwise evaluation with the conventions fixed by the class
    representations (exact right-closed intervals, pl interpolation)."""
    if isinstance(member, IntervalUnion):
        return 1.0 if contains(member, point) else 0.0
    return float(member(point))


def make_constant_q(c: float) -> tuple:
    """q identically c, realized as the product 1_(0,1] * c."""
    return indicator(1.0), BoundedPolynomial((c,))


def _ordered_sum(terms: Iterable[float], compensated: bool = False) -> float:
    """Left-to-right accumulation; optional Kahan compensation."""
    if not compensated:
        acc = 0.0
        for t in terms:
            acc += t
        return acc
    acc = 0.0
    carry = 0.0
    for t in terms:
        y = t - carry
        s = acc + y
        carry = (s - acc) - y
        acc = s
    return acc


def eval_lambda_n(h: Callable[[float], float], n: int, compensated: bool = False) -> float:
    """Exact (1/n) sum h(i/n), summed left to right."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    return _ordered_sum((float(h(i / n)) for i in range(1, n + 1)), compensated) / n


def eval_lambda(
    h: Callable[[float], float],
    tol: float = DEFAULT_TOL,
    breakpoints: Optional[Sequence[float]] = None,
) -> float:
    """lambda(h) on [0,1] by adaptive quadrature (see quadrature module)."""
    return integrate(lambda x: float(h(x)), 0.0, 1.0, tol=tol, breakpoints=breakpoints)


def eval_semp(q: Callable[[float, float], float], sample: Sample,
              compensated: bool = False) -> float:
    """P_n(q) = (1/n) sum q(i/n, X_i), the sequential empirical measure."""
    n = sample.n
    terms = (float(q(i / n, x)) for i, x in zip(range(1, n + 1), sample.values))
    return _ordered_sum(terms, compensated) / n


@dataclass(frozen=True)
class BEmpiricalValue:
    value: float
    k: int
    empty_intersection: bool


def eval_b_empirical(
    B: IntervalUnion,
    W_or_g: Union[IntervalUnion, Callable[[np.ndarray], np.ndarray]],
    sample: Sample,
) -> BEmpiricalValue:
    """nu_{n,B}(g): average of g(X_i) over grid indices with i/n in B.

    Returns 0 with the empty-intersection flag set when B misses the grid,
    matching the defining convention of the B-empirical measure.
    """
    idx = np.flatnonzero(exact_grid_values(B, sample.n))
    if not len(idx):
        return BEmpiricalValue(0.0, 0, True)
    vals = np.asarray(evaluator(W_or_g)(sample.xs()[idx]), dtype=float)
    return BEmpiricalValue(float(vals.mean()), len(idx), False)


def per_q_Z_values(q_list: Sequence[tuple], n: int, R: int, rng: np.random.Generator,
                   model: NuModel) -> np.ndarray:
    """Z_n(q) over the rows of one (R, n) draw matrix of rng, one q at a
    time: the column of q = (h, g) is the product g(draws) @ h(i/n) / n,
    centred by lambda_n(h nu(g)) and scaled by sqrt(n).  The per-q form that
    fclt.process_deviations replaced, kept as its independent oracle."""
    draws = model.draw(rng, (R, n))
    cols = []
    for h, g in q_list:
        hv = exact_grid_values(h, n)
        center = float(np.mean(hv * g.mean(model)))
        pn = np.asarray(g(draws), dtype=float) @ hv / n
        cols.append(math.sqrt(n) * (pn - center))
    return np.stack(cols, axis=1)


def one_shot_Z(h_list: Sequence, g_list: Sequence, n: int, R: int,
               rng: np.random.Generator, model: NuModel, by_h: bool) -> np.ndarray:
    """sqrt(n) fclt.process_deviations over one (R, n) draw matrix of rng,
    which semproc draws and contracts in row blocks: column a * kg + b holds
    Z_n(h_a g_b), entry by entry from the products g_b(draws) @ h_a(i/n) /
    n, one GEMV per h_a with by_h and one GEMM per g_b without, minus
    lambda_n(h_a) nu(g_b)."""
    draws = model.draw(rng, (R, n))
    h_vals = np.stack([exact_grid_values(h, n) for h in h_list])
    pn = []  # pn[b][:, a] = P_n(h_a g_b)
    for g in g_list:
        gv = np.asarray(g(draws), dtype=float)
        pn.append((np.stack([gv @ hv for hv in h_vals], axis=1) if by_h else gv @ h_vals.T) / n)
    cols = [pn[b][:, a] - h_vals[a].mean() * g.mean(model)
            for a in range(len(h_list)) for b, g in enumerate(g_list)]
    return math.sqrt(n) * np.stack(cols, axis=1)
