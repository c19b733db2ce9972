"""The explicit function and set classes: Holder balls H(T, C, beta), the
initial-interval indicator family, the interval-union set classes B(2j+1) and
B(2j), the non-uniformly-Riemann-integrable counterexample family, parametric
G classes on the sample space, and products F = H * G.

Every class exposes three things, which is how an infinite class becomes
computable:

  * random member generation (seeded),
  * u-net construction with a provable coverage guarantee in a stated metric,
  * closed-form rate bounds where they exist.

Holder nets are built on a uniform grid: candidate value sequences are
enumerated on a step/2 value lattice, each sequence is replaced by its largest
Holder minorant on the grid (a McShane-type regularization, which restores
exact pairwise feasibility), the anchor value is clipped back into [-T, T] by
a vertical translation, and the piecewise-linear interpolant is kept.  A
convexity argument shows linear interpolation of pairwise-feasible grid data
is itself (C, beta)-Holder, so net members are exact class members; rounding
(u/4), regularization (u/4), anchor translation (u/4 slack absorbed) and
interpolation (u/2) add up to sup-distance at most u from any class member.

Only this module knows how an h member is stored.  An h member (HolderMember,
IndicatorMember, or a set member: BVectorMember or any IntervalUnion) is used
through h(x), lambda_exact() = lambda(h), lambda_n(n) and breakpoints(), the
points where h may jump; the lambdas are exact Fractions for set members, and
lambda_n is one for indicators.  A set member's Riemann gap is read in
integers, through IntervalUnion.riemann_gap; the gaps of cusp Holder members
are computed per class, all members of one beta together in row blocks of
grid values (observed_riemann_gap_rows), with the bits of the one-member float
expression.  The pair integrals
lambda((h1-h2)^2) and lambda(h1 h2) are closed forms when both members have
one exact form (the t of two indicators, two piecewise-linear Holder members,
two unions) and quadrature split at both breakpoints if not.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .intervals import IntervalUnion
from .measures import NuModel
from .piecewise import PiecewiseLinear, diff_sq_integral, prod_integral
from .quadrature import integrate

__all__ = [
    "NetTooLargeError",
    "HolderClass",
    "HolderMember",
    "IndicatorFamily",
    "IndicatorMember",
    "BVectorClass",
    "BVectorMember",
    "b_infinity_witness",
    "GClass",
    "HalfLine",
    "InitialInterval",
    "BoundedPolynomial",
    "ProductClass",
    "riemann_gap_bound",
    "observed_riemann_gap",
    "observed_riemann_gap_rows",
    "lambda_sq_distance",
    "lambda_prod",
    "lambda_sq_matrix",
]


class NetTooLargeError(RuntimeError):
    def __init__(self, estimate: int, cap: int):
        super().__init__(f"net would need about {estimate} members (cap {cap})")
        self.estimate = estimate
        self.cap = cap


# ---------------------------------------------------------------------------
# Holder classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderMember:
    """A function in H(T, C, beta), either a cusp mixture

        h(x) = a + sum_k c_k |x - x_k|^beta   with sum |c_k| <= C, |h(0)| <= T,

    (exactly Holder by subadditivity of t -> t^beta) or a piecewise-linear
    interpolant of pairwise-feasible grid values (net members)."""

    T: float
    C: float
    beta: float
    a: float = 0.0
    coeffs: tuple[float, ...] = ()
    centers: tuple[float, ...] = ()
    pl: Optional[PiecewiseLinear] = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.pl is not None:
            return self.pl(x)
        out = np.full(x.shape, self.a, dtype=float)
        for c, x0 in zip(self.coeffs, self.centers):
            out += c * np.abs(x - x0) ** self.beta
        return out

    def lambda_exact(self) -> float:
        """Exact integral over [0, 1]."""
        if self.pl is not None:
            return self.pl.integral()
        b = self.beta
        total = self.a
        for c, x0 in zip(self.coeffs, self.centers):
            total += c * (x0 ** (b + 1) + (1 - x0) ** (b + 1)) / (b + 1)
        return total

    def lambda_n(self, n: int) -> float:
        grid = np.arange(1, n + 1, dtype=float) / n
        return float(np.mean(self(grid)))

    def breakpoints(self) -> tuple[float, ...]:
        return ()  # continuous


# random Holder members are sums of 1 to _MAX_CUSPS cusps |x - c|^beta
_MAX_CUSPS = 3


@dataclass(frozen=True)
class HolderClass:
    """H(T, C, beta): |h(x1) - h(x2)| <= C |x1 - x2|^beta and |h(0)| <= T."""

    T: float
    C: float
    beta: float

    def __post_init__(self):
        if self.T <= 0 or self.C <= 0 or not (0 < self.beta <= 1):
            raise ValueError("need T > 0, C > 0, beta in (0, 1]")

    @property
    def envelope_constant(self) -> float:
        return self.C + self.T

    def random_member(self, rng: np.random.Generator) -> HolderMember:
        k = int(rng.integers(1, _MAX_CUSPS + 1))
        centers = rng.random(k)
        raw = rng.standard_normal(k)
        denom = np.sum(np.abs(raw))
        if denom == 0.0:
            raw = np.ones(k)
            denom = float(k)
        coeffs = raw / denom * self.C * rng.random()
        t0 = (2.0 * rng.random() - 1.0) * self.T
        a = t0 - float(np.sum(coeffs * centers**self.beta))
        return HolderMember(self.T, self.C, self.beta, a=a,
                            coeffs=tuple(coeffs), centers=tuple(centers))

    def riemann_gap_bound(self, n: int) -> float:
        return self.C / n**self.beta

    def oscillation_sup_bound(self, n: int) -> float:
        """Closed-form bound on sup |lambda_n((h1-h2)^2) - lambda((h1-h2)^2)|
        over the class, aggregated from the square and cross-product chains."""
        return 8.0 * self.C * (self.C + self.T) / n**self.beta

    # -- net construction ----------------------------------------------------

    def net_grid_count(self, u: float) -> int:
        """Cells m such that 2 C (1/(2m))^beta <= u/2; equals ceil(2C/u) at beta=1."""
        return max(1, math.ceil(0.5 * (4.0 * self.C / u) ** (1.0 / self.beta)))

    def net_values(self, u: float, max_members: int = 200_000) -> tuple[np.ndarray, np.ndarray]:
        """Knot grid and member values, one row per member, of the sup-norm
        u-net (see module docstring).  Level k extends every feasible partial
        sequence by every step option, parent order then step order, so rows
        come in the lexicographic order of (anchor, step_1, ..., step_m); rows
        equal after rounding to 9 decimals keep the first."""
        if u <= 0:
            raise ValueError("u must be > 0")
        m = self.net_grid_count(u)
        step = u / 2.0
        anchor_lo = -(self.T + u / 4.0)
        anchor_hi = self.T + u / 4.0
        anchors = [k * step for k in range(math.ceil(anchor_lo / step),
                                           math.floor(anchor_hi / step) + 1)]
        max_step = self.C / m**self.beta + u / 2.0
        n_steps = 2 * math.floor(max_step / step + 1e-12) + 1
        estimate = len(anchors) * n_steps**m
        if estimate > max_members:
            raise NetTooLargeError(estimate, max_members)
        steps = np.array([k * step for k in range(-(n_steps // 2), n_steps // 2 + 1)])
        env = self.C + self.T + u / 4.0
        grid = np.arange(0, m + 1, dtype=float) / m
        hol = self.C * np.abs(grid[:, None] - grid[None, :]) ** self.beta

        seqs = np.array(anchors)[:, None]
        for k in range(1, m + 1):
            cand = (seqs[:, -1:] + steps).ravel()
            prev = np.repeat(seqs, n_steps, axis=0)
            window = hol[k, :k] + u / 2.0 + 1e-12
            ok = (np.abs(cand) <= env + 1e-12) \
                & np.all(np.abs(cand[:, None] - prev) <= window, axis=1)
            seqs = np.column_stack([prev[ok], cand[ok]])
        vals = np.min(seqs[:, None, :] + hol, axis=2)  # Holder minorant on the grid
        vals += np.clip(vals[:, :1], -self.T, self.T) - vals[:, :1]
        _, first = np.unique(np.round(vals, 9), axis=0, return_index=True)
        return grid, vals[np.sort(first)]

    def net_sample(self, u: float, size: Optional[int] = None,
                   rng: Optional[np.random.Generator] = None,
                   max_members: int = 200_000) -> list[HolderMember]:
        """Members of the u-net at size rows drawn by rng without replacement,
        in net order; the whole net when size is None or not below its size."""
        grid, vals = self.net_values(u, max_members)
        if size is not None and len(vals) > size:
            vals = vals[np.sort(rng.choice(len(vals), size=size, replace=False))]
        knots = tuple(grid)
        return [HolderMember(self.T, self.C, self.beta, pl=PiecewiseLinear(knots, tuple(v)))
                for v in vals.tolist()]

    def build_net(self, u: float, max_members: int = 200_000) -> list[HolderMember]:
        """Sup-norm u-net of exact class members (see module docstring)."""
        return self.net_sample(u, max_members=max_members)


def _exact_form(h):
    """The form the pair closed forms read: ("t", t), ("pl", interpolant) or
    ("set", union); (None, None) for a member with no exact form."""
    if isinstance(h, IndicatorMember):
        return "t", h.t
    if isinstance(h, HolderMember) and h.pl is not None:
        return "pl", h.pl
    if isinstance(h, IntervalUnion):
        return "set", h
    return None, None


def lambda_sq_distance(h1, h2) -> float:
    """lambda((h1-h2)^2): |t1 - t2| for two indicators, the per-cell Simpson
    sum for two piecewise-linear members, the symmetric-difference measure for
    two set members; quadrature split at both members' breakpoints otherwise."""
    (k1, a), (k2, b) = _exact_form(h1), _exact_form(h2)
    if k1 == k2 == "t":
        return abs(a - b)
    if k1 == k2 == "pl":
        return diff_sq_integral(a, b)
    if k1 == k2 == "set":
        return float(a.symdiff_measure(b))
    return integrate(lambda x: (float(h1(x)) - float(h2(x))) ** 2, 0.0, 1.0, tol=1e-10,
                     breakpoints=h1.breakpoints() + h2.breakpoints())


def lambda_prod(h1, h2, tol: float) -> float:
    """lambda(h1 h2): min(t1, t2) for two indicators, the per-cell Simpson
    sum for two piecewise-linear members, the intersection measure for two set
    members; quadrature to tol split at both members' breakpoints otherwise."""
    (k1, a), (k2, b) = _exact_form(h1), _exact_form(h2)
    if k1 == k2 == "t":
        return min(a, b)
    if k1 == k2 == "pl":
        return prod_integral(a, b)
    if k1 == k2 == "set":
        return float(a.intersect(b).lebesgue())
    return integrate(lambda s: float(h1(s)) * float(h2(s)), 0.0, 1.0, tol=tol,
                     breakpoints=h1.breakpoints() + h2.breakpoints())


def lambda_sq_matrix(members: Sequence) -> np.ndarray:
    """The matrix of lambda_sq_distance over a family, entry for entry the
    same floats: |t_i - t_j| for indicators; for piecewise-linear Holder
    members on one shared knot vector, the per-cell Simpson sum of
    diff_sq_integral with each member evaluated once instead of once per pair;
    the scalar function pair by pair for anything else."""
    forms = [_exact_form(h) for h in members]
    kinds = {k for k, _ in forms}
    if kinds <= {"t"}:
        ts = np.array([t for _, t in forms], dtype=float)
        return np.abs(np.subtract.outer(ts, ts))
    pls = [p for _, p in forms]
    if kinds != {"pl"} or any(p.knots != pls[0].knots for p in pls):
        k = len(members)
        out = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                out[i, j] = out[j, i] = lambda_sq_distance(members[i], members[j])
        return out
    knots = np.asarray(pls[0].knots, dtype=float)
    mid = 0.5 * (knots[1:] + knots[:-1])
    w = knots[1:] - knots[:-1]
    at_knots = np.stack([p(knots) for p in pls])
    at_mid = np.stack([p(mid) for p in pls])
    k = len(pls)
    sq = np.empty((k, k))
    rows = max(1, 2**20 // (k * len(knots)))  # about 8 MB per temporary
    for lo in range(0, k, rows):
        d = at_knots[lo:lo + rows, None, :] - at_knots[None, :, :]
        dm = at_mid[lo:lo + rows, None, :] - at_mid[None, :, :]
        sq[lo:lo + rows] = np.sum(w / 6.0 * (d[..., :-1] ** 2 + 4.0 * dm**2 + d[..., 1:] ** 2),
                                  axis=2)
    return sq


# ---------------------------------------------------------------------------
# Indicator family on [0, 1] (the h-side analogue of B(1))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicatorMember:
    """h = 1 on (0, t], 0 elsewhere (right-closed convention)."""

    t: float

    def __post_init__(self):
        if not 0.0 < self.t <= 1.0:
            raise ValueError(f"indicator end point t={self.t!r} is outside (0, 1]")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = ((x > 0.0) & (x <= self.t)).astype(float)
        return out if out.shape else float(out)

    def lambda_exact(self) -> float:
        """Exact integral over [0, 1]."""
        return self.t

    def lambda_n(self, n: int) -> Fraction:  # exact card((0, t] n grid) / n
        return Fraction(math.floor(n * Fraction(self.t)), n)

    def breakpoints(self) -> tuple[float, ...]:
        return (self.t,)


@dataclass(frozen=True)
class IndicatorFamily:
    """The uniformly Riemann-integrable class {1_(0,t] : 0 < t <= 1}."""

    envelope_constant = 1.0

    def random_member(self, rng: np.random.Generator) -> IndicatorMember:
        return IndicatorMember(float(1.0 - rng.random()))  # in (0, 1]

    def riemann_gap_bound(self, n: int) -> float:
        return 2.0 / n  # B(1) bound at j = 0

    def build_net(self, u: float, metric: str = "d2_lambda",
                  max_members: int = 200_000) -> list[IndicatorMember]:
        mesh = u * u if metric in ("d2_lambda", "d2") else u
        count = math.ceil(1.0 / mesh)
        if count > max_members:
            raise NetTooLargeError(count, max_members)
        return [IndicatorMember(min(1.0, (k + 1) * mesh)) for k in range(count)]


# ---------------------------------------------------------------------------
# Interval-union set classes
# ---------------------------------------------------------------------------

class BVectorMember(IntervalUnion):
    """A member of B(2j+1) or B(2j): an interval union, so a set member."""

    @property
    def set(self) -> IntervalUnion:
        return self


@dataclass(frozen=True)
class BVectorClass:
    """B(2j+1) (parity 'odd': anchored initial interval plus j intervals) or
    B(2j) (parity 'even': j free intervals); half-open (a, b] convention."""

    j: int
    parity: str

    def __post_init__(self):
        if self.parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")
        if self.j < 0 or (self.parity == "even" and self.j < 1):
            raise ValueError("need j >= 0 (odd) or j >= 1 (even)")

    @property
    def n_breakpoints(self) -> int:
        return 2 * self.j + 1 if self.parity == "odd" else 2 * self.j

    def member(self, breakpoints: Sequence[Union[float, Fraction]]) -> BVectorMember:
        t = list(breakpoints)
        if len(t) != self.n_breakpoints:
            raise ValueError(f"expected {self.n_breakpoints} breakpoints")
        if t != sorted(t):
            raise ValueError("breakpoints must be nondecreasing")
        ends = [0] + t if self.parity == "odd" else t  # odd: (0, t0] is the anchored interval
        return BVectorMember.from_pairs(zip(ends[::2], ends[1::2]))

    def random_member(self, rng: np.random.Generator) -> BVectorMember:
        t = np.sort(rng.random(self.n_breakpoints))
        return self.member(t.tolist())

    def riemann_gap_bound(self, n: int) -> float:
        if self.parity == "odd":
            return 2.0 * (2 * self.j + 1) / n
        return 4.0 * self.j / n

    def sup_lambda_gap(self, n: int) -> float:
        """Exact sup over the class of |lambda_n(B) - lambda(B)| (supremum
        value; approached, not attained).  Tighter than the display bound."""
        if self.parity == "odd":
            return (self.j + 1) / n
        return self.j / n

    def build_net(self, u: float, max_members: int = 200_000) -> list[BVectorMember]:
        """Net by breakpoint quantization; mesh chosen so the guarantee holds
        in d2_lambda (L2 distance between indicators is the square root of
        the symmetric difference measure)."""
        p = self.n_breakpoints
        mesh = (u * u) / p
        g = math.ceil(1.0 / mesh)
        count = math.comb(g + p, p)
        if count > max_members:
            raise NetTooLargeError(count, max_members)
        grid = [Fraction(k, g) for k in range(g + 1)]
        seen: dict[tuple, BVectorMember] = {}
        for combo in itertools.combinations_with_replacement(range(g + 1), p):
            t = [grid[c] for c in combo]
            member = self.member(t)
            key = member.set.bounds
            if key not in seen:
                seen[key] = member
        return list(seen.values())


def b_infinity_witness(n: int) -> IntervalUnion:
    """B_n = union over m < n of (m/n, (m+1)/n - eps_n] with eps_n = 1/(n 2^n):
    misses the whole grid while filling Lebesgue measure 1 - 2^{-n}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    eps = Fraction(1, n * 2**n)
    pairs = [(Fraction(m, n), Fraction(m + 1, n) - eps) for m in range(n)]
    return IntervalUnion.from_pairs(pairs)


# ---------------------------------------------------------------------------
# G classes on the sample space
# ---------------------------------------------------------------------------
#
# A G member g answers g(x), mean(model) = nu(g), second_moment(model) =
# nu(g^2), pair_mean(other, model) = nu(g g') and centered_sq_tail(model, hs,
# T): the Lindeberg tail of the centred product q_tilde(s, x) = h(s) (g(x) -
# nu(g)), that is E[q_tilde(s, X)^2; |q_tilde(s, X)| >= T] at each s, given
# hs = h(s).

class _TwoValued:
    """The tail shared by the indicator members, where g(X) is 1 with
    probability m = nu(g) and 0 otherwise."""

    def centered_sq_tail(self, model: NuModel, hs: np.ndarray, T: float) -> np.ndarray:
        m = self.mean(model)
        v_in = hs * (1.0 - m)    # value on {g = 1}, probability m
        v_out = -hs * m          # value on {g = 0}, probability 1 - m
        out = np.where(np.abs(v_in) >= T, v_in**2 * m, 0.0)
        out += np.where(np.abs(v_out) >= T, v_out**2 * (1.0 - m), 0.0)
        return out


@dataclass(frozen=True)
class HalfLine(_TwoValued):
    """g = 1 on (-inf, w]."""

    w: float

    def __call__(self, x):
        out = (np.asarray(x, dtype=float) <= self.w).astype(float)
        return out if out.shape else float(out)

    def mean(self, model: NuModel) -> float:
        return float(model.cdf(self.w))

    def pair_mean(self, other, model: NuModel) -> float:
        if isinstance(other, HalfLine):
            return float(model.cdf(min(self.w, other.w)))
        if isinstance(other, InitialInterval):
            lo = min(self.w, other.w)
            return max(0.0, float(model.cdf(lo)) - float(model.cdf(0.0))) if lo >= 0 else 0.0
        if isinstance(other, BoundedPolynomial):
            return other.truncated_mean(model, self.w)
        raise TypeError(type(other))

    def second_moment(self, model: NuModel) -> float:
        return self.mean(model)


@dataclass(frozen=True)
class InitialInterval(_TwoValued):
    """g = 1 on [0, w]."""

    w: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = ((x >= 0.0) & (x <= self.w)).astype(float)
        return out if out.shape else float(out)

    def mean(self, model: NuModel) -> float:
        if self.w < 0:
            return 0.0
        return float(model.cdf(self.w)) - float(model.cdf(0.0))

    def pair_mean(self, other, model: NuModel) -> float:
        if isinstance(other, (HalfLine, InitialInterval)):
            lo = min(self.w, other.w)
            if lo < 0:
                return 0.0
            return float(model.cdf(lo)) - float(model.cdf(0.0))
        if isinstance(other, BoundedPolynomial):
            return other.truncated_mean(model, self.w) - other.truncated_mean(model, 0.0)
        raise TypeError(type(other))

    def second_moment(self, model: NuModel) -> float:
        return self.mean(model)


@dataclass(frozen=True)
class BoundedPolynomial:
    """g(x) = sum_k c_k x^k with coefficients inside a fixed box."""

    coeffs: tuple[float, ...]

    def __call__(self, x):
        out = np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), self.coeffs)
        return out if np.asarray(out).shape else float(out)

    def mean(self, model: NuModel) -> float:
        return sum(c * model.moment(k) for k, c in enumerate(self.coeffs))

    def truncated_mean(self, model: NuModel, w: float) -> float:
        return sum(c * model.truncated_moment(k, w) for k, c in enumerate(self.coeffs))

    def pair_mean(self, other, model: NuModel) -> float:
        if isinstance(other, BoundedPolynomial):
            prod = np.polynomial.polynomial.polymul(self.coeffs, other.coeffs)
            return sum(c * model.moment(k) for k, c in enumerate(prod))
        return other.pair_mean(self, model)

    def second_moment(self, model: NuModel) -> float:
        return self.pair_mean(self, model)

    def centered_sq_tail(self, model: NuModel, hs: np.ndarray, T: float) -> np.ndarray:
        """The Lindeberg tail of h * g for degree <= 1: h(s) c_1 (X - mu) is
        v (X - mu) with v = h(s) c_1, so the tail is v^2 times the model's
        centred tail at a = T / |v| (inf where v = 0, an empty tail)."""
        if len(self.coeffs) > 2:
            raise ValueError(f"no closed-form Lindeberg tail for the degree-"
                             f"{len(self.coeffs) - 1} polynomial g {self.coeffs}")
        v = hs * (self.coeffs[1] if len(self.coeffs) == 2 else 0.0)
        a = np.where(v != 0, T / np.maximum(np.abs(v), 1e-300), np.inf)
        return v**2 * model.centered_sq_tail(a)


GMember = Union[HalfLine, InitialInterval, BoundedPolynomial]


@dataclass(frozen=True)
class GClass:
    """A parametric class on the sample space: half-lines, initial intervals,
    or bounded-degree polynomials with a coefficient box."""

    kind: str
    degree: int = 0
    coeff_bound: float = 1.0

    def __post_init__(self):
        if self.kind not in ("half-lines", "initial-intervals", "poly"):
            raise ValueError(f"unknown G kind {self.kind!r}")

    @property
    def envelope_constant(self) -> Optional[float]:
        """Constant envelope value, or None when the envelope is not constant."""
        if self.kind in ("half-lines", "initial-intervals"):
            return 1.0
        return None

    def envelope_sq_mean(self, model: NuModel) -> float:
        """nu(G^2) for the class envelope (exact via model moments)."""
        if self.kind in ("half-lines", "initial-intervals"):
            return 1.0
        b = self.coeff_bound
        total = 0.0
        for k in range(self.degree + 1):
            for l in range(self.degree + 1):
                total += b * b * _abs_moment(model, k + l)
        return total

    def random_member(self, rng: np.random.Generator, model: NuModel) -> GMember:
        if self.kind == "half-lines":
            return HalfLine(float(model.ppf(min(rng.random(), 1 - 1e-12))))
        if self.kind == "initial-intervals":
            return InitialInterval(abs(float(model.ppf(min(rng.random(), 1 - 1e-12)))))
        coeffs = (2 * rng.random(self.degree + 1) - 1) * self.coeff_bound
        return BoundedPolynomial(tuple(coeffs))

    def build_net(self, u: float, model: NuModel,
                  max_members: int = 200_000) -> list[GMember]:
        """Quantile net: d2_nu distance between indicator members is
        sqrt(|F(w) - F(w')|), so an F-quantile grid of mesh u^2 covers."""
        if self.kind == "poly":
            raise NetTooLargeError(10**9, max_members)  # no constructive net shipped
        mesh = u * u
        count = math.ceil(1.0 / mesh)
        if count > max_members:
            raise NetTooLargeError(count, max_members)
        probs = [min((k + 1) * mesh, 1.0 - 1e-12) for k in range(count)]
        ws = sorted({float(model.ppf(p)) for p in probs})
        if self.kind == "half-lines":
            return [HalfLine(w) for w in ws]
        return [InitialInterval(max(w, 0.0)) for w in ws]


def _abs_moment(model: NuModel, k: int) -> float:
    if model.kind == "standard-normal" and k % 2 == 1:
        # E|X|^k for odd k: 2^{k/2} Gamma((k+1)/2) / sqrt(pi)
        return 2 ** (k / 2) * math.gamma((k + 1) / 2) / math.sqrt(math.pi)
    return model.moment(k)


# ---------------------------------------------------------------------------
# Product classes
# ---------------------------------------------------------------------------

_TAXONOMY_TAGS = ("pi(UB,M-VC)", "pi(nuG,J-VC)", "pi(nuG2,J-VC)")


@dataclass(frozen=True)
class ProductClass:
    """F = H * G = {f(s, x) = h(s) g(x)} with a taxonomy tag.

    The uniformly bounded tag requires both component envelopes constant;
    construction is rejected otherwise.
    """

    h_class: Union[HolderClass, IndicatorFamily]
    g_class: GClass
    taxonomy_tag: str = "pi(nuG2,J-VC)"

    def __post_init__(self):
        if self.taxonomy_tag not in _TAXONOMY_TAGS:
            raise ValueError(f"unknown taxonomy tag {self.taxonomy_tag!r}")
        if self.taxonomy_tag == "pi(UB,M-VC)" and self.g_class.envelope_constant is None:
            raise ValueError(
                "pi(UB,M-VC) requires a constant G envelope; "
                f"{self.g_class.kind} has a non-constant envelope"
            )


# ---------------------------------------------------------------------------
# Rate bounds and observed gaps
# ---------------------------------------------------------------------------

AnyClass = Union[HolderClass, BVectorClass, IndicatorFamily]


def riemann_gap_bound(cls: AnyClass, n: int) -> float:
    """The closed-form uniform bound on |lambda_n - lambda| over the class."""
    if n <= 0:
        raise ValueError("n must be positive")
    return cls.riemann_gap_bound(n)


# A block of cusp Holder rows holds at most _GAP_BLOCK_ROWS rows and
# _GAP_BLOCK_CELLS values: 128,000 bytes per float temporary, below glibc's
# default 128 KiB mmap threshold, so freeing a block never raises that
# threshold (which would lift the peak RSS of whatever runs later).
_GAP_BLOCK_ROWS = 16
_GAP_BLOCK_CELLS = 16_000


def observed_riemann_gap_rows(members: Sequence, n_list: Sequence[int]) -> list[list[float]]:
    """|lambda_n(m) - lambda(m)| for each member, each rounded once: one row
    per n of n_list, members in order.

    Set members are read in integers (IntervalUnion.riemann_gap).  Cusp-form
    HolderMembers that share a beta are evaluated together, in row blocks:
    a block starts at each row's a and adds c_k |x - x_k|^beta for k = 0, 1,
    ... to the rows that have a k-th cusp, so every value takes the float
    operations of HolderMember.__call__, and the row means minus lambda_exact()
    give the bits of the scalar float(abs(lambda_n(n) - Fraction(lambda))).
    Any other member takes that scalar expression, where a Fraction lambda_n
    (indicators) subtracts exactly.  Members are classified, and each cusp
    member's lambda_exact() and padded row built, once for every n."""
    set_rows, other_rows = [], []  # (index, IntervalUnion) and (index, Fraction lambda)
    cusp_rows: dict = {}  # beta -> indices of its cusp members
    for i, m in enumerate(members):
        kind, form = _exact_form(m)
        if kind == "set":
            set_rows.append((i, form))
        elif isinstance(m, HolderMember) and m.pl is None:
            cusp_rows.setdefault(m.beta, []).append(i)
        else:
            other_rows.append((i, Fraction(m.lambda_exact())))
    groups = []
    for beta, rows in cusp_rows.items():
        # most cusps first, so the rows with a k-th cusp are a prefix
        rows.sort(key=lambda i: -len(members[i].coeffs))
        mems = [members[i] for i in rows]
        counts = [len(m.coeffs) for m in mems]
        cusps = counts[0]
        groups.append((
            beta, rows,
            [sum(c > k for c in counts) for k in range(cusps)],  # rows with a k-th cusp
            np.array([m.coeffs + (0.0,) * (cusps - c) for m, c in zip(mems, counts)]),
            np.array([m.centers + (0.0,) * (cusps - c) for m, c in zip(mems, counts)]),
            np.array([[m.a] for m in mems]),
            np.array([m.lambda_exact() for m in mems]),
        ))
    table = []
    for n in n_list:
        gaps: list = [None] * len(members)
        for i, form in set_rows:
            gaps[i] = form.riemann_gap(n)
        for i, lam in other_rows:
            gaps[i] = float(abs(members[i].lambda_n(n) - lam))
        grid = np.arange(1, n + 1, dtype=float) / n
        step = max(1, min(_GAP_BLOCK_ROWS, _GAP_BLOCK_CELLS // n))
        for beta, rows, with_cusp, coeffs, centers, a, lam in groups:
            means = np.empty(len(rows))
            for lo in range(0, len(rows), step):
                hi = min(lo + step, len(rows))
                block = np.empty((hi - lo, n))
                block[:] = a[lo:hi]
                for k, top in enumerate(with_cusp):
                    top = min(hi, top)
                    if top <= lo:
                        break
                    block[:top - lo] += coeffs[lo:top, k:k + 1] \
                        * np.abs(grid - centers[lo:top, k:k + 1]) ** beta
                means[lo:hi] = np.mean(block, axis=1)
            for i, g in zip(rows, np.abs(means - lam).tolist()):
                gaps[i] = g
        table.append(gaps)
    return table


def observed_riemann_gap(member, n: int) -> float:
    """One member's gap; see observed_riemann_gap_rows."""
    return observed_riemann_gap_rows([member], [n])[0][0]


def parse_class_descriptor(desc: dict):
    """CLI class descriptors: {"class": "holder", "T":..,"C":..,"beta":..},
    {"class": "bvector", "j":.., "parity":..}, {"class": "halflines"},
    {"class": "indicators"}."""
    if not isinstance(desc, dict) or "class" not in desc:
        raise ValueError("class descriptor must be a dict with a 'class' key")
    kind = desc["class"]
    extra = set(desc) - {"class", "T", "C", "beta", "j", "parity"}
    if extra:
        raise ValueError(f"unknown class descriptor keys: {sorted(extra)}")
    if kind == "holder":
        return HolderClass(float(desc.get("T", 1.0)), float(desc.get("C", 1.0)),
                           float(desc.get("beta", 1.0)))
    if kind == "bvector":
        return BVectorClass(int(desc.get("j", 0)), str(desc.get("parity", "odd")))
    if kind == "halflines":
        return GClass("half-lines")
    if kind == "indicators":
        return IndicatorFamily()
    raise ValueError(f"unknown class kind {kind!r}")
