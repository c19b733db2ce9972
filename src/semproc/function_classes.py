"""The explicit function and set classes: Holder balls H(T, C, beta), the
interval-union set classes B(2j+1) and B(2j) (the indicators 1_(0,t] are
B(1)), the non-uniformly-Riemann-integrable counterexample family, and the
members g on the sample space, intervals of the line and polynomials.  A
product class F = H * G = {h(s) g(x)} has G the half-lines, so it is named
by its h class alone.

Every h class exposes seeded random members as arrays, and its closed-form
Riemann gap bound: a set class's sorted breakpoints, one row per member,
from one generator draw (BVectorClass.random_breakpoints; a row's
IntervalUnion is the test oracle member_oracles.set_member); a Holder
class's cusp arrays (a, coeffs, centers, cusps), the per-member generator
calls in turn and the arithmetic on the whole arrays
(HolderClass.random_cusps).  Their Riemann gaps are read straight from
those arrays (set_riemann_gap_rows, cusp_riemann_gap_rows).
A set class BVectorClass also owns its grid-cut rule: cut_masks(k) lists
the subsets of k ordered points it cuts out (at most j runs, one more
through the anchored interval), which the shatter counts and the
brute-force ULLN oracle read.  The Holder balls build u-nets with a
provable sup-norm coverage guarantee, which is how an infinite class becomes
computable; indicator_net and half_line_net space the indicators and the
half-lines at a mesh the caller picks.

Holder nets are built on a uniform grid: candidate value sequences are
enumerated on a step/2 value lattice, each sequence is replaced by its largest
Holder minorant on the grid (a McShane-type regularization, which restores
exact pairwise feasibility), the anchor value is clipped back into [-T, T] by
a vertical translation, and the piecewise-linear interpolant is kept.  A
convexity argument shows linear interpolation of pairwise-feasible grid data
is itself (C, beta)-Holder, so net members are exact class members; rounding
(u/4), regularization (u/4), anchor translation (u/4 slack absorbed) and
interpolation (u/2) add up to sup-distance at most u from any class member.

Only this module knows how an h member is stored.  An h member is a
PiecewiseLinear (the Holder net members among them) or a set member (any
IntervalUnion, indicators among them); each is used through
grid_values(members, n), lambda_exact() = lambda(h) and lambda_n(n); the
lambdas are exact Fractions for set members.  grid_values is the one place
an h member meets the grid i/n: a set member gives the 0/1 values of its
integer floors (IntervalUnion.on_grid), the same rule as its lambda_n, and
any other member is evaluated at measures.grid_points.  A set member's
Riemann gap is read in integers, through IntervalUnion.riemann_gap (or, for
breakpoint arrays, set_riemann_gap_rows, with the same bits).  A random cusp
mixture a + sum_k c_k |x - x_k|^beta of a Holder ball exists only as
random_cusps arrays; their gaps are computed all members of one beta
together, in row blocks of grid values (cusp_riemann_gap_rows).  The pair
integral lambda(h1 h2) is a closed form for every pair of members
(lambda_prod).  lambda_sq_matrix gives lambda((h1-h2)^2) over the two
families the member pools use, indicators and piecewise-linear members on
one knot vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .intervals import IntervalUnion
from .measures import NuModel, grid_points
from .piecewise import PiecewiseLinear, prod_integral, simpson_cells

__all__ = [
    "NetTooLargeError",
    "HolderClass",
    "BVectorClass",
    "INDICATORS",
    "indicator",
    "indicator_net",
    "grid_values",
    "b_infinity_witness",
    "LineInterval",
    "half_line",
    "half_line_net",
    "BoundedPolynomial",
    "observed_riemann_gap",
    "set_riemann_gap_rows",
    "cusp_riemann_gap_rows",
    "lambda_prod",
    "lambda_sq_matrix",
]


class NetTooLargeError(ValueError):
    """A net of more than cap members, about 10**log10_estimate of them."""

    def __init__(self, log10_estimate: float, cap: int):
        if math.isinf(log10_estimate):  # past every float count
            size = "more than 1e308"
        else:
            exp = math.floor(log10_estimate)
            size = f"about {10 ** (log10_estimate - exp):.3g}e{exp}"
        super().__init__(f"net would need {size} members (cap {cap})")
        self.log10_estimate = log10_estimate
        self.cap = cap


# the most members a Holder net, and an indicator or half-line net, may have
_HOLDER_NET_CAP = 500_000
_LINE_NET_CAP = 10**6
# Values per float temporary of a blocked computation here and in ulln:
# 128,000 bytes, below glibc's default 128 KiB mmap threshold, so freeing a
# block never raises that threshold (which would lift the peak RSS of
# whatever runs later).
_BLOCK_CELLS = 16_000


# ---------------------------------------------------------------------------
# Holder classes
# ---------------------------------------------------------------------------

def _cusp_lambda(beta: float, a: float, coeffs: Sequence[float],
                 centers: Sequence[float]) -> float:
    """The integral over [0, 1] of a + sum_k c_k |x - x_k|^beta, in scalar
    floats (Python's **, the C library's pow; NumPy's SIMD power may differ
    from it in the last bit)."""
    total = a
    for c, x0 in zip(coeffs, centers):
        total += c * (x0 ** (beta + 1) + (1 - x0) ** (beta + 1)) / (beta + 1)
    return total


# random Holder members are sums of 1 to _MAX_CUSPS cusps |x - c|^beta
_MAX_CUSPS = 3


@dataclass(frozen=True)
class HolderClass:
    """H(T, C, beta): |h(x1) - h(x2)| <= C |x1 - x2|^beta and |h(0)| <= T."""

    T: float
    C: float
    beta: float

    def __post_init__(self):
        if not (0 < self.T < math.inf and 0 < self.C < math.inf and 0 < self.beta <= 1):
            raise ValueError("need T and C finite and > 0, beta in (0, 1]")

    def random_cusps(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, ...]:
        """count random cusp members as arrays (a, coeffs, centers, cusps):
        member i is a[i] + sum_{k < cusps[i]} coeffs[i, k] |x - centers[i, k]|^beta,
        its coefficients and centers zero past its cusps[i] columns.

        A member's generator calls come in turn: its cusp count k
        (integers), k centers (random), k normals (standard_normal), then
        the coefficient scale and the anchor value (random, twice), since
        each draw's length is drawn just before it.  The arithmetic then
        runs on the whole arrays with each member's float operations: the
        normals over their absolute sum (k ones over k if that sum is 0),
        times C times the scale, and a = h(0) - sum_k c_k x_k^beta for h(0)
        uniform in [-T, T)."""
        cusps = np.empty(count, dtype=np.int64)
        centers = np.zeros((count, _MAX_CUSPS))
        raw = np.zeros((count, _MAX_CUSPS))
        scale_h0 = np.empty((count, 2))
        for i in range(count):
            k = cusps[i] = rng.integers(1, _MAX_CUSPS + 1)
            centers[i, :k] = rng.random(k)
            raw[i, :k] = rng.standard_normal(k)
            scale_h0[i] = rng.random(2)  # the two scalar rng.random() draws
        denom = np.sum(np.abs(raw), axis=1)  # the zero padding adds nothing
        zero = denom == 0.0
        if zero.any():
            raw[zero] = np.arange(_MAX_CUSPS) < cusps[zero, None]
            denom[zero] = cusps[zero]
        coeffs = raw / denom[:, None] * self.C * scale_h0[:, :1]
        h0 = (2.0 * scale_h0[:, 1] - 1.0) * self.T
        return h0 - np.sum(coeffs * centers**self.beta, axis=1), coeffs, centers, cusps

    def riemann_gap_bound(self, n: int) -> float:
        return self.C / n**self.beta

    # -- net construction ----------------------------------------------------

    def net_grid_count(self, u: float) -> int:
        """Cells m such that 2 C (1/(2m))^beta <= u/2; equals ceil(2C/u) at beta=1.
        The net's bound anchors * steps^m is at least 3^m, so a 2m past 1e15,
        found in log space before a small beta overflows m, raises NetTooLargeError."""
        if (math.log10(4.0 * self.C) - math.log10(u)) / self.beta > 15.0:
            raise NetTooLargeError(math.inf, _HOLDER_NET_CAP)
        return max(1, math.ceil(0.5 * (4.0 * self.C / u) ** (1.0 / self.beta)))

    def net_values(self, u: float) -> tuple[np.ndarray, np.ndarray]:
        """Knot grid and member values, one row per member, of the sup-norm
        u-net (see module docstring).  Level k extends every feasible partial
        sequence by every step option, parent order then step order, so rows
        come in the lexicographic order of (anchor, step_1, ..., step_m); rows
        equal after rounding to 9 decimals keep the first.  The bound
        anchors * steps^m on the row count is checked before anything is
        built, in log space first: at a tiny u it has millions of digits."""
        if u <= 0:
            raise ValueError("u must be > 0")
        m = self.net_grid_count(u)
        step = u / 2.0
        k_lo = math.ceil(-(self.T + u / 4.0) / step)
        k_hi = math.floor((self.T + u / 4.0) / step)
        max_step = self.C / m**self.beta + u / 2.0
        n_steps = 2 * math.floor(max_step / step + 1e-12) + 1
        log10_estimate = math.log10(k_hi - k_lo + 1) + m * math.log10(n_steps)
        if (log10_estimate > math.log10(_HOLDER_NET_CAP) + 1.0
                or (k_hi - k_lo + 1) * n_steps**m > _HOLDER_NET_CAP):
            raise NetTooLargeError(log10_estimate, _HOLDER_NET_CAP)
        steps = np.arange(-(n_steps // 2), n_steps // 2 + 1) * step
        env = self.C + self.T + u / 4.0
        grid = np.arange(0, m + 1, dtype=float) / m
        hol = self.C * np.abs(grid[:, None] - grid[None, :]) ** self.beta

        seqs = (np.arange(k_lo, k_hi + 1) * step)[:, None]  # the anchors
        for k in range(1, m + 1):
            cand = (seqs[:, -1:] + steps).ravel()
            prev = np.repeat(seqs, n_steps, axis=0)
            window = hol[k, :k] + u / 2.0 + 1e-12
            ok = (np.abs(cand) <= env + 1e-12) \
                & np.all(np.abs(cand[:, None] - prev) <= window, axis=1)
            seqs = np.column_stack([prev[ok], cand[ok]])
        vals = _grid_minorant(seqs, hol)
        vals += np.clip(vals[:, :1], -self.T, self.T) - vals[:, :1]
        _, first = np.unique(np.round(vals, 9), axis=0, return_index=True)
        return grid, vals[np.sort(first)]

    def build_net(self, u: float, size: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None) -> list[PiecewiseLinear]:
        """Sup-norm u-net of exact class members (see module docstring); with
        size, when the net has more rows, size of them drawn by rng without
        replacement, in net order, before any member is built."""
        grid, vals = self.net_values(u)
        if size is not None and len(vals) > size:
            vals = vals[np.sort(rng.choice(len(vals), size=size, replace=False))]
        knots = tuple(grid)
        return [PiecewiseLinear(knots, tuple(v)) for v in vals.tolist()]


def _grid_minorant(seqs: np.ndarray, hol: np.ndarray) -> np.ndarray:
    """The largest Holder minorant of each row of grid values,
    min_j (seqs[:, j] + hol[i, j]) at knot i, as a running minimum over the
    knots j: no (rows, knots, knots) temporary, and min is exact."""
    vals = seqs[:, :1] + hol[:, 0]
    for j in range(1, hol.shape[1]):
        np.minimum(vals, seqs[:, j:j + 1] + hol[:, j], out=vals)
    return vals


def _set_pl_integral(u: IntervalUnion, p: PiecewiseLinear) -> float:
    """The integral of p over u: per interval (a, b], the trapezoid sum of p
    over a, its knots inside, and b, exact since p is linear on each cell."""
    knots = np.asarray(p.knots)
    total = 0.0
    for a, b in u.bounds:
        a, b = float(a), float(b)
        x = np.concatenate(([a], knots[(knots > a) & (knots < b)], [b]))
        v = p(x)
        total += float(np.sum((x[1:] - x[:-1]) * (v[1:] + v[:-1]))) / 2.0
    return total


def lambda_prod(h1, h2) -> float:
    """lambda(h1 h2) in closed form for piecewise-linear and set members
    (prod_integral, the intersection measure, _set_pl_integral); TypeError
    for any other pair."""
    if isinstance(h1, PiecewiseLinear) and isinstance(h2, PiecewiseLinear):
        return prod_integral(h1, h2)
    if isinstance(h1, IntervalUnion) and isinstance(h2, IntervalUnion):
        return float(h1.intersection_measure(h2))
    for u, p in ((h1, h2), (h2, h1)):
        if isinstance(u, IntervalUnion) and isinstance(p, PiecewiseLinear):
            return _set_pl_integral(u, p)
    raise TypeError(f"lambda_prod takes piecewise-linear and set members, not "
                    f"{type(h1).__name__} x {type(h2).__name__}")


def _indicator_end(h) -> Optional[float]:
    """t of a set member (0, t] whose t is a float, else None."""
    if isinstance(h, IntervalUnion) and len(h.bounds) == 1 and h.bounds[0][0] == 0:
        t = float(h.bounds[0][1])
        if t == h.bounds[0][1]:
            return t
    return None


def lambda_sq_matrix(members: Sequence) -> np.ndarray:
    """The matrix of lambda((h1-h2)^2) over a family of indicators (0, t]
    with float t, or of piecewise-linear members on one shared knot vector;
    TypeError for any other family.  For indicators an entry is |t_i - t_j|,
    the one rounding of the exact symmetric-difference measure; for
    piecewise-linear members, piecewise.diff_sq_integral's simpson_cells sum,
    bit for bit, with each member evaluated once instead of once per pair."""
    ends = [_indicator_end(h) for h in members]
    if ends and None not in ends:
        ts = np.array(ends)
        return np.abs(np.subtract.outer(ts, ts))
    pls = list(members)
    if not (pls and all(isinstance(p, PiecewiseLinear) for p in pls)
            and all(p.knots == pls[0].knots for p in pls)):
        raise TypeError("lambda_sq_matrix takes indicators (0, t] with float t or "
                        "piecewise-linear members on one knot vector")
    knots = np.asarray(pls[0].knots, dtype=float)
    mid = 0.5 * (knots[1:] + knots[:-1])
    w = knots[1:] - knots[:-1]
    at_knots = np.stack([p(knots) for p in pls])
    at_mid = np.stack([p(mid) for p in pls])
    k = len(pls)
    sq = np.empty((k, k))
    rows = max(1, _BLOCK_CELLS // (k * len(knots)))
    for lo in range(0, k, rows):
        d = at_knots[lo:lo + rows, None, :] - at_knots[None, :, :]
        dm = at_mid[lo:lo + rows, None, :] - at_mid[None, :, :]
        sq[lo:lo + rows] = simpson_cells(w, d**2, dm**2)
    return sq


# ---------------------------------------------------------------------------
# Interval-union set classes
# ---------------------------------------------------------------------------

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
    def anchored(self) -> bool:
        """Whether the class has the anchored initial interval (0, t0]."""
        return self.parity == "odd"

    @property
    def n_breakpoints(self) -> int:
        return 2 * self.j + self.anchored

    @property
    def n_intervals(self) -> int:
        """A member's intervals, the anchored one included: it holds at most
        this many runs of consecutive grid points."""
        return self.j + self.anchored

    def cut_masks(self, k: int) -> np.ndarray:
        """The subsets of k ordered points that the class cuts out, as
        ascending int masks (bit i: the (i+1)-th smallest point).  A subset
        is cut out iff it has at most j runs of consecutive points, or j + 1
        when the class is anchored and the subset holds the first point: the
        anchored interval can take only a run that starts there."""
        m = np.arange(1 << k, dtype=np.int64)
        runs = np.bitwise_count(m & ~(m << 1))  # bits that start a run
        return m[runs <= self.j + (m & 1) * self.anchored]

    def random_breakpoints(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The sorted breakpoints of count random members, one row each, from
        one rng.random((count, n_breakpoints)) draw: the stream of count
        rng.random(n_breakpoints) calls, row by row."""
        return np.sort(rng.random((count, self.n_breakpoints)), axis=1)

    def riemann_gap_bound(self, n: int) -> float:
        """2/n per breakpoint, and at most 1: both lambdas lie in [0, 1]."""
        return min(1.0, 2.0 * self.n_breakpoints / n)

    def sup_lambda_gap(self, n: int) -> float:
        """Exact sup over the class of |lambda_n(B) - lambda(B)| (supremum
        value; approached, not attained): 1/n per interval, for at most n
        intervals, since both lambdas lie in [0, 1].  Tighter than the
        display bound."""
        return min(self.n_intervals, n) / n


# B(1), the indicators 1_(0, t]
INDICATORS = BVectorClass(0, "odd")


def indicator(t: float) -> IntervalUnion:
    """The B(1) member 1_(0, t], for t in (0, 1]."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"indicator end point t={t!r} is outside (0, 1]")
    return IntervalUnion([(0, t)])


def _line_net_count(mesh: float) -> int:
    """ceil(1 / mesh), the size of an indicator or half-line net, at least 1
    (an infinite mesh) and within _LINE_NET_CAP; a mesh of 0 or one whose
    1 / mesh is past the float range is too fine for any net."""
    if mesh == 0 or not math.isfinite(1.0 / mesh):
        raise NetTooLargeError(math.inf, _LINE_NET_CAP)
    count = max(1, math.ceil(1.0 / mesh))
    if count > _LINE_NET_CAP:
        raise NetTooLargeError(math.log10(count), _LINE_NET_CAP)
    return count


def indicator_net(mesh: float, size: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None) -> list[IntervalUnion]:
    """The indicators 1_(0, t] at t = mesh, 2 mesh, ... and 1: every
    indicator is within mesh of one in lambda((h1-h2)^2) = |t1 - t2|.  As
    with HolderClass.build_net, size members drawn by rng without
    replacement, in net order, when the net has more than size; the draw
    comes before any member is built."""
    ks = range(_line_net_count(mesh))
    if size is not None and len(ks) > size:
        ks = np.sort(rng.choice(len(ks), size=size, replace=False)).tolist()
    return [indicator(min(1.0, (k + 1) * mesh)) for k in ks]


def grid_values(members: Sequence, n: int) -> np.ndarray:
    """The (len(members), n) float64 values of h members at 1/n, ..., n/n: a
    set member's 0/1 values from its integer floors (IntervalUnion.on_grid),
    any other member evaluated at grid_points(n)."""
    s = grid_points(n)
    rows = [h.on_grid(n) if isinstance(h, IntervalUnion) else np.asarray(h(s), dtype=float)
            for h in members]
    return np.stack(rows) if len(rows) > 1 else rows[0][None]  # a view: np.stack copies


def b_infinity_witness(n: int) -> IntervalUnion:
    """B_n = union over m < n of (m/n, (m+1)/n - eps_n] with eps_n = 1/(n 2^n):
    misses the whole grid while filling Lebesgue measure 1 - 2^{-n}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    eps = Fraction(1, n * 2**n)
    pairs = [(Fraction(m, n), Fraction(m + 1, n) - eps) for m in range(n)]
    return IntervalUnion.from_pairs(pairs)


# ---------------------------------------------------------------------------
# The sample space: G members and the half-line net
# ---------------------------------------------------------------------------
#
# A G member g, an interval LineInterval or a BoundedPolynomial, answers
# g(x), mean(model) = nu(g), pair_mean(other, model) = nu(g g') (so nu(g^2)
# is pair_mean(g, model)) and centered_sq_tail(model, hs, T): the Lindeberg
# tail of the centred product q_tilde(s, x) = h(s) (g(x) - nu(g)), that is
# E[q_tilde(s, X)^2; |q_tilde(s, X)| >= T] at each s, given hs = h(s).  Each
# nu-integral is a closed form in the model's cdf or truncated moments.

@dataclass(frozen=True)
class LineInterval:
    """g = 1 on [lo, hi]; lo = -inf is the half-line (-inf, hi]."""

    lo: float
    hi: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        inside = x <= self.hi
        if self.lo > -math.inf:
            inside &= x >= self.lo
        out = inside.astype(float)
        return out if out.shape else float(out)

    def mean(self, model: NuModel) -> float:
        return self.pair_mean(self, model)

    def pair_mean(self, other, model: NuModel) -> float:
        """nu of [max lo, min hi] with another interval, F(hi) - F(lo), and
        truncated_mean(hi) - truncated_mean(lo) with a polynomial: 0.0 when
        the interval is empty, no subtraction when lo is -inf."""
        if isinstance(other, BoundedPolynomial):
            lo, hi, primitive = self.lo, self.hi, lambda w: other.truncated_mean(model, w)
        else:
            lo, hi, primitive = (max(self.lo, other.lo), min(self.hi, other.hi),
                                 lambda w: float(model.cdf(w)))
        if hi < lo:
            return 0.0
        return primitive(hi) if lo == -math.inf else primitive(hi) - primitive(lo)

    def centered_sq_tail(self, model: NuModel, hs: np.ndarray, T: float) -> np.ndarray:
        """g(X) is 1 with probability m = nu(g) and 0 otherwise."""
        m = self.mean(model)
        v_in = hs * (1.0 - m)    # value on {g = 1}, probability m
        v_out = -hs * m          # value on {g = 0}, probability 1 - m
        out = np.where(np.abs(v_in) >= T, v_in**2 * m, 0.0)
        out += np.where(np.abs(v_out) >= T, v_out**2 * (1.0 - m), 0.0)
        return out


def half_line(w: float) -> LineInterval:
    """g = 1 on (-inf, w]."""
    return LineInterval(-math.inf, w)


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


def half_line_net(mesh: float, model: NuModel, size: Optional[int] = None) -> list[LineInterval]:
    """The half-lines at the F-quantiles mesh, 2 mesh, ... (capped just
    below 1), sorted, equal ones once: a half-line's nu(g) and nu(g^2) are
    both F(hi), so neighbors are within mesh in d1_nu and in d2_nu^2.  With
    size, when the net has more members, the at most size at evenly spaced
    ranks (the first and the last among them); the end points are thinned
    before any member is built."""
    ks = np.arange(1, _line_net_count(mesh) + 1)
    ws = np.unique(model.ppf(np.minimum(ks * mesh, 1.0 - 1e-12)))
    if size is not None and len(ws) > size:
        ws = ws[np.unique(np.linspace(0, len(ws) - 1, size).round().astype(int))]
    return [half_line(w) for w in ws.tolist()]


# ---------------------------------------------------------------------------
# Observed gaps
# ---------------------------------------------------------------------------

# A block of cusp Holder rows holds at most _GAP_BLOCK_ROWS rows and
# _BLOCK_CELLS values.
_GAP_BLOCK_ROWS = 16


# Generator.random draws k * 2**-53 for an integer k < 2**53
_RANDOM_BITS = 53


def set_riemann_gap_rows(breakpoints: np.ndarray, n_list: Sequence[int]) -> list[list[float]]:
    """|lambda_n(B) - lambda(B)| for the set member B of each row of sorted
    breakpoints (BVectorClass.random_breakpoints), anchored or not, each
    rounded once: one row per n of n_list, the bits of IntervalUnion.riemann_gap.

    The breakpoints must be multiples of 2**-53 in [0, 1], as Generator.random
    draws are (ValueError otherwise), so X = t 2**53 is an integer and
    floor(n t) = (n X - r) / 2**53 with r = n X mod 2**53.  r is exact in
    uint64 for every n: n X wraps modulo 2**64, which 2**53 divides.  Over
    the denominator 2**53, count(B) 2**53 - n M(B) is then the sum of r over
    the left ends minus that over the right ends, and the anchor 0 adds
    nothing; as the ends alternate, the gap is |sum of r over even columns -
    sum over odd columns| / (n 2**53), one correctly rounded int division."""
    scaled = breakpoints * float(2**_RANDOM_BITS)  # exact: a power of two
    if not np.all((scaled >= 0) & (scaled <= 2**_RANDOM_BITS) & (scaled == np.floor(scaled))):
        raise ValueError("breakpoints must be multiples of 2**-53 in [0, 1]")
    if breakpoints.shape[1] > 2048:  # an int64 row sum holds 1024 residues below 2**53
        raise ValueError("set_riemann_gap_rows takes at most 2048 breakpoints per member")
    x = scaled.astype(np.uint64)
    mask = np.uint64(2**_RANDOM_BITS - 1)
    table = []
    for n in n_list:
        r = ((np.uint64(n % 2**64) * x) & mask).astype(np.int64)
        num = np.sum(r[:, ::2], axis=1) - np.sum(r[:, 1::2], axis=1)
        den = n * 2**_RANDOM_BITS
        table.append([abs(v) / den for v in num.tolist()])
    return table


def cusp_riemann_gap_rows(beta: float, cusp_arrays: tuple[np.ndarray, ...],
                          n_list: Sequence[int]) -> list[list[float]]:
    """|lambda_n(h) - lambda(h)| for the cusp members h of one beta given as
    arrays (a, coeffs, centers, cusps), laid out as HolderClass.random_cusps
    returns them, each rounded once: one row per n of n_list, members in order.

    Members are evaluated in row blocks: a block starts at each row's a and
    adds c_k |x - x_k|^beta for k = 0, 1, ... to the rows that have a k-th
    cusp (most cusps first, so those rows are a prefix).  So a member's value
    at a grid point x takes its float operations in one order, whatever the
    block: a, plus c_0 times NumPy's power |x - x_0| ** beta, plus the next
    cusp's term, and so on.  The absolute difference of its row mean
    (np.mean over the n values) and lambda (_cusp_lambda's scalar
    expression) then has the bits of that member's gap computed alone."""
    a, coeffs, centers, cusps = cusp_arrays
    lam = np.array([_cusp_lambda(beta, a_i, c[:k], x[:k])
                    for a_i, c, x, k in zip(a.tolist(), coeffs.tolist(), centers.tolist(),
                                            cusps.tolist())])
    order = np.argsort(-cusps, kind="stable")
    a, coeffs, centers, lam = a[order, None], coeffs[order], centers[order], lam[order]
    with_cusp = [int(np.count_nonzero(cusps > k)) for k in range(coeffs.shape[1])]
    table = []
    for n in n_list:
        grid = grid_points(n)
        step = max(1, min(_GAP_BLOCK_ROWS, _BLOCK_CELLS // n))
        means = np.empty(len(a))
        for lo in range(0, len(a), step):
            hi = min(lo + step, len(a))
            block = np.empty((hi - lo, n))
            block[:] = a[lo:hi]
            for k, top in enumerate(with_cusp):
                top = min(hi, top)
                if top <= lo:
                    break
                block[:top - lo] += coeffs[lo:top, k:k + 1] \
                    * np.abs(grid - centers[lo:top, k:k + 1]) ** beta
            means[lo:hi] = np.mean(block, axis=1)
        gaps = np.empty(len(a))
        gaps[order] = np.abs(means - lam)
        table.append(gaps.tolist())
    return table


def observed_riemann_gap(member, n: int) -> float:
    """|lambda_n(member) - lambda(member)|, rounded once: a set member's read
    in integers (IntervalUnion.riemann_gap), any other member's as the
    difference of its float lambdas."""
    if isinstance(member, IntervalUnion):
        return member.riemann_gap(n)
    return abs(member.lambda_n(n) - member.lambda_exact())
