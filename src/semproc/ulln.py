"""Uniform-law-of-large-numbers statistics and bounds.

The exact supremum statistic over B(2j+1) x half-lines works in two layers:

  * Half-line reduction.  For a fixed index set S of grid points, the
    deviation sum is affine in nu(W) and piecewise constant in w between
    order statistics, and the max over the index-set family of an affine
    family is convex in nu(W).  The supremum over all half-lines is therefore
    attained among the n+1 canonical cut positions evaluated at both
    one-sided limits (inclusive constant F(X_(k)) and right limit
    F(X_(k+1)), with 1 at the top end).

  * Interval reduction.  For a fixed half-line column with per-atom terms
    a_i, the supremum over B(2j+1) of |sum_{i/n in B} a_i| is a best-choice
    problem over unions of at most j grid runs plus an optional anchored
    prefix (the initial interval <0, t_0]), solved by a dynamic program
    that sweeps the n rows once and updates all 2n+1 columns of both signs
    at each row: O(n^2 j) time and O(n j) memory.  Ties are broken toward
    fewer runs and leftmost placement by the max() scan order, which keeps
    results deterministic.

For j = 0 (the anchored-prefix-only family B(1)) a branch-and-bound sweep
over blocks of sorted columns bounds each block in O(n), then evaluates
exactly only the (column, step) cells of blocks whose bound can beat the best
value found, with the same float expressions as a full O(n^2) pass and so the
same bits, in O(n) memory; this is what the desk-scale convergence
experiments run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .function_classes import (
    BVectorClass,
    GClass,
    HolderClass,
    IndicatorFamily,
    ProductClass,
    lambda_sq_matrix,
)
from .measures import NuModel, Sample, draw_sample, grid_points, parse_model
from .quadrature import integrate
from .seeds import derive_seed
from .special import gammaincc, log_factorials

__all__ = [
    "DeviationSandwich",
    "sup_deviation_net",
    "sup_deviation_exact_BW",
    "sup_deviation_bruteforce",
    "oscillation_sup",
    "OscillationReport",
    "gc_tail_bound",
    "TailBound",
    "series_I_closed_form",
    "series_I_quadrature",
    "series_S_diagnostic",
    "SeriesSReport",
    "GCExperiment",
    "gc_experiment",
    "GCReport",
]


# ---------------------------------------------------------------------------
# Exact supremum over B x W
# ---------------------------------------------------------------------------

def _canonical_columns(sample: Sample, model: NuModel):
    """Sorted ranks plus the canonical (cut index, nu value) column pairs.

    ranks[i] is the rank of the i-th point among the sorted values.  Cut k
    (the k smallest points) gives the inclusive column (k, F(X_(k))) for
    k >= 1 and the right-limit column (k, F(X_(k+1))), with 1 at k = n, in
    the order (0, F(X_(1))), (1, F(X_(1))), (1, F(X_(2))), ..., (n, 1)."""
    n = sample.n
    xs = sample.xs()
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(1, n + 1)
    f_sorted = np.asarray(model.cdf(xs[order]), dtype=float)  # F(X_(k)), k=1..n
    ks = np.repeat(np.arange(n + 1), 2)[1:]
    nus = np.empty(2 * n + 1)
    nus[0::2] = np.append(f_sorted, 1.0)
    nus[1::2] = f_sorted
    return ranks, ks, nus


def _max_runs_dp(ranks: np.ndarray, ks: np.ndarray, nus: np.ndarray, j: int,
                 anchored: bool) -> float:
    """n times the statistic: the max over the columns (ks, nus), each with
    both signs, and over the selectable index sets of the selected-entry sum
    of a_i = [ranks[i] <= k] - nu.

    The family is <= j free runs, plus, when anchored, an optional prefix
    {1..p} alongside the j runs.  Empty selection (value 0) is always
    allowed, so the value is >= 0.  One sweep over the rows updates every
    column of both signs at once: the state is (family, runs, 2K) with the K
    columns, then their negatives, so the time is O(n K j) and the memory
    O(K j).
    """
    K = len(ks)
    families = 2 if anchored else 1
    # family 0 takes free runs only, family 1 the prefix as well;
    # closed[f, r]: best with <= r runs so far (family 1: after its prefix),
    # opened[f, r - 1]: best with the r-th run ending at the current row
    closed = np.zeros((families, j + 1, 2 * K))
    closed[1:] = -np.inf
    opened = np.full((families, j, 2 * K), -np.inf)
    before, after = closed[:, :-1], closed[:, 1:]
    pref = np.zeros(2 * K)
    inside = np.empty(K, dtype=bool)
    a = np.empty(2 * K)
    plus, minus = a[:K], a[K:]
    for rank in ranks:
        np.less_equal(rank, ks, out=inside)
        np.subtract(inside, nus, out=plus)
        np.negative(plus, out=minus)
        # a run opened at this row follows what closed[r - 1] held one row
        # earlier, so the prefix enters closed[1, 0] only afterwards
        np.maximum(opened, before, out=opened)
        np.add(a, opened, out=opened)
        np.maximum(after, opened, out=after)
        if anchored:
            np.add(pref, a, out=pref)
            np.maximum(closed[1, 0], pref, out=closed[1, 0])
    return float(closed[:, j].max())


def _exact_stat_generic(sample: Sample, model: NuModel, j: int, parity: str) -> float:
    ranks, ks, nus = _canonical_columns(sample, model)
    return _max_runs_dp(ranks, ks, nus, j, parity == "odd") / sample.n


# Sorted columns per block in the j = 0 branch and bound (16-28 measured
# alike at n = 1e3 and 1e4; wider blocks loosen the bounds, narrower ones
# lengthen pass 1).
_PREFIX_BLOCK = 20
# Candidate steps evaluated at once in a visited block, so that its
# (block, steps) arrays stay small.
_PREFIX_STEP_CHUNK = 512
# Pruning slack, in units of (n + 1) eps.  A bound takes two float64 roundings
# (p * F, an integer subtraction) and a candidate three (one more for + 1.0),
# each of a value of magnitude <= n + 1, so together they stray at most
# 5 (n + 1) 2^-53 from the exact candidate <= bound; 4 (n + 1) eps =
# 8 (n + 1) 2^-53 covers that and the rounding of bound + slack itself.
_PREFIX_SLACK_ULPS = 4.0


def _prefix_may_beat(bound, best: float, n: int):
    """Whether a j = 0 bound, computed in float64, may hide a candidate above
    best: a bound equal to best may, by rounding, so it is not pruned."""
    return bound + _PREFIX_SLACK_ULPS * (n + 1) * np.finfo(float).eps > best


def _prefix_branch_and_bound(f_arrival: np.ndarray,
                             block: int = _PREFIX_BLOCK) -> tuple[float, int, int]:
    """n times the j = 0 statistic before the floor at 0, with the number of
    column blocks visited and the number of blocks.

    Columns k are the values sorted by F; a_k is the arrival step of column k
    and C_k(p) counts the points arrived by step p at sorted positions <= k.
    The value is the max over arrived (k, p) of d + 1.0 and -d with
    d = p F_k - C_k(p), the float expressions of a sorted-prefix insertion
    pass (the j-th smallest of the first p values sits at C_k(p) = j), so the
    result is that pass's bit for bit.  For a block of sorted columns, with
    C_base(p) the arrivals in earlier blocks and C_end(p) those through the
    block's end, every candidate at step p is at most

        max(p F_hi - C_base(p), C_end(p) - p F_lo),

    which pass 1 maximises over the steps after the block's first arrival.
    Pass 2 starts from the exact p = n row, visits blocks by decreasing bound
    until a bound cannot beat the best value, and evaluates exactly only the
    steps whose own bound can.  Memory is O(n + block _PREFIX_STEP_CHUNK)."""
    n = len(f_arrival)
    order = np.argsort(f_arrival, kind="stable")   # arrival index of sorted column k
    f_sorted = f_arrival[order]
    n_blocks = -(-n // block)
    block_of = np.empty(n, dtype=np.int64)          # block of the point arriving at step p
    block_of[order] = np.arange(n) // block
    # each block's arrival indices in increasing order, padded with n, and
    # for how many steps from each arrival its count of arrived columns holds
    padded = np.full(n_blocks * block, n)
    padded[:n] = order
    arrivals = np.sort(padded.reshape(n_blocks, block), axis=1)
    holds = np.diff(arrivals, axis=1, append=n)
    counts = np.arange(1.0, block + 1.0)
    f_lo = f_sorted[::block]
    f_hi = f_sorted[np.minimum(np.arange(1, n_blocks + 1) * block, n) - 1]
    steps = np.arange(1.0, n + 1.0)

    def step_bounds(b, c_base):
        # from the block's first arrival on: C_end and the two per-step bounds
        first = arrivals[b, 0]
        c_end = c_base[first:] + np.repeat(counts, holds[b])
        up = steps[first:] * f_hi[b] - c_base[first:]
        down = c_end - steps[first:] * f_lo[b]
        return first, c_end, up, down

    bounds = np.empty(n_blocks)
    c_base = np.zeros(n)
    for b in range(n_blocks):
        first, c_end, up, down = step_bounds(b, c_base)
        bounds[b] = max(up.max(), down.max())
        c_base[first:] = c_end

    d = n * f_sorted - steps                        # the p = n row: C_k(n) = k
    best = max(float(d.max()) + 1.0, -float(d.min()))
    visited = 0
    for b in np.argsort(-bounds, kind="stable"):
        if not _prefix_may_beat(bounds[b], best, n):
            break
        visited += 1
        c_base = np.cumsum(block_of < b, dtype=float)
        first, _, up, down = step_bounds(b, c_base)
        cand = np.flatnonzero(_prefix_may_beat(np.maximum(up, down), best, n)) + first
        cols = slice(b * block, (b + 1) * block)
        for i in range(0, len(cand), _PREFIX_STEP_CHUNK):
            at = cand[i:i + _PREFIX_STEP_CHUNK]
            arrived = order[cols, None] <= at[None, :]
            c = np.cumsum(arrived, axis=0, dtype=float)
            c += c_base[at]                         # C_k(p), exact in float64
            d = np.subtract(steps[at] * f_sorted[cols, None], c, out=c)
            best = max(best, float(d.max(where=arrived, initial=-np.inf)) + 1.0,
                       -float(d.min(where=arrived, initial=np.inf)))
    return best, visited, n_blocks


def _exact_stat_prefix_fast(sample: Sample, model: NuModel) -> float:
    """j = 0 anchored family: the selectable index sets are the grid
    prefixes, so the statistic is

        (1/n) max_p  p * max(KS+_p, KS-_p),

    the running maximum of the prefix-scaled one-sided KS statistics of the
    first p values, computed by a branch-and-bound column sweep."""
    f_arrival = np.atleast_1d(np.asarray(model.cdf(sample.xs()), dtype=float))
    best, _, _ = _prefix_branch_and_bound(f_arrival)
    return max(best, 0.0) / sample.n


def sup_deviation_exact_BW(
    j: int,
    parity: str,
    sample: Sample,
    model: Optional[NuModel] = None,
) -> float:
    """Exact sup over B(2j+1) (parity 'odd') or B(2j) ('even') and all
    half-lines W of |P_n(B x W) - lambda_n(B) nu(W)|."""
    if model is None:
        model = parse_model(sample.model)
    cls = BVectorClass(j, parity)  # validates (j, parity)
    if cls.parity == "odd" and j == 0:
        return _exact_stat_prefix_fast(sample, model)
    return _exact_stat_generic(sample, model, j, parity)


def sup_deviation_bruteforce(
    j: int,
    parity: str,
    sample: Sample,
    model: Optional[NuModel] = None,
) -> float:
    """Independent oracle: exhaustive enumeration over all achievable grid
    index sets and canonical half-line columns.  n <= 16."""
    n = sample.n
    if n > 16:
        raise ValueError("brute force limited to n <= 16")
    if model is None:
        model = parse_model(sample.model)
    ranks, ks, nus = _canonical_columns(sample, model)
    A = (ranks[:, None] <= ks[None, :]).astype(float) - nus[None, :]

    all_masks = np.arange(1 << n, dtype=np.int64)
    bits = (all_masks[:, None] >> np.arange(n)[None, :]) & 1
    run_starts = bits.copy()
    run_starts[:, 1:] &= 1 - bits[:, :-1]
    runs = run_starts.sum(axis=1)
    budget = np.full(len(all_masks), j)
    if parity == "odd":
        budget = budget + bits[:, 0]
    keep = runs <= budget
    sums = bits[keep].astype(float) @ A
    return float(np.max(np.abs(sums))) / n


# ---------------------------------------------------------------------------
# Net sandwich for product classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationSandwich:
    lower: float
    upper: float
    net_u: float
    n: int
    h_net_size: int = 0
    g_net_size: int = 0


def _h_net_for_semp(h_class, u_h: float, n: int):
    """Net of the h side with replacement slack <= u_h in the relevant metric
    (sup norm for Holder, lambda_n L1 for indicators)."""
    if isinstance(h_class, HolderClass):
        return h_class.build_net(u_h)
    if isinstance(h_class, IndicatorFamily):
        if u_h <= 1.5 / n:
            raise ValueError("net_u too small for this n (indicator h side)")
        return h_class.build_net(u_h - 1.0 / n, "d1_lambdan", max_members=10**6)
    raise TypeError(type(h_class))


def _g_net_for_semp(g_class: GClass, u_g: float, sample: Sample, model: NuModel):
    """Half-line net with both empirical and population L1 gaps <= u_g:
    merged sample quantiles and F quantiles."""
    if g_class.kind not in ("half-lines", "initial-intervals"):
        raise ValueError("semp nets shipped for indicator G kinds")
    if u_g <= 1.5 / sample.n:
        raise ValueError("net_u too small for this n (g side)")
    xs_sorted = np.sort(sample.xs())
    stride = max(1, int(math.floor(u_g * sample.n)))
    ws = set(float(x) for x in xs_sorted[stride - 1::stride])
    ws.add(float(xs_sorted[-1]))
    count = math.ceil(1.0 / u_g)
    for i in range(count):
        ws.add(float(model.ppf(min((i + 1) * u_g, 1 - 1e-12))))
    from .function_classes import HalfLine, InitialInterval

    ctor = HalfLine if g_class.kind == "half-lines" else InitialInterval
    return [ctor(w) for w in sorted(ws)]


def sup_deviation_net(
    product_class: ProductClass,
    sample: Sample,
    net_u: float,
) -> DeviationSandwich:
    """Net sandwich for sup |P_n(hg) - lambda_n(h) nu(g)| over F = H * G.

    lower is the max over net pairs; upper = lower + 2 net_u, valid because
    the one-sided replacement error of (h, g) by its net neighbor is at most
    G_env * (h gap) + H_env * (g gap) <= net_u on the P_n side and again on
    the centering side.
    """
    model = parse_model(sample.model)
    if net_u <= 0:
        raise ValueError("net_u must be > 0")
    g_env = product_class.g_class.envelope_constant
    if g_env is None:
        raise ValueError("net sandwich requires a constant G envelope")
    h_env = product_class.h_class.envelope_constant
    u_h = net_u / (2.0 * g_env)
    u_g = net_u / (2.0 * h_env)
    h_net = _h_net_for_semp(product_class.h_class, u_h, sample.n)
    g_net = _g_net_for_semp(product_class.g_class, u_g, sample, model)

    s_grid = sample.grid()
    xs = sample.xs()
    h_vals = np.stack([np.asarray(h(s_grid), dtype=float) for h in h_net])
    g_vals = np.stack([np.asarray(g(xs), dtype=float) for g in g_net])
    h_center = h_vals.mean(axis=1)
    g_mean = np.array([g.mean(model) for g in g_net])

    pn = (h_vals @ g_vals.T) / sample.n
    dev = np.abs(pn - np.outer(h_center, g_mean))
    lower = float(np.max(dev))
    return DeviationSandwich(
        lower=lower, upper=lower + 2.0 * net_u, net_u=net_u, n=sample.n,
        h_net_size=len(h_net), g_net_size=len(g_net),
    )


# ---------------------------------------------------------------------------
# Oscillation statistic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OscillationReport:
    value: float
    net_u: float
    n: int
    pool_size: int


def oscillation_sup(h_class, n: int, net_u: float, pool_cap: int = 120,
                    seed: int = 0) -> OscillationReport:
    """Max over net pairs of |lambda_n((h1-h2)^2) - lambda((h1-h2)^2)|.

    Nets larger than pool_cap are subsampled deterministically; the reported
    value is then a net-restricted maximum (the direction used by the bound
    checks is unaffected: observed <= closed-form bound stays meaningful)."""
    if isinstance(h_class, IndicatorFamily):
        net = h_class.build_net(net_u, "d2_lambda", max_members=10**6)
        ts = np.array(sorted(m.t for m in net))
        best = 0.0
        for i in range(len(ts)):
            width = ts[i:] - ts[i]
            ln = (np.floor(n * ts[i:] + 1e-12) - np.floor(n * ts[i] + 1e-12)) / n
            best = max(best, float(np.max(np.abs(ln - width))))
        return OscillationReport(best, net_u, n, len(ts))
    if not isinstance(h_class, HolderClass):
        raise TypeError(type(h_class))
    net = h_class.net_sample(net_u, pool_cap, np.random.default_rng(seed))
    lam = lambda_sq_matrix(net)
    pts = grid_points(n)
    vals = np.stack([m(pts) for m in net])
    best = 0.0
    for i in range(len(net) - 1):
        ln = np.mean((vals[i] - vals[i + 1:]) ** 2, axis=1)
        best = max(best, float(np.max(np.abs(ln - lam[i, i + 1:]))))
    return OscillationReport(best, net_u, n, len(net))


# ---------------------------------------------------------------------------
# Tail bound and series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailBound:
    value: float
    epsilon: float
    k: int
    vc_dim: int
    vacuous: bool
    applicable: bool


def gc_tail_bound(epsilon: float, k: int, S: int) -> TailBound:
    """8 (k+1)^S exp(-eps^2 k / 32), the Hoeffding-union tail bound for the
    B-empirical deviation, with the Sauer bound on the shatter coefficient.
    Flagged inapplicable when k < 8 eps^-2 (the symmetrization precondition),
    vacuous when the value exceeds 1."""
    if epsilon <= 0 or k < 1 or S < 1:
        raise ValueError("need epsilon > 0, k >= 1, S >= 1")
    log_val = math.log(8.0) + S * math.log(k + 1.0) - epsilon**2 * k / 32.0
    value = math.exp(log_val) if log_val < 700 else math.inf
    return TailBound(
        value=value,
        epsilon=epsilon,
        k=k,
        vc_dim=S,
        vacuous=value > 1.0,
        applicable=k >= 8.0 / epsilon**2,
    )


def series_I_closed_form(c: float, D1: int, D2: int) -> float:
    """The double integral int_1^inf int_y^inf y^D1 x^D2 e^{-cx} dx dy in
    closed form: e^{-c} sum_{p<=D2} sum_{l<=D1+D2-p} c^{-(p+l+2)}
    D2! (D1+D2-p)! / ((D2-p)! (D1+D2-p-l)!)."""
    if c <= 0:
        raise ValueError("c must be > 0")
    if D1 < 0 or D2 < 0:
        raise ValueError("D1, D2 must be >= 0")
    terms = [
        (math.factorial(D2) * math.factorial(D1 + D2 - p)
         // (math.factorial(D2 - p) * math.factorial(D1 + D2 - p - l)), p + l + 2)
        for p in range(D2 + 1) for l in range(D1 + D2 - p + 1)
    ]
    log_c = math.log(c)
    total = 0.0
    for ratio, e in terms:
        if ratio.bit_length() > 1023 or -e * log_c > 709.0:
            break   # float(ratio) or c ** -e would raise OverflowError
        total += ratio * c ** (-e)
        if not math.isfinite(total):
            break
    else:
        return math.exp(-c) * total
    # big-number fallback: accumulate in log space (math.log handles big ints)
    logs = [math.log(ratio) - e * log_c for ratio, e in terms]
    m = max(logs)
    log_sum = m + math.log(math.fsum(math.exp(v - m) for v in logs))
    out = -c + log_sum
    return math.exp(out) if out < 700 else math.inf


# series_I_quadrature's tolerance relative to a coarse first pass: 1e-7 gave
# errors up to 1.5e-6 against the closed form, over the 1e-6 ledger gate
_SERIES_REL_TOL = 1e-9


def series_I_quadrature(c: float, D1: int, D2: int) -> float:
    """Independent quadrature oracle for the same double integral.  The inner
    integral is the upper incomplete gamma closed form
    int_y^inf x^D2 e^{-cx} dx = Gamma(D2+1, c y) / c^(D2+1); the outer one runs
    over u = 1/y in (0, 1] by adaptive Simpson, with the absolute tolerance
    _SERIES_REL_TOL times a coarse first pass (the values on the bounds grid
    span about 0.1 to 3e5)."""
    scale = math.gamma(D2 + 1) / c ** (D2 + 1)

    def f(u):
        return u ** -(D1 + 2) * gammaincc(D2 + 1, c / u) * scale

    return integrate(f, 0.0, 1.0, tol=_SERIES_REL_TOL * abs(integrate(f, 0.0, 1.0, tol=1e-3)))


@dataclass(frozen=True)
class SeriesSReport:
    D: int
    c: float
    N: int
    partial_sums: tuple[float, ...]
    tail_increment: float
    bound_sequence: tuple[float, ...]
    classification: str


def series_S_diagnostic(D: int, c: float, N: int = 400) -> SeriesSReport:
    """Partial sums of S(D, c) = sum_n sum_{k<=n} k^D C(n,k) e^{-cn} with the
    dichotomy at c = log 2: upper bound sum_n n^D (2 e^{-c})^n for c > log 2,
    divergent lower bound terms (2 e^{-c})^n otherwise."""
    if D < 1 or c <= 0 or N < 1 or N > 10**4:
        raise ValueError("need D >= 1, c > 0, 1 <= N <= 1e4")
    partial = []
    total = 0.0
    lf = log_factorials(N)
    for n in range(1, N + 1):
        k = np.arange(1, n + 1, dtype=float)
        logs = D * np.log(k) + lf[n] - lf[1:n + 1] - lf[n - 1::-1]
        m = float(np.max(logs))
        inner = m + math.log(float(np.sum(np.exp(logs - m))))
        total += math.exp(inner - c * n) if inner - c * n > -745 else 0.0
        partial.append(total)
    tail = partial[-1] - partial[-2] if N >= 2 else partial[-1]
    ratio = 2.0 * math.exp(-c)
    if c > math.log(2.0):
        bound = []
        acc = 0.0
        for n in range(1, N + 1):
            acc += n**D * ratio**n
            bound.append(acc)
        classification = "convergent"
    else:
        bound = [ratio**n for n in range(1, N + 1)]
        classification = "divergent"
    return SeriesSReport(
        D=D, c=c, N=N,
        partial_sums=tuple(partial),
        tail_increment=tail,
        bound_sequence=tuple(bound),
        classification=classification,
    )


# ---------------------------------------------------------------------------
# GC experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GCExperiment:
    j: int = 0
    parity: str = "odd"
    model: str = "uniform01"
    n_schedule: tuple[int, ...] = (100, 1000, 10000)
    replicates: int = 200
    seed: int = 0
    centering: str = "lambda_n"

    def __post_init__(self):
        if self.centering not in ("lambda_n", "lambda"):
            raise ValueError(f"centering must be lambda_n or lambda, got {self.centering!r}")


@dataclass
class GCReport:
    config: GCExperiment
    rows: list = field(default_factory=list)
    # n -> the replicate statistics before any lambda-centering correction;
    # kept for callers that reuse a replicate, not part of the rows
    replicate_values: dict = field(default_factory=dict, repr=False)


def gc_experiment(config: GCExperiment) -> GCReport:
    """Replicated exact deviations per n, plus the deterministic correction
    term when the centering is lambda rather than lambda_n (triangle split:
    the lambda-centered sup is bounded by the exact statistic plus
    sup_B |lambda_n(B) - lambda(B)| times sup_W nu(W) <= the class gap).

    Replicates are independent with per-replicate derived seeds; results are
    assembled in replicate order, so the report does not depend on how the
    replicates are scheduled."""
    model = parse_model(config.model)
    cls = BVectorClass(config.j, config.parity)
    report = GCReport(config=config)

    def one(n: int, r: int) -> float:
        seed = derive_seed(config.seed, ["gc", n, r])
        sample = draw_sample(model, n, seed)
        return sup_deviation_exact_BW(config.j, config.parity, sample, model)

    for n in config.n_schedule:
        vals = np.empty(config.replicates)
        for r in range(config.replicates):
            vals[r] = one(n, r)
        report.replicate_values[n] = vals.copy()
        if config.centering == "lambda":
            vals += cls.sup_lambda_gap(n)  # sup_W nu(W) <= 1 for half-lines
        report.rows.append(
            {
                "n": n,
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
                "q95": float(np.quantile(vals, 0.95)),
                "max": float(vals.max()),
                "lambda_gap_bound": cls.riemann_gap_bound(n),
                "sup_lambda_gap": cls.sup_lambda_gap(n),
            }
        )
    return report
