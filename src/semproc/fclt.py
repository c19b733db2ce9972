"""The standardized process Z_n, its Gaussian limit, and the verification
machinery for the functional-CLT side: the covariance kernel, a
finite-dimensional Gaussian sampler, Lindeberg and quadrature-limit checks, a
fidi convergence test, and the equicontinuity-modulus proxy.

A q is the pair (h, g) of the product q(s, x) = h(s) g(x): h an h member and
g a G member of semproc.function_classes.  The covariance kernel factorizes
over the pair, and the Lindeberg tail is g's closed-form centered_sq_tail at
the values h(i/n); there is no quadrature fallback over x.

Weak convergence in the sup-norm sense is not desk-verifiable; what this
module verifies are its two operational pillars.  Fidi convergence is
measured statistically (empirical covariance and KS distances against the
analytic limit, including random linear combinations for the Cramer-Wold
reduction); the statistics are reported raw and the caller gates them.
Tightness is proxied by the direct process-difference modulus over finite
member pools: sup of |Z_n(f1) - Z_n(f2)| over pairs within alpha in the
composite metric, tracked as alpha shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .function_classes import (
    BoundedPolynomial,
    HalfLine,
    HolderClass,
    HolderMember,
    IndicatorFamily,
    IndicatorMember,
    ProductClass,
    lambda_prod,
    lambda_sq_matrix,
)
from .measures import NuModel, grid_points
from .piecewise import PiecewiseLinear
from .quadrature import DEFAULT_TOL, integrate
from .seeds import derive_seed
from .special import ndtr

__all__ = [
    "make_sx_q",
    "kiefer_cell",
    "cov_kernel",
    "cov_matrix",
    "quadrature_limit_check",
    "lindeberg_check",
    "NotPSDError",
    "gaussian_fidi_sample",
    "FidiTestReport",
    "ks_normal_distance",
    "fidi_convergence_test",
    "ModulusReport",
    "equicontinuity_modulus",
    "fluctuation_bound_check",
]

_KERNEL_TOL = 1e-10      # quadrature tolerance of the covariance kernel
_DEGENERATE_TOL = 1e-12  # limiting variance below which Lindeberg is degenerate
_CLAMP_REL = 1e-10       # eigenvalues in [-_CLAMP_REL * trace, 0) clamp to zero
_N_COMBOS = 5            # random Cramer-Wold combinations in the fidi test
_BLOCK_ROWS = 256        # replicate rows drawn and contracted at a time


# ---------------------------------------------------------------------------
# Q functions
# ---------------------------------------------------------------------------

def kiefer_cell(s0: float, x0: float) -> tuple:
    """q = 1_(0, s0](s) * 1_(-inf, x0](x); under uniform nu the limit process
    restricted to these cells is the classical Kiefer process."""
    return IndicatorMember(s0), HalfLine(x0)


def make_sx_q() -> tuple:
    """q(s, x) = s * x: the identity h times the linear g."""
    return (HolderMember(1.0, 1.0, 1.0, pl=PiecewiseLinear((0.0, 1.0), (0.0, 1.0))),
            BoundedPolynomial((0.0, 1.0)))


def _lambda_integral(fn, h, tol: float) -> float:
    """The integral over s in [0, 1] of fn(h(s)), split at h's breakpoints."""
    return integrate(lambda s: float(fn(np.asarray(h(np.atleast_1d(s)), dtype=float))[0]),
                     0.0, 1.0, tol=tol, breakpoints=h.breakpoints())


# ---------------------------------------------------------------------------
# Covariance kernel
# ---------------------------------------------------------------------------

class NotPSDError(RuntimeError):
    pass


def cov_kernel(q1: tuple, q2: tuple, model: NuModel) -> float:
    """Cov(Z(q1), Z(q2)) factorized as lambda(h1 h2) [nu(g1 g2) - nu(g1) nu(g2)]."""
    (h1, g1), (h2, g2) = q1, q2
    lam = lambda_prod(h1, h2, _KERNEL_TOL)
    return lam * (g1.pair_mean(g2, model) - g1.mean(model) * g2.mean(model))


def cov_matrix(q_list: Sequence[tuple], model: NuModel) -> np.ndarray:
    k = len(q_list)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = cov_kernel(q_list[i], q_list[j], model)
    return out


# ---------------------------------------------------------------------------
# Quadrature limit and Lindeberg checks
# ---------------------------------------------------------------------------

def quadrature_limit_check(q: tuple, model: NuModel,
                           n_list: Sequence[int]) -> list[dict]:
    """Gap |(lambda_n x nu)(q^2) - (lambda x nu)(q^2)| along n_list."""
    h, g = q
    nu_g2 = g.second_moment(model)

    def sq(hs):  # nu(q^2)(s) = h(s)^2 nu(g^2)
        return hs**2 * nu_g2

    limit = _lambda_integral(sq, h, DEFAULT_TOL)
    rows = []
    for n in n_list:
        val = float(np.mean(sq(np.asarray(h(grid_points(n)), dtype=float))))
        rows.append({"n": n, "value": val, "limit": limit, "gap": abs(val - limit)})
    return rows


def lindeberg_check(
    q: tuple,
    model: NuModel,
    n_list: Sequence[int],
    epsilon_list: Sequence[float],
) -> dict:
    """The triangular-array negligibility ratio

        r(n, eps) = [ sum_i tail_i ] / (n V_n),
        tail_i = integral of q_tilde^2(i/n, x) over {|q_tilde(i/n, x)| >= T},
        T = eps sqrt(n V_n),   V_n = (lambda_n x nu)(q_tilde^2),

    with q_tilde(s, x) = h(s) (g(x) - nu(g)), evaluated by g's closed-form
    centered_sq_tail (no sampling, no quadrature over x); a g without one
    raises ValueError.  A row whose grid misses the support of h has V_n = 0
    and reports ratio None.  When the limiting variance (lambda x
    nu)(q_tilde^2) vanishes the degenerate branch is reported instead (the
    limit is the point mass at zero)."""
    h, g = q
    nu_g, nu_g2 = g.mean(model), g.second_moment(model)

    def centered_sq(hs):  # nu(q_tilde^2)(s) = h(s)^2 nu(g^2) - (h(s) nu(g))^2
        return hs**2 * nu_g2 - (hs * nu_g) ** 2

    limit_var = _lambda_integral(centered_sq, h, 1e-11)
    if limit_var < _DEGENERATE_TOL:
        return {"degenerate": True, "limit_variance": limit_var, "rows": []}

    rows = []
    for n in n_list:
        hs = np.asarray(h(grid_points(n)), dtype=float)
        vn = float(np.mean(centered_sq(hs)))
        for eps in epsilon_list:
            T = eps * math.sqrt(n * vn)
            ratio = None
            if vn > 0:
                ratio = float(np.sum(g.centered_sq_tail(model, hs, T))) / (n * vn)
            rows.append({"n": n, "epsilon": eps, "threshold": T, "ratio": ratio,
                         "variance_n": vn})
    return {"degenerate": False, "limit_variance": limit_var, "rows": rows}


# ---------------------------------------------------------------------------
# Gaussian sampling and the fidi test
# ---------------------------------------------------------------------------

def gaussian_fidi_sample(cov: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Centered multivariate normal draws via symmetric eigendecomposition.
    Eigenvalues in [-_CLAMP_REL * trace, 0) are clamped to zero; anything more
    negative signals an inconsistent kernel and raises NotPSDError."""
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise NotPSDError("covariance matrix is not symmetric")
    vals, vecs = np.linalg.eigh(cov)
    tr = max(float(np.trace(cov)), 1e-300)
    if np.any(vals < -_CLAMP_REL * tr):
        raise NotPSDError(
            f"eigenvalue {vals.min():.3e} below -{_CLAMP_REL:.0e} * trace; "
            "quadrature tolerance too loose"
        )
    vals = np.clip(vals, 0.0, None)
    root = vecs * np.sqrt(vals)[None, :]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, cov.shape[0]))
    return z @ root.T


@dataclass
class FidiTestReport:
    n: int
    replicates: int
    analytic_cov: np.ndarray
    empirical_cov: np.ndarray
    max_cov_error: float
    marginal_ks: list
    combo_ks: list


def _draw_blocks(model: NuModel, R: int, n: int, rng: np.random.Generator):
    """The (R, n) draw matrix of rng as consecutive row blocks (lo, hi,
    draws[lo:hi]) of _BLOCK_ROWS rows, drawn one block at a time.

    The generator fills every model's draws in sequence, so the blocks
    concatenate to the one-shot model.draw(rng, (R, n)).  A one-row tail
    joins the block before it: NumPy contracts a one-row matrix through
    another BLAS kernel than the GEMV/GEMM of a taller block, whose sums can
    differ in their last bits."""
    lo = 0
    while lo < R:
        hi = min(lo + _BLOCK_ROWS, R)
        if R - hi == 1:
            hi = R
        yield lo, hi, model.draw(rng, (hi - lo, n))
        lo = hi


def replicate_Z_values(q_list: Sequence[tuple], n: int, R: int, seed: int,
                       model: NuModel) -> np.ndarray:
    """(R, K) matrix of Z_n(q) over R independent replicate samples.

    The replicates are the rows of one (R, n) draw matrix from a single
    derived-seed generator, drawn in row blocks (_draw_blocks); the column of
    q = (h, g) sums g(block) @ h(i/n) block by block, then centres and scales.
    Peak memory is O(_BLOCK_ROWS * n), not O(R * n).
    """
    rng = np.random.default_rng(derive_seed(seed, ["replicate-Z", n, R]))
    svals = grid_points(n)
    hvs = [np.asarray(h(svals), dtype=float) for h, _ in q_list]
    sums = np.empty((R, len(q_list)))
    for lo, hi, draws in _draw_blocks(model, R, n, rng):
        for k, (hv, (_, g)) in enumerate(zip(hvs, q_list)):
            sums[lo:hi, k] = np.asarray(g(draws), dtype=float) @ hv
    centers = np.array([float(np.mean(hv * g.mean(model)))
                        for hv, (_, g) in zip(hvs, q_list)])
    return math.sqrt(n) * (sums / n - centers)


def ks_normal_distance(values: np.ndarray, sd: float) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the empirical law of values
    from N(0, sd^2): the larger of sup(F_m - Phi) and sup(Phi - F_m) over the
    sorted sample.  With Phi from semproc.special.ndtr, which is bit for bit
    scipy.special.ndtr, these are the float operations of scipy.stats.kstest
    against scipy.stats.norm(0, sd).cdf, so the two distances are equal."""
    c = ndtr(np.sort(values) / sd)
    m = len(c)
    plus = float(np.max(np.arange(1.0, m + 1) / m - c))
    minus = float(np.max(c - np.arange(0.0, m) / m))
    return plus if plus > minus else minus


def fidi_convergence_test(
    q_list: Sequence[tuple],
    n: int,
    R: int,
    seed: int,
    model: NuModel,
) -> FidiTestReport:
    """Statistics of finite-dimensional convergence: empirical covariance
    against the analytic kernel, marginal KS distances against the analytic
    normals, and KS for random linear combinations (the Cramer-Wold reduction
    exercised directly).  The caller gates them."""
    analytic = cov_matrix(q_list, model)
    Z = replicate_Z_values(q_list, n, R, seed, model)
    empirical = np.cov(Z.T, ddof=1) if len(q_list) > 1 else np.array(
        [[float(np.var(Z[:, 0], ddof=1))]]
    )
    max_err = float(np.max(np.abs(empirical - analytic)))

    def ks_row(values: np.ndarray, var: float, label: str) -> dict:
        if var <= 1e-15:
            degenerate = bool(np.max(np.abs(values)) <= 1e-9)
            return {"label": label, "ks": 0.0 if degenerate else math.inf,
                    "variance": var, "degenerate": True}
        return {"label": label, "ks": ks_normal_distance(values, math.sqrt(var)),
                "variance": var, "degenerate": False}

    marginal = [ks_row(Z[:, k], float(analytic[k, k]), f"marginal[{k}]")
                for k in range(len(q_list))]
    rng = np.random.default_rng(derive_seed(seed, ["cramer-wold"]))
    combos = []
    for c in range(_N_COMBOS):
        a = rng.standard_normal(len(q_list))
        a /= float(np.linalg.norm(a))
        var = float(a @ analytic @ a)
        combos.append(ks_row(Z @ a, var, f"combo[{c}]"))

    return FidiTestReport(
        n=n, replicates=R,
        analytic_cov=analytic, empirical_cov=empirical,
        max_cov_error=max_err,
        marginal_ks=marginal, combo_ks=combos,
    )


# ---------------------------------------------------------------------------
# Equicontinuity modulus and the fluctuation bound
# ---------------------------------------------------------------------------

def _h_pool(h_class, net_u: float, cap: int, seed: int):
    """Member pool for modulus experiments: the u-net when it fits, otherwise
    a deterministic subsample that keeps both spread (farthest-first sweep)
    and near pairs (each kept member's nearest net neighbor).  Returns the
    pool and its matrix of lambda((h1-h2)^2)."""
    if isinstance(h_class, IndicatorFamily):
        net = h_class.build_net(net_u, "d2_lambda", max_members=10**6)
    elif isinstance(h_class, HolderClass):
        rng = np.random.default_rng(derive_seed(seed, ["h-pool"]))
        net = h_class.net_sample(net_u, 4 * cap, rng, max_members=500_000)
    else:
        raise TypeError(type(h_class))
    sq = lambda_sq_matrix(net)
    if len(net) <= cap:
        return net, sq
    dist = np.sqrt(sq)
    chosen = [0]
    mind = dist[0].copy()
    while len(chosen) < cap // 2:
        far = int(np.argmax(mind))
        if mind[far] <= 0:
            break
        chosen.append(far)
        mind = np.minimum(mind, dist[far])
    pool_idx = set(chosen)
    for i in list(chosen):
        d = dist[i].copy()
        d[list(pool_idx)] = np.inf
        pool_idx.add(int(np.argmin(d)))
        if len(pool_idx) >= cap:
            break
    idx = sorted(pool_idx)
    return [net[i] for i in idx], sq[np.ix_(idx, idx)]


@dataclass(frozen=True)
class _MemberPools:
    """The h pool and g net of a product class with what pairing them needs:
    h_sq[a, b] = lambda((h_a-h_b)^2), the d2_lambda and d2_nu distance
    matrices, and the g moments nu(g_b^2) and nu(g_b g_c)."""

    h: list
    g: list
    h_sq: np.ndarray
    d_h: np.ndarray
    d_g: np.ndarray
    g_second: np.ndarray
    g_cross: np.ndarray


def _member_pools(product_class: ProductClass, net_u: float, h_cap: int, g_cap: int,
                  seed: int, model: NuModel) -> _MemberPools:
    h_pool, h_sq = _h_pool(product_class.h_class, net_u, h_cap, seed)
    g_net = product_class.g_class.build_net(net_u, model, max_members=10**6)
    if len(g_net) > g_cap:
        idx = np.linspace(0, len(g_net) - 1, g_cap).round().astype(int)
        g_net = [g_net[i] for i in sorted(set(idx.tolist()))]
    seconds = np.array([g.second_moment(model) for g in g_net])
    cross = np.array([[g1.pair_mean(g2, model) for g2 in g_net] for g1 in g_net])
    d_g = np.sqrt(np.maximum(seconds[:, None] - 2 * cross + seconds[None, :], 0.0))
    return _MemberPools(h_pool, g_net, h_sq, np.sqrt(h_sq), d_g, seconds, cross)


def _pairs_within(d_h: np.ndarray, d_g: np.ndarray, alpha: float):
    """Member pairs within alpha in the composite metric d_h + d_g.  Member
    (a, b) has flat index a * len(d_g) + b; returns the flat indices p < q of
    each pair in row-major order and the pair distances."""
    k = d_h.shape[0] * d_g.shape[0]
    d = (d_h[:, None, :, None] + d_g[None, :, None, :]).reshape(k, k)
    p, q = np.nonzero(np.triu(d <= alpha, k=1))
    return p, q, d[p, q]


def _modulus_Z(h_vals: np.ndarray, g_list: Sequence, n: int, R: int,
               rng: np.random.Generator, model: NuModel) -> np.ndarray:
    """(R, kh * kg) matrix of Z_n(h_a g_b) in column a * kg + b for the rows
    h_a(i/n) of h_vals: each row block of the draws (_draw_blocks) is
    contracted by the GEMM g_b(block) @ h_vals.T as soon as it is drawn."""
    kg = len(g_list)
    means = np.array([g.mean(model) for g in g_list])
    h_center = h_vals.mean(axis=1)
    Z = np.empty((R, h_vals.shape[0] * kg))
    for lo, hi, draws in _draw_blocks(model, R, n, rng):
        for b, g in enumerate(g_list):
            pn = np.asarray(g(draws), dtype=float) @ h_vals.T / n    # (hi - lo, kh)
            Z[lo:hi, b::kg] = math.sqrt(n) * (pn - h_center[None, :] * means[b])
    return Z


@dataclass
class ModulusReport:
    n: int
    replicates: int
    net_u: float
    rows: list = field(default_factory=list)
    h_pool: int = 0
    g_pool: int = 0


def equicontinuity_modulus(
    product_class: ProductClass,
    n: int,
    alpha_list: Sequence[float],
    net_u: float,
    R: int,
    seed: int,
    model: NuModel,
    h_cap: int = 60,
    g_cap: int = 24,
) -> ModulusReport:
    """Mean over replicates of sup over member pairs within alpha (composite
    metric d = d2_lambda + d2_nu) of |Z_n(f1) - Z_n(f2)|, per alpha.  The
    pair pool is the u-net (deterministically thinned to the caps); a subset
    of the class, so the observed modulus is a lower proxy of the class
    modulus, which is the verifiable direction of the tightness statement.
    The R replicate samples are drawn in row blocks, each contracted into Z
    as soon as it is drawn (_modulus_Z), so no (R, n) array is held."""
    pools = _member_pools(product_class, net_u, h_cap, g_cap, seed, model)
    kh, kg = len(pools.h), len(pools.g)
    svals = grid_points(n)
    h_vals = np.stack([np.asarray(h(svals), dtype=float) for h in pools.h])
    pairs_p, pairs_q, pair_d = _pairs_within(pools.d_h, pools.d_g, max(alpha_list))

    Z = _modulus_Z(h_vals, pools.g, n, R,
                   np.random.default_rng(derive_seed(seed, ["modulus", n, R])), model)

    report = ModulusReport(n=n, replicates=R, net_u=net_u, h_pool=kh, g_pool=kg)
    for alpha in alpha_list:
        mask = pair_d <= alpha
        if not np.any(mask):
            report.rows.append({"alpha": alpha, "mean_modulus": 0.0, "pairs": 0})
            continue
        p_idx, q_idx = pairs_p[mask], pairs_q[mask]
        per_rep = np.zeros(R)
        chunk = 200_000
        for lo in range(0, len(p_idx), chunk):
            sel_p = p_idx[lo:lo + chunk]
            sel_q = q_idx[lo:lo + chunk]
            diff = np.abs(Z[:, sel_p] - Z[:, sel_q])
            per_rep = np.maximum(per_rep, diff.max(axis=1))
        report.rows.append(
            {"alpha": alpha, "mean_modulus": float(per_rep.mean()),
             "pairs": int(mask.sum())}
        )
    return report


def fluctuation_bound_check(
    product_class: ProductClass,
    n_list: Sequence[int],
    alpha_list: Sequence[float],
    net_u: float,
    model: NuModel,
    h_cap: int = 40,
    g_cap: int = 16,
    seed: int = 0,
) -> list[dict]:
    """Deterministic check of the fluctuation bound: for pairs within alpha in
    the composite metric, the (lambda_n x nu) L2 distance is at most

        H_env * d2_nu(g1, g2) + sqrt(nu(G^2)) * (d2_lambda(h1, h2)
                       + sqrt(|lambda_n((h1-h2)^2) - lambda((h1-h2)^2)|)),

    and the sup over alpha-pairs shrinks with alpha."""
    pools = _member_pools(product_class, net_u, h_cap, g_cap, seed, model)
    h_env = product_class.h_class.envelope_constant
    nu_g2 = product_class.g_class.envelope_sq_mean(model)
    p, q, pair_d = _pairs_within(pools.d_h, pools.d_g, max(alpha_list))
    a1, b1 = np.divmod(p, len(pools.g))
    a2, b2 = np.divmod(q, len(pools.g))   # a1 <= a2, so gram_n[a1, a2] is the upper triangle

    rows = []
    for n in n_list:
        svals = grid_points(n)
        hv = np.stack([np.asarray(h(svals), dtype=float) for h in pools.h])
        gram_n = hv @ hv.T / n                       # lambda_n(h_a h_b)
        g11, g12, g22 = gram_n[a1, a1], gram_n[a1, a2], gram_n[a2, a2]
        sq = (g11 * pools.g_second[b1] - 2.0 * g12 * pools.g_cross[b1, b2]
              + g22 * pools.g_second[b2])
        obs = np.sqrt(np.maximum(sq, 0.0))
        lam_gap = np.abs(g11 - 2.0 * g12 + g22 - pools.h_sq[a1, a2])
        bound = h_env * pools.d_g[b1, b2] + math.sqrt(nu_g2) * (
            pools.d_h[a1, a2] + np.sqrt(lam_gap)
        )
        for alpha in alpha_list:
            within = pair_d <= alpha
            rows.append({"n": n, "alpha": alpha,
                         "observed": float(np.max(obs[within], initial=0.0)),
                         "bound": float(np.max(bound[within], initial=0.0)),
                         "pairs": int(within.sum()),
                         "violations": int(np.sum(obs[within] > bound[within] + 1e-9))})
    return rows
