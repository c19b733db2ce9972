"""The standardized process Z_n, its Gaussian limit, and the verification
machinery for the functional-CLT side: the covariance kernel, a sampler of
the Kiefer process, the Lindeberg check, a fidi convergence test, and the
equicontinuity-modulus proxy.

A q is the pair (h, g) of the product q(s, x) = h(s) g(x): h an h member and
g a G member of semproc.function_classes, an interval of the line or a
polynomial.  The covariance kernel lambda(h1 h2) Cov_nu(g1, g2), the
Lindeberg limit variance and its tail are closed forms, read from g's mean,
pair_mean and centered_sq_tail (at the values h(i/n)); nothing here
integrates by quadrature.

One kernel, process_deviations, computes P_n(hg) - lambda_n(h) nu(g) for the
fidi test, the modulus and the ULLN net sandwich (semproc.ulln).

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

from .covering import greedy_net_indices, product_distances
from .function_classes import (
    INDICATORS,
    BoundedPolynomial,
    HolderClass,
    grid_values,
    half_line,
    half_line_net,
    indicator,
    indicator_net,
    lambda_prod,
    lambda_sq_matrix,
)
from .measures import NuModel
from .piecewise import PiecewiseLinear
from .seeds import derive_seed
from .special import ndtr

__all__ = [
    "make_sx_q",
    "kiefer_cell",
    "kiefer_cells",
    "cov_kernel",
    "cov_matrix",
    "lindeberg_check",
    "gaussian_fidi_sample",
    "process_deviations",
    "ks_normal_distance",
    "fidi_convergence_test",
    "ModulusReport",
    "equicontinuity_modulus",
]

_DEGENERATE_TOL = 1e-12  # limiting variance below which Lindeberg is degenerate
_N_COMBOS = 5            # random Cramer-Wold combinations in the fidi test
_BLOCK_ROWS = 256        # replicate rows drawn and contracted at a time
_TINY = 5e-324           # a greedy radius that stops only at distance 0
_H_CAP, _G_CAP = 60, 24  # h members and half-lines in a modulus pool


# ---------------------------------------------------------------------------
# Q functions
# ---------------------------------------------------------------------------

def kiefer_cell(s0: float, x0: float) -> tuple:
    """q = 1_(0, s0](s) * 1_(-inf, x0](x); under uniform nu the limit process
    restricted to these cells is the classical Kiefer process."""
    return indicator(s0), half_line(x0)


def kiefer_cells(grid: int) -> list:
    """kiefer_cell((i + 1) / grid, (k + 1) / grid) at row i * grid + k."""
    return [kiefer_cell((i + 1) / grid, (k + 1) / grid) for i in range(grid) for k in range(grid)]


def make_sx_q() -> tuple:
    """q(s, x) = s * x: the identity h times the linear g."""
    return PiecewiseLinear((0.0, 1.0), (0.0, 1.0)), BoundedPolynomial((0.0, 1.0))


# ---------------------------------------------------------------------------
# Covariance kernel
# ---------------------------------------------------------------------------

def cov_kernel(q1: tuple, q2: tuple, model: NuModel) -> float:
    """Cov(Z(q1), Z(q2)) factorized as lambda(h1 h2) [nu(g1 g2) - nu(g1) nu(g2)]."""
    (h1, g1), (h2, g2) = q1, q2
    lam = lambda_prod(h1, h2)
    return lam * (g1.pair_mean(g2, model) - g1.mean(model) * g2.mean(model))


def cov_matrix(q_list: Sequence[tuple], model: NuModel) -> np.ndarray:
    k = len(q_list)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = cov_kernel(q_list[i], q_list[j], model)
    return out


# ---------------------------------------------------------------------------
# Lindeberg check
# ---------------------------------------------------------------------------

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
    and reports ratio None.  The limiting variance (lambda x nu)(q_tilde^2)
    is the closed form Var_nu(g) lambda(h^2); when it vanishes the
    degenerate branch is reported instead (the limit is the point mass at
    zero)."""
    h, g = q
    nu_g, nu_g2 = g.mean(model), g.pair_mean(g, model)
    limit_var = (nu_g2 - nu_g**2) * lambda_prod(h, h)
    if limit_var < _DEGENERATE_TOL:
        return {"degenerate": True, "limit_variance": limit_var, "rows": []}

    rows = []
    for n in n_list:
        hs = grid_values([h], n)[0]
        # V_n averages nu(q_tilde^2)(s) = h(s)^2 nu(g^2) - (h(s) nu(g))^2
        vn = float(np.mean(hs**2 * nu_g2 - (hs * nu_g) ** 2))
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

def gaussian_fidi_sample(grid: int, count: int, seed: int) -> np.ndarray:
    """count draws of the Kiefer process K(s, x) = W(s, x) - x W(s, 1), W a
    Brownian sheet, at the rows of kiefer_cells(grid), one column per draw.  W
    sums independent N(0, 1 / grid^2) cell increments, in place along s and
    then along x, in one cell-major (grid, grid, count) array; no covariance
    matrix is factored, and the x = 1 column of K is exactly 0.0."""
    w = np.random.default_rng(seed).standard_normal((grid, grid, count))
    w /= grid
    for i in range(1, grid):
        w[i] += w[i - 1]
    for k in range(1, grid):
        w[:, k] += w[:, k - 1]
    for k in range(grid):
        w[:, k] -= ((k + 1) / grid) * w[:, -1]
    return w.reshape(grid * grid, count)


def _draw_blocks(model: NuModel, R: int, n: int, rng: np.random.Generator):
    """The (R, n) draw matrix of rng as consecutive row blocks (lo, hi,
    draws[lo:hi]) of _BLOCK_ROWS rows, drawn one block at a time.

    The generator fills every model's draws in sequence, so the blocks
    concatenate to the one-shot model.draw(rng, (R, n)).  A one-row tail
    joins the block before it: NumPy contracts a one-row matrix through
    another BLAS kernel than the GEMV or GEMM of a taller block in
    process_deviations, whose sums can differ in their last bits."""
    lo = 0
    while lo < R:
        hi = min(lo + _BLOCK_ROWS, R)
        if R - hi == 1:
            hi = R
        yield lo, hi, model.draw(rng, (hi - lo, n))
        lo = hi


def process_deviations(h_vals: np.ndarray, g_list: Sequence, rows: np.ndarray,
                       model: NuModel, by_h: bool = False) -> np.ndarray:
    """P_n(h_a g_b) - lambda_n(h_a) nu(g_b) per row of rows (m, n) in column
    a * kg + b, for h_a(i/n) the rows of h_vals (kh, n): the GEMM g_b(rows) @
    h_vals.T / n minus lambda_n(h_a) nu(g_b).  by_h takes one GEMV per h_a,
    whose sums, unlike the GEMM's, do not depend on m (row blocks then give
    the bits of one call on all rows)."""
    n, kg = rows.shape[1], len(g_list)
    h_center = h_vals.mean(axis=1)
    out = np.empty((rows.shape[0], h_vals.shape[0] * kg))
    for b, g in enumerate(g_list):
        gv = np.asarray(g(rows), dtype=float)
        pn = (np.stack([gv @ hv for hv in h_vals], axis=1) if by_h else gv @ h_vals.T) / n
        out[:, b::kg] = pn - h_center * g.mean(model)
        del gv  # so the next g's values reuse its memory, not fresh pages
    return out


def _replicate_Z(h_list: Sequence, g_list: Sequence, cols, n: int, R: int, seed: int,
                 model: NuModel, by_h: bool) -> np.ndarray:
    """The columns cols of sqrt(n) process_deviations over the (R, n) draws of
    default_rng(seed), C-ordered, each row block contracted as it is drawn."""
    h_vals = grid_values(h_list, n)
    Z = np.empty((R, len(cols)))
    for lo, hi, draws in _draw_blocks(model, R, n, np.random.default_rng(seed)):
        Z[lo:hi] = math.sqrt(n) * process_deviations(h_vals, g_list, draws, model, by_h)[:, cols]
    return Z


def replicate_Z_values(q_list: Sequence[tuple], n: int, R: int, seed: int,
                       model: NuModel) -> np.ndarray:
    """(R, K) matrix of Z_n(q) over R replicate samples: the rows of one (R,
    n) draw matrix of a derived-seed generator, drawn in row blocks
    (_draw_blocks), so peak memory is O(_BLOCK_ROWS * n), not O(R * n).  The
    q columns are read from the product of the q list's distinct h and g
    members (process_deviations, by_h), each g evaluated once per block."""
    hs, gs = list(dict.fromkeys(h for h, _ in q_list)), list(dict.fromkeys(g for _, g in q_list))
    cols = [hs.index(h) * len(gs) + gs.index(g) for h, g in q_list]
    return _replicate_Z(hs, gs, cols, n, R, derive_seed(seed, ["replicate-Z", n, R]), model, True)


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
) -> dict:
    """Statistics of finite-dimensional convergence, as the fclt report's
    "fidi" section: empirical covariance against the analytic kernel,
    marginal KS distances against the analytic normals, and KS for random
    linear combinations (the Cramer-Wold reduction exercised directly); "ks"
    holds the marginal rows, then the combination rows.  The caller gates
    them."""
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
        a /= math.sqrt(a.dot(a))
        var = float(a @ analytic @ a)
        combos.append(ks_row(Z @ a, var, f"combo[{c}]"))

    return {"n": n, "replicates": R, "analytic_cov": analytic.tolist(),
            "empirical_cov": empirical.tolist(), "max_cov_error": max_err,
            "marginal_ks": marginal, "combo_ks": combos, "ks": marginal + combos}


# ---------------------------------------------------------------------------
# Equicontinuity modulus
# ---------------------------------------------------------------------------

def _h_pool(h_class, net_u: float, seed: int):
    """Member pool for modulus experiments: the u-net when it fits, otherwise
    a deterministic subsample that keeps both spread (farthest-first sweep)
    and near pairs (each kept member's nearest net neighbor).  Returns the
    pool and its matrix of lambda((h1-h2)^2).  The indicators, B(1), take
    the mesh net_u^2, so that neighbors are within net_u in d2_lambda.  A
    net of more than 4 _H_CAP members is first thinned to 4 _H_CAP drawn at
    random, before any member or distance is computed."""
    rng = np.random.default_rng(derive_seed(seed, ["h-pool"]))
    if h_class == INDICATORS:
        net = indicator_net(net_u * net_u, 4 * _H_CAP, rng)
    elif isinstance(h_class, HolderClass):
        net = h_class.build_net(net_u, 4 * _H_CAP, rng)
    else:
        raise TypeError(type(h_class))
    sq = lambda_sq_matrix(net)
    if len(net) <= _H_CAP:
        return net, sq
    dist = np.sqrt(sq)
    # farthest-first from member 0 until the spread phase holds _H_CAP // 2
    # members (at least member 0) or every member is at distance 0 from it
    chosen = greedy_net_indices(dist, _TINY)[:max(1, _H_CAP // 2)]
    pool_idx = set(chosen)
    for i in chosen:
        d = dist[i].copy()
        d[list(pool_idx)] = np.inf
        pool_idx.add(int(np.argmin(d)))
        if len(pool_idx) >= _H_CAP:
            break
    idx = sorted(pool_idx)
    return [net[i] for i in idx], sq[np.ix_(idx, idx)]


def _member_pools(h_class, net_u: float, seed: int, model: NuModel) -> tuple:
    """The h pool and the half-line net of d2_nu mesh net_u, thinned to the
    caps, with their distance matrices: (h_pool, g_pool, d_h, d_g); for
    half-lines nu((g1 - g2)^2) = |F(w1) - F(w2)|, as for indicators."""
    h_pool, h_sq = _h_pool(h_class, net_u, seed)
    g_net = half_line_net(net_u * net_u, model, _G_CAP)
    F = np.array([g.mean(model) for g in g_net])
    return h_pool, g_net, np.sqrt(h_sq), np.sqrt(np.abs(np.subtract.outer(F, F)))


def _pairs_within(d_h: np.ndarray, d_g: np.ndarray, alpha: float):
    """Member pairs within alpha in the composite metric d_h + d_g
    (covering.product_distances); returns the flat indices p < q of each
    pair in row-major order and the pair distances."""
    d = product_distances(d_h, d_g)
    p, q = np.nonzero(np.triu(d <= alpha, k=1))
    return p, q, d[p, q]


@dataclass
class ModulusReport:
    net_u: float
    rows: list = field(default_factory=list)
    h_pool: int = 0
    g_pool: int = 0


def equicontinuity_modulus(
    h_class,
    n: int,
    alpha_list: Sequence[float],
    net_u: float,
    R: int,
    seed: int,
    model: NuModel,
) -> ModulusReport:
    """Mean over replicates of sup over member pairs of F = h_class x
    half-lines within alpha (composite metric d = d2_lambda + d2_nu) of
    |Z_n(f1) - Z_n(f2)|, per alpha.  The pair pool is the u-net
    (deterministically thinned to the caps); a subset of the class, so the
    observed modulus is a lower proxy of the class modulus, which is the
    verifiable direction of the tightness statement.
    The R replicate samples are drawn in row blocks, each contracted into Z
    as soon as it is drawn (process_deviations), so no (R, n) array is held."""
    h_pool, g_pool, d_h, d_g = _member_pools(h_class, net_u, seed, model)
    kh, kg = len(h_pool), len(g_pool)
    pairs_p, pairs_q, pair_d = _pairs_within(d_h, d_g, max(alpha_list))

    Z = _replicate_Z(h_pool, g_pool, range(kh * kg), n, R,
                     derive_seed(seed, ["modulus", n, R]), model, False)

    report = ModulusReport(net_u=net_u, h_pool=kh, g_pool=kg)
    for alpha in alpha_list:
        mask = pair_d <= alpha
        p_idx, q_idx = pairs_p[mask], pairs_q[mask]
        per_rep = np.zeros(R)
        chunk = 200_000
        for lo in range(0, len(p_idx), chunk):
            diff = np.abs(Z[:, p_idx[lo:lo + chunk]] - Z[:, q_idx[lo:lo + chunk]])
            per_rep = np.maximum(per_rep, diff.max(axis=1))
        report.rows.append(
            {"alpha": alpha, "mean_modulus": float(per_rep.mean()),
             "pairs": int(mask.sum())}
        )
    return report
