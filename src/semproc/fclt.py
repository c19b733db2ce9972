"""The standardized process Z_n, its Gaussian limit, and the verification
machinery for the functional-CLT side: the covariance kernel (factorized over
product q's), a finite-dimensional Gaussian sampler, Lindeberg and
quadrature-limit checks, a fidi convergence test, and the
equicontinuity-modulus proxy.  The Lindeberg tails are closed forms only
(each q builder's tilde_tail); there is no quadrature fallback over x.

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
from typing import Optional, Sequence

import numpy as np

from .function_classes import (
    HalfLine,
    HolderClass,
    IndicatorFamily,
    IndicatorMember,
    ProductClass,
    lambda_prod,
    lambda_sq_matrix,
)
from .measures import NuModel, QFunction, Sample, grid_points, parse_model
from .seeds import derive_seed
from .special import ndtr

__all__ = [
    "make_product_q",
    "make_sx_q",
    "kiefer_cell",
    "center_q",
    "ZProcessEval",
    "eval_Zn",
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

_SQRT2PI = math.sqrt(2.0 * math.pi)
_KERNEL_TOL = 1e-10      # quadrature tolerance of the covariance kernel
_DEGENERATE_TOL = 1e-12  # limiting variance below which Lindeberg is degenerate
_CLAMP_REL = 1e-10       # eigenvalues in [-_CLAMP_REL * trace, 0) clamp to zero
_N_COMBOS = 5            # random Cramer-Wold combinations in the fidi test


# ---------------------------------------------------------------------------
# Q builders
# ---------------------------------------------------------------------------

def make_product_q(h, g) -> QFunction:
    """q(s, x) = h(s) g(x) with exact conditional-moment hooks."""
    h_env = h.envelope_bound()
    g_env = g.envelope_bound()

    def fn(s, xs):
        return np.asarray(h(s), dtype=float) * np.asarray(g(xs), dtype=float)

    def nu_mean(model, svals):
        return np.asarray(h(svals), dtype=float) * g.mean(model)

    def nu_sq(model, svals):
        return np.asarray(h(svals), dtype=float) ** 2 * g.second_moment(model)

    tilde_tail = None
    if g_env is not None:
        def tilde_tail(model, s, T):
            # centered product with a two-valued g: exact truncated 2nd
            # moment, vectorized over the time grid
            m = g.mean(model)
            hs = np.asarray(h(np.atleast_1d(np.asarray(s, dtype=float))), dtype=float)
            v_in = hs * (1.0 - m)    # value on {g = 1}, probability m
            v_out = -hs * m          # value on {g = 0}, probability 1 - m
            out = np.where(np.abs(v_in) >= T, v_in**2 * m, 0.0)
            out += np.where(np.abs(v_out) >= T, v_out**2 * (1.0 - m), 0.0)
            return out

    return QFunction(
        fn=fn,
        label=f"product[{type(h).__name__}*{type(g).__name__}]",
        nu_mean=nu_mean,
        nu_sq=nu_sq,
        sup_bound=None if g_env is None else h_env * g_env,
        s_breakpoints=h.breakpoints(),
        h_member=h,
        g_member=g,
        tilde_tail=tilde_tail,
    )


def kiefer_cell(s0: float, x0: float) -> QFunction:
    """q = 1_(0, s0](s) * 1_(-inf, x0](x); under uniform nu the limit process
    restricted to these cells is the classical Kiefer process."""
    return make_product_q(IndicatorMember(s0), HalfLine(x0))


def make_sx_q() -> QFunction:
    """q(s, x) = s * x."""

    def fn(s, xs):
        return np.asarray(s, dtype=float) * np.asarray(xs, dtype=float)

    def nu_mean(model, svals):
        return np.asarray(svals, dtype=float) * model.moment(1)

    def nu_sq(model, svals):
        return np.asarray(svals, dtype=float) ** 2 * model.moment(2)

    def tilde_tail(model, s, T):
        # s^2 E[(X - mu)^2; |X - mu| >= a], a = T / s, in closed form per model
        svals = np.atleast_1d(np.asarray(s, dtype=float))
        with np.errstate(divide="ignore"):
            t = np.where(svals > 0, T / np.maximum(np.abs(svals), 1e-300), np.inf)
        if model.kind == "standard-normal":
            # t phi(t) + Phi(-t) is exactly 0 past t = 38; evaluating only the
            # nearer points keeps exp off subnormals, Phi off the bulk of a
            # fine grid and t = inf (s = 0) out of inf * 0
            near = t <= 38.0
            tn = t[near]
            tail = np.zeros(t.shape)
            tail[near] = tn * (np.exp(-0.5 * tn**2) / _SQRT2PI) + ndtr(-tn)
            return svals**2 * 2.0 * tail
        if model.kind == "uniform01":
            # 2 * int_a^(1/2) y^2 dy, exactly 0 once a >= 1/2
            return svals**2 * ((2.0 / 3.0) * (0.125 - np.minimum(t, 0.5) ** 3))
        # exponential(rate), mu = 1/rate: the upper piece X >= mu + a always,
        # the lower piece 0 <= X <= mu - a only while a < mu
        rate = model.params[0]
        mu = 1.0 / rate
        a = np.minimum(t, 745.0 * mu)   # exp(-1 - rate * a) underflows to 0 there
        upper = np.exp(-1.0 - rate * a) * (a * a + 2.0 * mu * a + 2.0 * mu * mu)
        b = np.minimum(a, mu)           # keeps exp finite where the piece is empty
        lower = mu * mu - np.exp(rate * b - 1.0) * (b * b - 2.0 * mu * b + 2.0 * mu * mu)
        return svals**2 * (upper + np.where(a < mu, lower, 0.0))

    return QFunction(
        fn=fn,
        label="s*x",
        nu_mean=nu_mean,
        nu_sq=nu_sq,
        tilde_tail=tilde_tail,
    )


def center_q(q: QFunction, model: NuModel) -> QFunction:
    """q_tilde(s, x) = q(s, x) - nu(q)(s); stays in the admissible class with
    the sup bound enlarged by the conditional-mean bound."""
    try:
        probe = q.conditional_mean(model, np.asarray([0.5]))
    except Exception as exc:  # pragma: no cover - defensive
        raise ValueError(f"q is not integrable under {model.name}: {exc}") from exc
    if not np.all(np.isfinite(probe)):
        raise ValueError(f"q is not integrable under {model.name}")

    sgrid = np.linspace(0.0, 1.0, 2001)
    mean_bound = float(np.max(np.abs(q.conditional_mean(model, sgrid)))) + 1e-9

    def fn(s, xs):
        return q.fn(s, xs) - q.conditional_mean(model, s)

    def nu_mean(_model, svals):
        return np.zeros_like(np.asarray(svals, dtype=float))

    def nu_sq(_model, svals):
        base = q.conditional_sq_mean(_model, svals)
        means = q.conditional_mean(_model, svals)
        return base - means**2

    return QFunction(
        fn=fn,
        label=f"centered[{q.label}]",
        nu_mean=nu_mean,
        nu_sq=nu_sq,
        sup_bound=None if q.sup_bound is None else q.sup_bound + mean_bound,
        s_breakpoints=q.s_breakpoints,
        tilde_tail=q.tilde_tail,
    )


# ---------------------------------------------------------------------------
# Z_n evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZProcessEval:
    n: int
    values: tuple[float, ...]
    labels: tuple[str, ...]


def eval_Zn(q_list: Sequence[QFunction], sample: Sample,
            model: Optional[NuModel] = None) -> ZProcessEval:
    """Z_n(q) = sqrt(n) (P_n(q) - (lambda_n x nu)(q)) for each q."""
    if model is None:
        model = parse_model(sample.model)
    n = sample.n
    svals = sample.grid()
    xs = sample.xs()
    out = []
    for q in q_list:
        pn = float(np.mean(q.fn(svals, xs)))
        center = q.product_mean_lambda_n(model, n)
        out.append(math.sqrt(n) * (pn - center))
    return ZProcessEval(n=n, values=tuple(out), labels=tuple(q.label for q in q_list))


# ---------------------------------------------------------------------------
# Covariance kernel
# ---------------------------------------------------------------------------

class NotPSDError(RuntimeError):
    pass


def cov_kernel(q1: QFunction, q2: QFunction, model: NuModel) -> float:
    """Cov(Z(q1), Z(q2)) for product q's, factorized as
    lambda(h1 h2) [nu(g1 g2) - nu(g1) nu(g2)]."""
    if q1.h_member is None or q2.h_member is None:
        raise ValueError("the covariance kernel requires product-form q functions")
    g1, g2 = q1.g_member, q2.g_member
    lam = lambda_prod(q1.h_member, q2.h_member, _KERNEL_TOL)
    return lam * (g1.pair_mean(g2, model) - g1.mean(model) * g2.mean(model))


def cov_matrix(q_list: Sequence[QFunction], model: NuModel) -> np.ndarray:
    k = len(q_list)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(i, k):
            out[i, j] = out[j, i] = cov_kernel(q_list[i], q_list[j], model)
    return out


# ---------------------------------------------------------------------------
# Quadrature limit and Lindeberg checks
# ---------------------------------------------------------------------------

def quadrature_limit_check(q: QFunction, model: NuModel,
                           n_list: Sequence[int]) -> list[dict]:
    """Gap |(lambda_n x nu)(q^2) - (lambda x nu)(q^2)| along n_list."""
    limit = q.product_sq_mean_lambda(model)
    rows = []
    for n in n_list:
        val = q.product_sq_mean_lambda_n(model, n)
        rows.append({"n": n, "value": val, "limit": limit, "gap": abs(val - limit)})
    return rows


def lindeberg_check(
    q: QFunction,
    model: NuModel,
    n_list: Sequence[int],
    epsilon_list: Sequence[float],
) -> dict:
    """The triangular-array negligibility ratio

        r(n, eps) = [ sum_i tail_i ] / (n V_n),
        tail_i = integral of q_tilde^2(i/n, x) over {|q_tilde(i/n, x)| >= T},
        T = eps sqrt(n V_n),   V_n = (lambda_n x nu)(q_tilde^2),

    evaluated by q's tilde_tail closed form (no sampling, no quadrature over
    x); a non-degenerate q without one raises ValueError.  When the limiting
    variance (lambda x nu)(q_tilde^2) vanishes the degenerate branch is
    reported instead (the limit is the point mass at zero)."""
    qc = center_q(q, model)
    limit_var = qc.product_sq_mean_lambda(model, tol=1e-11)
    if limit_var < _DEGENERATE_TOL:
        return {"degenerate": True, "limit_variance": limit_var, "rows": []}
    if q.tilde_tail is None:
        raise ValueError(f"lindeberg_check needs a closed-form tilde_tail; {q.label} has none")

    rows = []
    for n in n_list:
        svals = grid_points(n)
        vn = float(np.mean(qc.conditional_sq_mean(model, svals)))
        T = None
        for eps in epsilon_list:
            T = eps * math.sqrt(n * vn)
            if qc.sup_bound is not None and T > qc.sup_bound:
                ratio = 0.0  # truncation set empty beyond the bound
            else:
                ratio = float(np.sum(q.tilde_tail(model, svals, T))) / (n * vn)
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


def replicate_Z_values(q_list: Sequence[QFunction], n: int, R: int, seed: int,
                       model: NuModel) -> np.ndarray:
    """(R, K) matrix of Z_n(q) over R independent replicate samples.

    Bulk path: one (R, n) draw matrix from a single derived-seed generator;
    product-form q columns are evaluated by matrix products.
    """
    draws = model.draw(np.random.default_rng(derive_seed(seed, ["replicate-Z", n, R])), (R, n))
    svals = grid_points(n)
    cols = []
    for q in q_list:
        center = q.product_mean_lambda_n(model, n)
        if q.h_member is not None:
            hv = np.asarray(q.h_member(svals), dtype=float)
            gv = np.asarray(q.g_member(draws), dtype=float)
            pn = gv @ hv / n
        else:
            pn = np.mean(q.fn(svals, draws), axis=1)
        cols.append(math.sqrt(n) * (pn - center))
    return np.stack(cols, axis=1)


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
    q_list: Sequence[QFunction],
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
    g_net = product_class.g_class.build_net(net_u, model, "d2_nu", max_members=10**6)
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
    modulus, which is the verifiable direction of the tightness statement."""
    pools = _member_pools(product_class, net_u, h_cap, g_cap, seed, model)
    kh, kg = len(pools.h), len(pools.g)
    means = np.array([g.mean(model) for g in pools.g])
    svals = grid_points(n)
    h_vals = np.stack([np.asarray(h(svals), dtype=float) for h in pools.h])
    h_center = h_vals.mean(axis=1)
    pairs_p, pairs_q, pair_d = _pairs_within(pools.d_h, pools.d_g, max(alpha_list))

    draws = model.draw(np.random.default_rng(derive_seed(seed, ["modulus", n, R])), (R, n))
    Z = np.empty((R, kh * kg))
    for b, g in enumerate(pools.g):
        gv = np.asarray(g(draws), dtype=float)      # (R, n)
        pn = gv @ h_vals.T / n                      # (R, kh)
        Z[:, b::kg] = math.sqrt(n) * (pn - h_center[None, :] * means[b])

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
