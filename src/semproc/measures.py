"""Core measures: lambda_n, lambda, the sampling models nu, the sequential
empirical measure P_n and the B-empirical measure nu_{n,B}.

The three sampling models (uniform01, standard-normal, exponential(rate)) are
deliberately the only ones registered: each has closed-form cdf, raw moments
and truncated moments, so product expectations of every registered function
family are exactly computable, nothing integrates over x by quadrature, and
bound checks never need nested Monte Carlo.  The package's one quadrature
routine is semproc.quadrature.integrate.

Determinism contract: every draw from a model goes through NuModel.draw(rng,
shape), one vectorized generator call per model kind.  draw_sample(model, n,
seed) gives it a fresh PCG64 generator built from the 64-bit seed, so the same
(model, n, seed) reproduces the values bit-exactly; the bulk replicate paths
in fclt give it one generator per derived seed.  Independent replicate
streams are obtained by deriving child seeds (see seeds.derive_seed), never by
reusing a generator.

The scalar evaluators eval_lambda_n, eval_lambda, eval_semp and
eval_b_empirical sum term by term from the definitions.  They are the
reference oracles that the tests compare the vectorized paths against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .intervals import IntervalUnion
from .quadrature import DEFAULT_TOL, integrate
from .special import gammainc, ndtr, ndtri

__all__ = [
    "NuModel",
    "Sample",
    "QFunction",
    "BEmpiricalValue",
    "parse_model",
    "draw_sample",
    "eval_lambda_n",
    "eval_lambda",
    "eval_semp",
    "eval_b_empirical",
    "grid_points",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Sampling models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NuModel:
    """A sampling law nu on the real line with closed-form moment machinery.

    kind: one of {"uniform01", "standard-normal", "exponential"}.
    params: (rate,) for exponential, () otherwise.
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("uniform01", "standard-normal", "exponential"):
            raise ValueError(f"unknown model kind: {self.kind!r}")
        if self.kind == "exponential":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise ValueError("exponential model needs a positive rate")
        elif self.params:
            raise ValueError(f"{self.kind} takes no parameters")

    @property
    def name(self) -> str:
        if self.kind == "exponential":
            return f"exponential({self.params[0]:g})"
        return self.kind

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == "uniform01":
            return (0.0, 1.0)
        if self.kind == "standard-normal":
            return (-math.inf, math.inf)
        return (0.0, math.inf)

    # -- distribution primitives -------------------------------------------

    def cdf(self, w):
        w = np.asarray(w, dtype=float)
        if self.kind == "uniform01":
            out = np.clip(w, 0.0, 1.0)
        elif self.kind == "standard-normal":
            out = ndtr(w)
        else:
            rate = self.params[0]
            out = np.where(w > 0, -np.expm1(-rate * np.maximum(w, 0.0)), 0.0)
        return out if out.shape else float(out)

    def ppf(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p < 0) | (p > 1)):
            raise ValueError("probability outside [0, 1]")
        if self.kind == "uniform01":
            out = p.astype(float)
        elif self.kind == "standard-normal":
            out = ndtri(np.clip(p, 1e-300, 1 - 1e-16))
        else:
            rate = self.params[0]
            out = -np.log1p(-np.clip(p, 0.0, 1.0 - 1e-16)) / rate
        return out if out.shape else float(out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform01":
            out = ((x >= 0.0) & (x <= 1.0)).astype(float)
        elif self.kind == "standard-normal":
            out = np.exp(-0.5 * x * x) / _SQRT2PI
        else:
            rate = self.params[0]
            out = np.where(x >= 0.0, rate * np.exp(-rate * np.minimum(x, 700 / rate)), 0.0)
        return out if out.shape else float(out)

    # -- closed-form moments -------------------------------------------------

    def moment(self, k: int) -> float:
        """Exact raw moment E[X^k]."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind == "uniform01":
            return 1.0 / (k + 1)
        if self.kind == "standard-normal":
            if k % 2 == 1:
                return 0.0
            return float(math.prod(range(k - 1, 0, -2))) if k else 1.0
        rate = self.params[0]
        return math.factorial(k) / rate**k

    def truncated_moment(self, k: int, w: float) -> float:
        """Exact integral of x^k over (-inf, w] against nu."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind == "uniform01":
            c = min(max(w, 0.0), 1.0)
            return c ** (k + 1) / (k + 1)
        if self.kind == "standard-normal":
            phi = math.exp(-0.5 * w * w) / _SQRT2PI
            m0 = float(ndtr(w))
            if k == 0:
                return m0
            m1 = -phi
            if k == 1:
                return m1
            prev2, prev1 = m0, m1
            for j in range(2, k + 1):
                cur = -(w ** (j - 1)) * phi + (j - 1) * prev2
                prev2, prev1 = prev1, cur
            return prev1
        rate = self.params[0]
        if w <= 0:
            return 0.0
        return (math.factorial(k) / rate**k) * gammainc(k + 1, rate * w)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """i.i.d. draws of the given shape, one generator call."""
        if self.kind == "uniform01":
            return rng.random(shape)
        if self.kind == "standard-normal":
            return rng.standard_normal(shape)
        return rng.exponential(1.0 / self.params[0], shape)


_MODEL_REGISTRY: dict[str, Callable[[], NuModel]] = {
    "uniform01": lambda: NuModel("uniform01"),
    "standard-normal": lambda: NuModel("standard-normal"),
}


def parse_model(name: str) -> NuModel:
    """Resolve a model identifier such as 'uniform01' or 'exponential(2.5)'."""
    name = name.strip()
    if name in _MODEL_REGISTRY:
        return _MODEL_REGISTRY[name]()
    if name.startswith("exponential(") and name.endswith(")"):
        rate = float(name[len("exponential("):-1])
        return NuModel("exponential", (rate,))
    raise ValueError(
        f"unknown model {name!r}; registered: uniform01, standard-normal, exponential(rate)"
    )


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Sample:
    """An ordered i.i.d. draw (X_1..X_n) paired with the time grid i/n.

    values is stored as a read-only float64 copy of what was passed in.
    eq=False: an ndarray field can be neither compared nor hashed as a
    dataclass field, so samples compare by identity.
    """

    n: int
    values: np.ndarray
    seed: int
    model: str

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be a positive integer")
        values = np.array(self.values, dtype=float)
        if values.shape != (self.n,):
            raise ValueError("values must be a flat sequence of length n")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def xs(self) -> np.ndarray:
        return self.values

    def grid(self) -> np.ndarray:
        return grid_points(self.n)


def draw_sample(model: Union[NuModel, str], n: int, seed: int) -> Sample:
    """Deterministic sample of size n from the model under the given seed."""
    if isinstance(model, str):
        model = parse_model(model)
    if n <= 0:
        raise ValueError("n must be a positive integer")
    values = model.draw(np.random.default_rng(seed), n)
    return Sample(n=n, values=values, seed=seed, model=model.name)


def grid_points(n: int) -> np.ndarray:
    return np.arange(1, n + 1, dtype=float) / n


# ---------------------------------------------------------------------------
# Q functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QFunction:
    """A function q(s, x) on [0,1] x U, square-integrable under lambda x nu.

    fn(s, xs) broadcasts s against the float array xs: a scalar s with any
    xs, or an array s whose shape matches the trailing axes of xs, so
    fn(grid, xs) gives q(i/n, X_i) for every point at once and equals the
    per-point fn(i/n, xs[i:i+1]) bit for bit.  nu_mean returns the exact
    conditional mean s -> nu(q)(s) vectorized over an array of s values;
    nu_sq likewise for nu(q^2)(s).  sup_bound is the uniform bound when q is
    bounded (None otherwise); s_breakpoints list discontinuity locations of
    s -> q(s, x) shared by the conditional means.  tilde_tail(model, svals, T)
    is the truncated second moment of the centered q in closed form for every
    registered model, or None for a q without one, which lindeberg_check
    then rejects (it has no quadrature fallback).
    """

    fn: Callable[[Union[float, np.ndarray], np.ndarray], np.ndarray]
    nu_mean: Callable[[NuModel, np.ndarray], np.ndarray]
    nu_sq: Callable[[NuModel, np.ndarray], np.ndarray]
    label: str = "q"
    sup_bound: Optional[float] = None
    s_breakpoints: tuple[float, ...] = ()
    # optional structure hooks (set by the builders in fclt):
    h_member: Optional[object] = None
    g_member: Optional[object] = None
    tilde_tail: Optional[Callable[[NuModel, np.ndarray, float], np.ndarray]] = None

    def __call__(self, s: float, xs) -> np.ndarray:
        return self.fn(s, np.asarray(xs, dtype=float))

    def conditional_mean(self, model: NuModel, svals) -> np.ndarray:
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        return np.asarray(self.nu_mean(model, svals), dtype=float)

    def conditional_sq_mean(self, model: NuModel, svals) -> np.ndarray:
        svals = np.atleast_1d(np.asarray(svals, dtype=float))
        return np.asarray(self.nu_sq(model, svals), dtype=float)

    def product_mean_lambda_n(self, model: NuModel, n: int) -> float:
        """(lambda_n (x) nu)(q), the exact centering of the s.e.m.p."""
        means = self.conditional_mean(model, grid_points(n))
        return float(np.mean(means))

    def product_mean_lambda(self, model: NuModel, tol: float = DEFAULT_TOL) -> float:
        """(lambda (x) nu)(q) by quadrature over s of the conditional mean."""
        return integrate(
            lambda s: float(self.conditional_mean(model, s)[0]),
            0.0, 1.0, tol=tol, breakpoints=self.s_breakpoints,
        )

    def product_sq_mean_lambda_n(self, model: NuModel, n: int) -> float:
        return float(np.mean(self.conditional_sq_mean(model, grid_points(n))))

    def product_sq_mean_lambda(self, model: NuModel, tol: float = DEFAULT_TOL) -> float:
        return integrate(
            lambda s: float(self.conditional_sq_mean(model, s)[0]),
            0.0, 1.0, tol=tol, breakpoints=self.s_breakpoints,
        )


# ---------------------------------------------------------------------------
# The measures as operations
# ---------------------------------------------------------------------------

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


def eval_semp(q: Union[QFunction, Callable[[float, float], float]], sample: Sample,
              compensated: bool = False) -> float:
    """P_n(q) = (1/n) sum q(i/n, X_i), the sequential empirical measure."""
    n = sample.n
    if isinstance(q, QFunction):
        terms = (float(q.fn(i / n, np.asarray([x]))[0]) for i, x in
                 zip(range(1, n + 1), sample.values))
    else:
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
    idx = B.grid_indices(sample.n)
    if not idx:
        return BEmpiricalValue(0.0, 0, True)
    xs = sample.xs()[np.asarray(idx) - 1]
    if isinstance(W_or_g, IntervalUnion):
        vals = W_or_g.indicator(xs)
    else:
        vals = np.asarray(W_or_g(xs), dtype=float)
    return BEmpiricalValue(float(vals.mean()), len(idx), False)
