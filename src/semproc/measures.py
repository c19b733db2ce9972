"""The sampling models nu, samples (X_1..X_n) and the time grid i/n.

The three sampling models (uniform01, standard-normal, exponential(rate)) are
deliberately the only ones registered: each has closed-form cdf, raw moments,
truncated moments and centred tail second moments, so product expectations
and Lindeberg tails of every registered function family are exactly
computable, nothing integrates over x by quadrature, and bound checks never
need nested Monte Carlo.  The package's one quadrature routine,
semproc.quadrature.integrate, serves only the bounds series oracle.

Determinism contract: every draw from a model goes through NuModel.draw(rng,
shape), one vectorized generator call per model kind.  draw_sample(model, n,
seed) gives it a fresh PCG64 generator built from the 64-bit seed, so the same
(model, n, seed) reproduces the values bit-exactly; the bulk replicate paths
in fclt give it one generator per derived seed.  Independent replicate
streams are obtained by deriving child seeds (see seeds.derive_seed), never by
reusing a generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .special import gammainc, ndtr, ndtri

__all__ = [
    "NuModel",
    "Sample",
    "parse_model",
    "draw_sample",
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
            if len(self.params) != 1 or not 0 < self.params[0] < math.inf:
                raise ValueError("exponential model needs a positive finite rate")
        elif self.params:
            raise ValueError(f"{self.kind} takes no parameters")

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

    # -- closed-form moments -------------------------------------------------

    def moment(self, k: int) -> float:
        """Exact raw moment E[X^k]; ValueError past the float range."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind == "uniform01":
            return 1.0 / (k + 1)
        if self.kind == "standard-normal":
            return 0.0 if k % 2 else self._finite(k, lambda: math.prod(range(k - 1, 0, -2)))
        return self._finite(k, lambda: math.factorial(k) / self.params[0]**k)

    def truncated_moment(self, k: int, w: float) -> float:
        """Exact integral of x^k over (-inf, w] against nu; ValueError past
        the float range."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.kind == "uniform01":
            c = min(max(w, 0.0), 1.0)
            return c ** (k + 1) / (k + 1)
        if self.kind == "standard-normal":
            return self._finite(k, lambda: _normal_truncated_moment(k, w))
        return 0.0 if w <= 0 else self.moment(k) * gammainc(k + 1, self.params[0] * w)

    def _finite(self, k: int, value) -> float:
        """value() as a float, or a ValueError naming the model and k where
        it is past the float range."""
        try:
            out = float(value())
        except (OverflowError, ZeroDivisionError):
            out = math.inf
        if math.isfinite(out):
            return out
        rate = f"({self.params[0]!r})" if self.params else ""
        raise ValueError(f"the order-{k} moment of {self.kind}{rate} is past the float range")

    def centered_sq_tail(self, a: np.ndarray) -> np.ndarray:
        """Exact E[(X - mu)^2; |X - mu| >= a] at each threshold of the array a
        (entries may be inf, where the tail is 0)."""
        if self.kind == "standard-normal":
            # 2 (a phi(a) + Phi(-a)) is exactly 0 past a = 38; evaluating only
            # the nearer points keeps exp off subnormals, Phi off the bulk of a
            # fine grid and a = inf out of inf * 0
            near = a <= 38.0
            an = a[near]
            tail = np.zeros(a.shape)
            tail[near] = an * (np.exp(-0.5 * an**2) / _SQRT2PI) + ndtr(-an)
            return 2.0 * tail
        if self.kind == "uniform01":
            # 2 * int_a^(1/2) y^2 dy, exactly 0 once a >= 1/2
            return (2.0 / 3.0) * (0.125 - np.minimum(a, 0.5) ** 3)
        # exponential(rate), mu = 1/rate: the upper piece X >= mu + a always,
        # the lower piece 0 <= X <= mu - a only while a < mu
        rate = self.params[0]
        mu = 1.0 / rate
        a = np.minimum(a, 745.0 * mu)   # exp(-1 - rate * a) underflows to 0 there
        upper = np.exp(-1.0 - rate * a) * (a * a + 2.0 * mu * a + 2.0 * mu * mu)
        b = np.minimum(a, mu)           # keeps exp finite where the piece is empty
        lower = mu * mu - np.exp(rate * b - 1.0) * (b * b - 2.0 * mu * b + 2.0 * mu * mu)
        return upper + np.where(a < mu, lower, 0.0)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """i.i.d. draws of the given shape, one generator call."""
        if self.kind == "uniform01":
            return rng.random(shape)
        if self.kind == "standard-normal":
            return rng.standard_normal(shape)
        return rng.exponential(1.0 / self.params[0], shape)


def _normal_truncated_moment(k: int, w: float) -> float:
    """The integral of x^k phi(x) over (-inf, w]: m_j = -w^(j-1) phi(w) + (j - 1)
    m_(j-2) from m_0 = Phi(w), m_1 = -phi(w).  Where phi(w) is 0.0 the first
    term, a zero that changes no bit of m_j, is skipped: w^(j-1) may overflow."""
    phi = math.exp(-0.5 * w * w) / _SQRT2PI
    prev2, prev1 = float(ndtr(w)), -phi
    for j in range(2, k + 1):
        cur = (j - 1) * prev2 if phi == 0.0 else -(w ** (j - 1)) * phi + (j - 1) * prev2
        prev2, prev1 = prev1, cur
    return prev1 if k else prev2


def parse_model(name: str) -> NuModel:
    """Resolve a model identifier such as 'uniform01' or 'exponential(2.5)'."""
    name = name.strip()
    if name in ("uniform01", "standard-normal"):
        return NuModel(name)
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
    """An ordered i.i.d. draw (X_1..X_n) from model, X_i observed at time i/n.

    values is stored as a read-only float64 copy of what was passed in, and
    a model passed by name as its NuModel (parse_model).  eq=False: an
    ndarray field can be neither compared nor hashed as a dataclass field,
    so samples compare by identity.
    """

    n: int
    values: np.ndarray
    model: NuModel

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be a positive integer")
        values = np.array(self.values, dtype=float)
        if values.shape != (self.n,):
            raise ValueError("values must be a flat sequence of length n")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if isinstance(self.model, str):
            object.__setattr__(self, "model", parse_model(self.model))

    def xs(self) -> np.ndarray:
        return self.values


def draw_sample(model: Union[NuModel, str], n: int, seed: int) -> Sample:
    """Deterministic sample of size n from the model under the given seed."""
    if isinstance(model, str):
        model = parse_model(model)
    if n <= 0:
        raise ValueError("n must be a positive integer")
    values = model.draw(np.random.default_rng(seed), n)
    return Sample(n=n, values=values, model=model)


def grid_points(n: int) -> np.ndarray:
    """The float times 1/n, ..., n/n; h members meet them only through
    function_classes.grid_values and the float lambda_n of PiecewiseLinear."""
    return np.arange(1, n + 1, dtype=float) / n
