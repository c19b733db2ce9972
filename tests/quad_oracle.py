"""SciPy-backed reference integrals for the tests.

semproc computes every expectation over x in closed form; these are the
independent quadrature forms the tests compare against: E[f(X)] under a
sampling model by scipy.integrate.quad against its density, and the
covariance kernel of two product pairs and lambda(h1 h2) as integrals over
s.  semproc evaluates a set member only on the grid i/n; the quadrature
nodes lie off it, so a set is integrated through evaluator(), an indicator
built here from its Fraction bounds.  A model's density and support come
from scipy.stats (law), so the quadrature reads nothing of the code it
checks.
"""

from functools import lru_cache

import numpy as np
from scipy import integrate as sciint
from scipy import stats

from semproc.function_classes import LineInterval
from semproc.intervals import IntervalUnion
from semproc.quadrature import integrate

_KERNEL_TOL = 1e-10


@lru_cache(maxsize=None)
def law(model):
    """The scipy.stats distribution of a sampling model: uniform on [0, 1],
    the standard normal, or the exponential of the model's rate."""
    if model.kind == "uniform01":
        return stats.uniform()
    if model.kind == "standard-normal":
        return stats.norm()
    return stats.expon(scale=1.0 / model.params[0])


def expect(model, f, tol=1e-10, points=None):
    """E[f(X)] under model by scipy's quad against the density, with the
    range split at points (interior kinks or jumps of f)."""
    dist = law(model)
    lo, hi = dist.support()
    cuts = [lo] + sorted(p for p in (points or ()) if lo < p < hi) + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = sciint.quad(lambda x: float(f(np.asarray([x]))[0]) * float(dist.pdf(x)),
                             a, b, epsabs=tol, epsrel=tol, limit=200)
        total += val
    return total


def evaluator(member):
    """member as a function of s: for a set member, the 0/1 indicator of the
    union of its intervals (a, b], compared with the floats of its bounds;
    any other member itself."""
    if not isinstance(member, IntervalUnion):
        return member
    ends = [(float(a), float(b)) for a, b in member.bounds]

    def indicator(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        for a, b in ends:
            out[(s > a) & (s <= b)] = 1.0
        return out

    return indicator


def _jumps(member):
    """The points where a G or an h member jumps: the finite ends of an
    interval of the line, the float endpoints of a set member, none for a
    polynomial or a continuous h."""
    if isinstance(member, LineInterval):
        return tuple(x for x in (member.lo, member.hi) if np.isfinite(x))
    if isinstance(member, IntervalUnion):
        return tuple(float(x) for pair in member.bounds for x in pair)
    return ()


def lambda_prod_quadrature(h1, h2, tol=_KERNEL_TOL):
    """lambda(h1 h2) by adaptive quadrature split at the jumps of both; the
    independent reference for semproc.function_classes.lambda_prod."""
    f1, f2 = evaluator(h1), evaluator(h2)
    return integrate(lambda s: float(f1(s)) * float(f2(s)), 0.0, 1.0, tol=tol,
                     breakpoints=tuple(set(_jumps(h1) + _jumps(h2))))


def cov_kernel_quadrature(q1, q2, model):
    """Cov(Z(q1), Z(q2)) for product pairs q = (h, g): the integral over s of
    h1(s) h2(s) [nu(g1 g2) - nu(g1) nu(g2)] by adaptive quadrature, with the
    g moments by scipy quad split at the jumps of g; the independent reference
    for semproc.fclt.cov_kernel."""
    (h1, g1), (h2, g2) = q1, q2
    points = _jumps(g1) + _jumps(g2)
    cross = expect(model, lambda xs: g1(xs) * g2(xs), points=points)
    cov_g = cross - expect(model, g1, points=_jumps(g1)) * expect(model, g2, points=_jumps(g2))
    f1, f2 = evaluator(h1), evaluator(h2)
    return integrate(lambda s: float(f1(s)) * float(f2(s)) * cov_g, 0.0, 1.0, tol=_KERNEL_TOL,
                     breakpoints=tuple(set(_jumps(h1) + _jumps(h2))))
