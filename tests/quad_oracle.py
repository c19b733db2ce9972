"""SciPy-backed reference integrals for the tests.

semproc computes every expectation over x in closed form; these are the
independent quadrature forms the tests compare against: E[f(X)] under a
sampling model by scipy.integrate.quad against its density, and the
covariance kernel as an integral over s.
"""

import numpy as np
from scipy import integrate as sciint

from semproc.quadrature import integrate

_KERNEL_TOL = 1e-10


def expect(model, f, tol=1e-10, points=None):
    """E[f(X)] under model by scipy's quad against the density, with the
    range split at points (interior kinks or jumps of f)."""
    lo, hi = model.support
    cuts = [lo] + sorted(p for p in (points or ()) if lo < p < hi) + [hi]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, _ = sciint.quad(lambda x: float(f(np.asarray([x]))[0]) * float(model.pdf(x)),
                             a, b, epsabs=tol, epsrel=tol, limit=200)
        total += val
    return total


def cov_kernel_quadrature(q1, q2, model):
    """Cov(Z(q1), Z(q2)) for any q's: the integral over s of
    nu(q1 q2)(s) - nu(q1)(s) nu(q2)(s) by adaptive quadrature, the
    independent reference for semproc.fclt.cov_kernel."""

    def integrand(s):
        if q1.h_member is not None and q2.h_member is not None:
            cross = (float(q1.h_member(s)) * float(q2.h_member(s))
                     * q1.g_member.pair_mean(q2.g_member, model))
        else:
            cross = expect(model, lambda xs: q1.fn(s, xs) * q2.fn(s, xs))
        m1 = float(q1.conditional_mean(model, np.asarray([s]))[0])
        m2 = float(q2.conditional_mean(model, np.asarray([s]))[0])
        return cross - m1 * m2

    breakpoints = tuple(set(q1.s_breakpoints + q2.s_breakpoints))
    return integrate(integrand, 0.0, 1.0, tol=_KERNEL_TOL, breakpoints=breakpoints)
