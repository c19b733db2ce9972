"""The special functions semproc needs, in NumPy and the math module.

ndtr (the standard normal distribution function) and ndtri (its inverse) are
ports of Moshier's Cephes ndtr.c and ndtri.c (the Cephes Mathematical Library,
1984-2000), the code behind scipy.special.ndtr and scipy.special.ndtri: the
same coefficients, branch points and float operations.  Each branch runs only
on the points that take it, the polynomials by vectorized Horner steps, and
exp and log by the C library through the math module: NumPy's SIMD exp and
log differ from it in the last bit on a few percent of points, which would
move Phi and every digest that reads it.

gammainc and gammaincc are the regularized incomplete gamma functions P and Q
at integer order a >= 1, where Q(a, x) is the Poisson sum
e^-x sum_{i<a} x^i / i! (poisson_tail, which skips the argument checks of
check_order).  log_factorials tabulates ln k!.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri", "gammainc", "gammaincc", "poisson_tail", "check_order",
           "log_factorials"]

_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2   # ln(DBL_MAX): erfc underflows past it
_EXP_M2 = 0.13533528323661269189     # exp(-2), ndtri's tail switch
_S2PI = 2.50662827463100050242

# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) past 8;
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1.  Q, S and U have a leading 1.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri: y + y y^2 P0(y^2) / Q0(y^2) around 1/2; past exp(-2) from either end,
# x0 - z P(z) / Q(z) with x = sqrt(-2 ln y), x0 = x - ln(x) / x, z = 1 / x,
# P1/Q1 for x < 8 and P2/Q2 beyond.  Q0, Q1 and Q2 have a leading 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coefs):
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coefs):
    """_polevl with a leading coefficient 1 left out of coefs."""
    return _polevl(x, (1.0,) + coefs)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.exp or math.log, that is the C library's) at each point."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _erf_small(x):
    """erf(x) for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def ndtr(a):
    """Phi(a), the standard normal distribution function, elementwise; bit
    for bit scipy.special.ndtr, as a float64 scalar for scalar input."""
    a = np.asarray(a, dtype=float)
    x = a * _SQRT1_2
    z = np.abs(x)
    out = np.zeros(x.shape)
    # Cephes: 0.5 + 0.5 erf(x) inside |x| < sqrt(1/2), else 0.5 erfc(|x|)
    # reflected through 1 - y for x > 0; erfc(z) = 1 - erf(z) below z = 1
    mid = z < _SQRT1_2
    out[mid] = 0.5 + 0.5 * _erf_small(x[mid])
    near = (z >= _SQRT1_2) & (z < 1.0)
    out[near] = 0.5 * (1.0 - _erf_small(z[near]))
    # erfc is exactly 0 once z^2 > MAXLOG: those points keep their zero and
    # only the rest pays for exp
    with np.errstate(over="ignore"):
        tail = (z >= 1.0) & (z * z <= _MAXLOG)
    zt = z[tail]
    e = _libm(math.exp, -zt * zt)
    low = zt < 8.0
    y = np.empty(zt.shape)
    y[low] = e[low] * _polevl(zt[low], _ERFC_P) / _p1evl(zt[low], _ERFC_Q)
    high = ~low
    y[high] = e[high] * _polevl(zt[high], _ERFC_R) / _p1evl(zt[high], _ERFC_S)
    out[tail] = 0.5 * y
    upper = ~mid & (x > 0)
    out[upper] = 1.0 - out[upper]
    out[np.isnan(x)] = np.nan
    return out[()]


def ndtri(p):
    """Phi^-1(p) elementwise for p in [0, 1] (-inf at 0, inf at 1, nan
    outside); bit for bit scipy.special.ndtri, a scalar for scalar input."""
    y0 = np.asarray(p, dtype=float)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    inside = (y0 > 0.0) & (y0 < 1.0)
    upper = inside & (y0 > 1.0 - _EXP_M2)
    y = np.where(upper, 1.0 - y0, y0)
    centre = inside & (y > _EXP_M2)
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _S2PI
    tail = inside & ~centre
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = x - _libm(math.log, x) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0,
                  z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
                  z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out[()]


def gammaincc(a: int, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for integer a >= 1 and x >= 0: the
    Poisson sum e^-x sum_{i<a} x^i / i!, all of whose terms are positive."""
    return poisson_tail(*check_order(a, x))


def poisson_tail(a: int, x: float) -> float:
    """gammaincc for an int a >= 1 and a float x >= 0 that the caller has
    checked (check_order), without checking them again: for an integrand
    that calls it at every node."""
    term = total = 1.0
    for i in range(1, a):
        term *= x / i
        total += term
    if x >= 1416.0:   # past here h below would be subnormal
        return math.exp(math.log(total) - x) if x < math.inf else 0.0
    h = math.exp(-0.5 * x)   # e^-x as h * h: h stays normal where e^-x may not
    return h * total * h


def gammainc(a: int, x: float) -> float:
    """P(a, x) = 1 - Q(a, x) for integer a >= 1 and x >= 0; below x = a + 1
    by the series e^-x x^a / a! sum_j x^j / ((a+1)...(a+j)), which keeps its
    relative accuracy as x -> 0."""
    a, x = check_order(a, x)
    if x >= a + 1.0:
        return 1.0 - gammaincc(a, x)
    if x == 0.0:
        return 0.0
    term = total = 1.0
    k = a
    while term > total * 1e-17:
        k += 1
        term *= x / k
        total += term
    return math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)) * total


def check_order(a, x) -> tuple[int, float]:
    """(a, x) as (int, float) for the incomplete gamma functions; ValueError
    unless a is an integer >= 1 and x >= 0."""
    if int(a) != a or a < 1:
        raise ValueError(f"order must be an integer >= 1, got {a!r}")
    x = float(x)
    if not x >= 0.0:
        raise ValueError(f"x must be >= 0, got {x!r}")
    return int(a), x


def log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, one math.lgamma call each."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
