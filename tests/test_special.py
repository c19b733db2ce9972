"""semproc.special against scipy.special, the test-only oracle.

Stated tolerances: ndtr equal (==) everywhere, ndtri within 1e-14 relative on
[1e-300, 1 - 1e-16], the integer-order incomplete gammas within 1e-13
relative plus SciPy's own rounding at large x, and log-factorials within
1e-15 relative.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import special as scisp

from semproc import special

_RNG = np.random.default_rng(20261018)
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, 1e300, -1e300])
# Cephes branch points in a: |a| = 1 (erf/erfc), sqrt(2) (erfc = 1 - erf below),
# 8 sqrt(2) (P/Q vs R/S) and sqrt(2 MAXLOG) (erfc underflows), with neighbours
_EDGES = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2)])
_EDGES = np.concatenate([s * e for s in (1.0, -1.0)
                         for e in (_EDGES, np.nextafter(_EDGES, 0.0), np.nextafter(_EDGES, np.inf))])


def _assert_ndtr_matches(a):
    assert np.array_equal(special.ndtr(a), scisp.ndtr(a), equal_nan=True)


class TestNdtr:
    def test_dense_grid(self):
        _assert_ndtr_matches(np.linspace(-60.0, 60.0, 1_200_001))

    def test_random_normals(self):
        _assert_ndtr_matches(4.0 * _RNG.standard_normal(200_000))

    def test_specials_and_branch_edges(self):
        _assert_ndtr_matches(np.concatenate([_SPECIALS, _EDGES]))

    @pytest.mark.parametrize("a", [0.3, -2.5, np.float64(40.0), np.array(1.5), np.array(np.nan),
                                   [0.1, -9.0], np.zeros((2, 3)), np.empty(0)])
    def test_output_shape_and_type(self, a):
        got, want = special.ndtr(a), scisp.ndtr(a)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)

    def test_planted_simd_exp_fails(self, monkeypatch):
        # NumPy's vectorized exp in place of the C library's must be caught
        grid = np.linspace(-60.0, 60.0, 1_200_001)
        e = -0.5 * grid[np.abs(grid) < 37.0] ** 2
        if np.array_equal(np.exp(e), np.fromiter(map(math.exp, e.tolist()), float)):
            pytest.skip("NumPy's exp is the C library's on this machine")

        def simd_exp(fn, x):
            return np.exp(x) if fn is math.exp else np.fromiter(map(fn, x.tolist()), float)

        monkeypatch.setattr(special, "_libm", simd_exp)
        with pytest.raises(AssertionError):
            _assert_ndtr_matches(grid)


class TestNdtri:
    def test_relative_error(self):
        p = np.concatenate([np.geomspace(1e-300, 0.5, 100_000), 1.0 - np.geomspace(1e-16, 0.5, 20_000),
                            _RNG.random(100_000), [np.exp(-2.0), 1.0 - np.exp(-2.0), 0.5]])
        got, want = special.ndtri(p), scisp.ndtri(p)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        assert np.max(rel[want != 0.0]) <= 1e-14
        assert np.all(got[want == 0.0] == 0.0)

    def test_ends_and_outside(self):
        p = np.array([0.0, 1.0, -0.1, 1.1, np.nan])
        assert np.array_equal(special.ndtri(p), scisp.ndtri(p), equal_nan=True)

    @pytest.mark.parametrize("p", [0.3, np.array(1e-20), [0.1, 0.9], np.full((2, 2), 0.25)])
    def test_output_shape_and_type(self, p):
        got, want = special.ndtri(p), scisp.ndtri(p)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)


def _poisson_q_exact(a: int, x: float) -> Decimal:
    """Q(a, x) = e^-x sum_{i<a} x^i / i! in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        xd = Decimal(x)
        term = total = Decimal(1)
        for i in range(1, a):
            term = term * xd / i
            total += term
        return (-xd).exp() * total


class TestIncompleteGamma:
    XS = np.geomspace(1e-6, 1e3, 1201)

    @pytest.mark.parametrize("a", range(1, 9))
    def test_against_scipy(self, a):
        # SciPy rounds exp(a ln x - x - ln Gamma(a)) once at argument ~x, a
        # relative error up to ulp(x) / 2; the 2 eps x term allows for it
        for ours, theirs in ((special.gammainc, scisp.gammainc),
                             (special.gammaincc, scisp.gammaincc)):
            got = np.array([ours(a, x) for x in self.XS])
            want = theirs(a, self.XS)
            tol = 1e-13 + 2.0 * np.finfo(float).eps * self.XS
            nz = want != 0.0
            assert np.all(np.abs(got[nz] - want[nz]) <= tol[nz] * want[nz])
            assert np.all(got[~nz] < 1e-300)

    @pytest.mark.parametrize("a", [1, 3, 8])
    def test_q_against_exact_poisson_sum(self, a):
        for x in self.XS[::10]:
            exact = _poisson_q_exact(a, float(x))
            if exact < Decimal("1e-300"):
                continue
            assert abs(Decimal(special.gammaincc(a, x)) - exact) <= Decimal("1e-15") * exact

    def test_small_x_relative_accuracy(self):
        # P(3, x) = e^-x x^3 / 3! (1 + x / 4 + x^2 / 20 + ...), where 1 - Q
        # would cancel to 0
        x = 1e-6
        want = math.exp(-x) * x**3 / 6.0 * (1.0 + x / 4.0 + x * x / 20.0)
        assert special.gammainc(3, x) == pytest.approx(want, rel=1e-14, abs=0.0)
        assert special.gammainc(2, 0.0) == 0.0

    def test_infinite_x(self):
        assert special.gammainc(2, math.inf) == scisp.gammainc(2, math.inf) == 1.0
        assert special.gammaincc(2, math.inf) == scisp.gammaincc(2, math.inf) == 0.0

    @pytest.mark.parametrize("a, x", [(0, 1.0), (1.5, 1.0), (2, -1.0), (2, float("nan"))])
    def test_rejects_bad_arguments(self, a, x):
        with pytest.raises(ValueError):
            special.gammainc(a, x)

    @pytest.mark.parametrize("a, x", [(0, 1.0), (1.5, 1.0), (2, -1.0), (2, float("nan"))])
    def test_q_rejects_bad_arguments(self, a, x):
        # gammaincc checks; poisson_tail, its unchecked core, does not
        with pytest.raises(ValueError):
            special.gammaincc(a, x)

    def test_poisson_tail_is_gammaincc(self):
        for a in (1, 3, 8):
            for x in self.XS[::10].tolist() + [0.0, 1416.0, math.inf]:
                assert special.poisson_tail(a, x) == special.gammaincc(a, x)


def test_log_factorials():
    got = special.log_factorials(10_000)
    want = scisp.gammaln(np.arange(10_001) + 1.0)
    assert got[0] == want[0] == 0.0 and got[1] == want[1] == 0.0
    assert np.max(np.abs(got[2:] - want[2:]) / want[2:]) <= 1e-15
