"""Core measures: lambda_n, lambda quadrature, sampling models, P_n and the
B-empirical measure."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sciint

from semproc.intervals import IntervalUnion
from semproc.measures import NuModel, Sample, draw_sample, parse_model
from semproc.quadrature import QuadratureError, integrate
from semproc.special import ndtr

from member_oracles import contains, eval_b_empirical, eval_lambda, eval_lambda_n, eval_semp
from quad_oracle import law

FULL = IntervalUnion.from_pairs([(0, 1)])


def _plain_normal_truncated_moment(k: int, w: float) -> float:
    """The standard-normal truncated moment by its recurrence m_j =
    -w^(j-1) phi(w) + (j - 1) m_(j-2), the first term taken at every j,
    even where phi(w) is 0.0 (w^(j-1) then may overflow)."""
    phi = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    m0 = float(ndtr(w))
    if k == 0:
        return m0
    prev2, prev1 = m0, -phi
    for j in range(2, k + 1):
        prev2, prev1 = prev1, -(w ** (j - 1)) * phi + (j - 1) * prev2
    return prev1


class TestLambdaN:
    def test_initial_interval_floor(self):
        h = lambda x: 1.0 if x <= 0.25 else 0.0
        assert eval_lambda_n(h, 10) == pytest.approx(0.2, abs=0)

    def test_total_mass(self):
        for n in (1, 7, 100):
            assert eval_lambda_n(lambda x: 1.0, n) == pytest.approx(1.0, abs=1e-15)

    def test_arithmetic_series(self):
        # (1+2+3+4)/16
        assert eval_lambda_n(lambda x: x, 4) == pytest.approx(0.625, abs=1e-15)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            eval_lambda_n(lambda x: x, 0)

    def test_compensated_matches_plain(self):
        h = lambda x: math.sin(7 * x)
        assert eval_lambda_n(h, 1000) == pytest.approx(
            eval_lambda_n(h, 1000, compensated=True), abs=1e-12
        )


class TestLambdaQuadrature:
    def test_linear(self):
        assert eval_lambda(lambda x: x, tol=1e-10) == pytest.approx(0.5, abs=1e-9)

    def test_indicator_with_breakpoint(self):
        h = lambda x: 1.0 if 0 < x <= 0.3 else 0.0
        assert eval_lambda(h, tol=1e-10, breakpoints=[0.3]) == pytest.approx(0.3, abs=1e-9)

    def test_sqrt_against_riemann_oracle(self):
        # closed form 2/3, confirmed by a high-resolution midpoint Riemann sum
        grid = (np.arange(10**6) + 0.5) / 10**6
        oracle = float(np.mean(np.sqrt(grid)))
        assert abs(oracle - 2.0 / 3.0) < 1e-9
        val = eval_lambda(lambda x: math.sqrt(x), tol=1e-10)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_consistency_with_riemann_on_registered_functions(self):
        tol = 1e-9
        grid = (np.arange(10**6) + 0.5) / 10**6
        cases = [
            (lambda x: x * x, grid**2, None),
            (lambda x: math.exp(x), np.exp(grid), None),
            (lambda x: 1.0 if 0.2 < x <= 0.7 else 0.0,
             ((grid > 0.2) & (grid <= 0.7)).astype(float), [0.2, 0.7]),
        ]
        for h, vals, bps in cases:
            riemann = float(np.mean(vals))
            assert abs(eval_lambda(h, tol=tol, breakpoints=bps) - riemann) <= 10 * tol

    def test_depth_cap_failure_carries_partial(self):
        # an unannounced jump is never accepted by the refinement
        h = lambda x: 1.0 if x <= 1 / math.pi else 0.0
        with pytest.raises(QuadratureError) as err:
            integrate(h, 0.0, 1.0, tol=1e-12)
        assert 0.0 <= err.value.partial <= 1.0


class TestSemp:
    def test_constant(self):
        s = draw_sample("uniform01", 25, 3)
        assert eval_semp(lambda t, x: 1.0, s) == pytest.approx(1.0, abs=1e-15)

    def test_reduces_to_lambda_n(self):
        s = draw_sample("standard-normal", 10, 5)
        got = eval_semp(lambda t, x: 1.0 if t <= 0.25 else 0.0, s)
        assert got == pytest.approx(0.2, abs=0)

    def test_two_term_hand_sum(self):
        s = Sample(2, (0.3, 0.8), "uniform01")
        assert eval_semp(lambda t, x: t * x, s) == pytest.approx(0.475, abs=1e-15)


class TestBEmpirical:
    def test_full_grid_is_classical_empirical(self):
        s = draw_sample("uniform01", 50, 9)
        W = IntervalUnion.from_pairs([(0, 0.5)])
        out = eval_b_empirical(FULL, W, s)
        assert out.k == 50
        assert out.value == pytest.approx(float(np.mean(s.xs() <= 0.5)), abs=1e-15)

    def test_empty_intersection_flag(self):
        B = IntervalUnion.from_pairs([(Fraction(1, 100), Fraction(1, 50) - Fraction(1, 1000))])
        s = draw_sample("uniform01", 4, 1)
        out = eval_b_empirical(B, FULL, s)
        assert out.empty_intersection and out.value == 0.0 and out.k == 0

    def test_hand_enumeration(self):
        # grid {0.25, 0.5, 0.75, 1}: (0.4, 1] catches i = 2, 3, 4
        s = Sample(4, (0.1, 0.9, 0.2, 0.7), "uniform01")
        W = IntervalUnion.from_pairs([(0, 0.5)])
        out = eval_b_empirical(IntervalUnion.from_pairs([(0.4, 1)]), W, s)
        assert out.k == 3
        assert out.value == pytest.approx(1.0 / 3.0, abs=1e-15)
        # (0.5, 1] catches i = 3, 4 only
        out = eval_b_empirical(IntervalUnion.from_pairs([(0.5, 1)]), W, s)
        assert out.k == 2
        assert out.value == pytest.approx(0.5, abs=1e-15)

    def test_decomposition_identity(self):
        # P_n(B x W) = (k/n) nu_{n,B}(W), near-exactly in floating point
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            s = draw_sample("uniform01", n, int(rng.integers(0, 2**60)))
            a, b = sorted(rng.random(2))
            B = IntervalUnion.from_pairs([(a, b)])
            w = float(rng.random())
            W = IntervalUnion.from_pairs([(0, w)])
            semp = eval_semp(
                lambda t, x: (1.0 if contains(B, t) else 0.0) * (1.0 if 0 < x <= w else 0.0), s
            )
            be = eval_b_empirical(B, W, s)
            assert semp == pytest.approx(be.k / n * be.value, abs=1e-14)


class TestKnB:
    def test_full(self):
        assert FULL.grid_count(7) == 7

    def test_half(self):
        assert IntervalUnion.from_pairs([(0, 0.5)]).grid_count(10) == 5

    def test_quarter_boundary_exact(self):
        assert IntervalUnion.from_pairs([(0, 0.25)]).grid_count(10) == 2


class TestDrawSample:
    def test_bit_exact_reproducibility(self):
        a = draw_sample("uniform01", 3, 42)
        b = draw_sample("uniform01", 3, 42)
        assert np.array_equal(a.values, b.values)

    def test_lln_sanity(self):
        s = draw_sample("uniform01", 10**5, 7)
        assert abs(float(np.mean(s.xs())) - 0.5) < 0.01
        s = draw_sample("exponential(1)", 10**5, 8)
        assert abs(float(np.mean(s.xs())) - 1.0) < 0.02

    @pytest.mark.parametrize("name", ["uniform01", "standard-normal", "exponential(2)"])
    @pytest.mark.parametrize("a, b, n", [(1, 1, 1), (256, 1, 37), (255, 258, 5), (3, 2, 2000)])
    def test_consecutive_draws_concatenate(self, name, a, b, n):
        # fclt draws its replicate matrices in row blocks: (a, n) then (b, n)
        # from one generator must be the (a + b, n) draw, byte for byte
        model = parse_model(name)
        rng = np.random.default_rng(2024)
        parts = np.concatenate([model.draw(rng, (a, n)), model.draw(rng, (b, n))])
        whole = model.draw(np.random.default_rng(2024), (a + b, n))
        assert parts.tobytes() == whole.tobytes()

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            draw_sample("cauchy", 10, 1)
        with pytest.raises(ValueError):
            parse_model("exponential(0)")

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_exponential_rate_positive_and_finite(self, rate):
        # a nan or inf rate used to build a model whose moments and draws are nan
        with pytest.raises(ValueError, match="needs a positive finite rate"):
            NuModel("exponential", (rate,))
        with pytest.raises(ValueError, match="needs a positive finite rate"):
            parse_model(f"exponential({rate})")


class TestModelMoments:
    @pytest.mark.parametrize("name", ["uniform01", "standard-normal", "exponential(2)"])
    def test_raw_moments_against_quadrature(self, name):
        model = parse_model(name)
        dist = law(model)
        lo, hi = dist.support()
        for k in range(5):
            oracle, _ = sciint.quad(lambda x: x**k * float(dist.pdf(x)), lo, hi, limit=200)
            assert model.moment(k) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("name", ["uniform01", "standard-normal", "exponential(2)"])
    def test_truncated_moments_against_quadrature(self, name):
        model = parse_model(name)
        dist = law(model)
        lo, _ = dist.support()
        for k in range(4):
            for w in (-0.5, 0.3, 1.2):
                oracle, _ = sciint.quad(
                    lambda x: x**k * float(dist.pdf(x)), lo, w, limit=200
                ) if w > lo else (0.0, 0.0)
                assert model.truncated_moment(k, w) == pytest.approx(oracle, abs=1e-8)

    def test_normal_truncated_moments_keep_the_plain_bits(self):
        # signs of zero included: where phi(w) is 0.0 the skipped term is a
        # zero that changes no bit
        model = parse_model("standard-normal")
        far = ran = 0
        for w in (0.0, 0.5, 1.0, 5.0, 10.0, 37.0, 38.5, 39.0, 40.0, 100.0, 1e3, 1e10,
                  1e38, 1e100, 1e154, 1e200):
            for x in (w, -w):
                for k in range(10):
                    try:
                        want = _plain_normal_truncated_moment(k, x)
                    except OverflowError:
                        continue
                    got = model.truncated_moment(k, x)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (k, x)
                    ran += 1
                    far += math.exp(-0.5 * x * x) == 0.0
        assert ran > 250 and far > 100

    def test_normal_truncated_moments_past_the_float_range_of_w_powers(self):
        model = parse_model("standard-normal")
        assert np.float64(model.truncated_moment(3, 1e200)).tobytes() \
            == np.float64(-0.0).tobytes()  # 2 m_1 with m_1 = -phi(w) = -0.0
        assert model.truncated_moment(4, 1e200) == 3.0
        assert model.truncated_moment(5, -1e200) == 0.0

    @pytest.mark.parametrize("name,label", [("exponential(1e-200)", "exponential(1e-200)"),
                                            ("exponential(1e200)", "exponential(1e+200)")])
    def test_exponential_moments_past_the_float_range_raise(self, name, label):
        model = parse_model(name)
        message = f"the order-2 moment of {re.escape(label)} is past the float range"
        with pytest.raises(ValueError, match=message):
            model.moment(2)
        with pytest.raises(ValueError, match=message):
            model.truncated_moment(2, 1.0)
        assert model.moment(0) == 1.0 and model.truncated_moment(2, 0.0) == 0.0

    def test_normal_moments_past_the_float_range_raise(self):
        model = parse_model("standard-normal")
        for k in (302, 400):
            with pytest.raises(ValueError, match=f"the order-{k} moment of standard-normal"):
                model.moment(k)
        assert model.moment(401) == 0.0
        with pytest.raises(ValueError, match="the order-400 moment of standard-normal"):
            model.truncated_moment(400, 30.0)

    def test_moments_keep_the_plain_bits_inside_the_float_range(self):
        normal = parse_model("standard-normal")
        for k in range(0, 301, 2):
            assert normal.moment(k) == float(math.prod(range(k - 1, 0, -2)))
        for rate in (2.0, 0.5, 1e-3, 1e3):
            model = NuModel("exponential", (rate,))
            for k in range(40):
                assert model.moment(k) == math.factorial(k) / rate**k

    def test_cdf_ppf_inverse(self):
        for name in ("uniform01", "standard-normal", "exponential(1.5)"):
            model = parse_model(name)
            ps = np.linspace(0.01, 0.99, 21)
            assert np.allclose(model.cdf(model.ppf(ps)), ps, atol=1e-9)


class TestEIdentity:
    def test_semp_mean_matches_product(self):
        # E(P_n(h g)) = lambda_n(h) nu(g): Monte Carlo against the exact product
        model = parse_model("uniform01")
        n, R = 100, 400
        t0, w = 0.6, 0.35
        h = lambda s: 1.0 if s <= t0 else 0.0
        target = eval_lambda_n(h, n) * w
        vals = np.empty(R)
        for r in range(R):
            s = draw_sample(model, n, 900 + r)
            vals[r] = eval_semp(lambda t, x, h=h: h(t) * (1.0 if x <= w else 0.0), s)
        mc_err = 3 * float(np.std(vals)) / math.sqrt(R)
        assert abs(float(np.mean(vals)) - target) <= mc_err


class TestHalfLineMoments:
    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(2)"])
    def test_closed_forms_against_quad(self, model_name):
        from semproc.function_classes import half_line

        from quad_oracle import expect

        model = parse_model(model_name)
        for w in (-0.5, 0.3, 1.7):
            g = half_line(w)
            want = expect(model, g, points=(w,))
            assert g.mean(model) == pytest.approx(want, abs=1e-9)
            assert g.pair_mean(g, model) == pytest.approx(want, abs=1e-9)
