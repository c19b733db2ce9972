"""Z_n, covariance kernels, Gaussian sampling, fidi and modulus machinery."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from semproc import fclt
from semproc.cli import read_h_class, run_experiment
from semproc.fclt import (
    cov_kernel,
    cov_matrix,
    equicontinuity_modulus,
    fidi_convergence_test,
    gaussian_fidi_sample,
    kiefer_cell,
    ks_normal_distance,
    lindeberg_check,
    make_sx_q,
    replicate_Z_values,
)
from semproc.function_classes import (
    INDICATORS,
    BoundedPolynomial,
    BVectorClass,
    HalfLine,
    HolderClass,
    InitialInterval,
    grid_values,
    indicator,
)
from semproc.intervals import IntervalUnion
from semproc.measures import parse_model
from semproc.piecewise import PiecewiseLinear

from member_oracles import exact_grid_values, make_constant_q, random_members
from quad_oracle import cov_kernel_quadrature, expect

UNIFORM = parse_model("uniform01")
NORMAL = parse_model("standard-normal")
SRC = Path(__file__).resolve().parents[1] / "src"


def _linear_h():
    # h(x) = x, a piecewise-linear member of Holder(1,1,1)
    return PiecewiseLinear((0.0, 1.0), (0.0, 1.0))


class TestCenterQ:
    """The centred q_tilde(s, x) = h(s) (g(x) - nu(g)) whose second moment is
    the Lindeberg check's V_n."""

    def test_sx_uniform_centering(self):
        # q_tilde = s (x - 1/2): V_n = lambda_n(s^2) / 12
        for n in (1, 7, 40):
            vn = lindeberg_check(make_sx_q(), UNIFORM, [n], [0.1])["rows"][0]["variance_n"]
            assert vn == pytest.approx((n + 1) * (2 * n + 1) / (6 * n * n) / 12, rel=1e-14)

    def test_centering_kills_mean(self):
        # V_n against E[(q - E q)^2] at each grid point by quad; the float 0.6
        # lies below 6/10, so h(i/n) is 1 at five points, not six
        h, g = kiefer_cell(0.6, 0.3)
        n = 10
        vn = lindeberg_check((h, g), UNIFORM, [n], [0.1])["rows"][0]["variance_n"]
        hs = exact_grid_values(h, n)
        assert hs.sum() == 5.0
        want = 0.0
        for hv in hs:
            mean = expect(UNIFORM, lambda xs, hv=hv: hv * g(xs), points=(g.w,))
            want += expect(UNIFORM, lambda xs, hv=hv: (hv * g(xs) - mean) ** 2,
                           points=(g.w,)) / n
        assert vn == pytest.approx(want, abs=1e-10)

    def test_x_free_q_centers_to_zero(self):
        q = (_linear_h(), BoundedPolynomial((1.0,)))  # q(s, x) = s
        rep = lindeberg_check(q, UNIFORM, [10], [0.1])
        assert rep["degenerate"] and rep["limit_variance"] == 0.0


def _all_builder_qs():
    """Products over {indicator, pl Holder, cusp Holder} x {HalfLine,
    InitialInterval, BoundedPolynomial}, s*x and a constant."""
    hs = [indicator(0.45), HolderClass(1.0, 1.0, 1.0).build_net(0.8)[7],
          *random_members(HolderClass(1.0, 1.0, 0.5), np.random.default_rng(3), 1)]
    gs = [HalfLine(0.3), InitialInterval(0.6), BoundedPolynomial((0.2, -0.5, 0.25))]
    return [(h, g) for h in hs for g in gs] + [make_sx_q(), make_constant_q(-1.3)]


class TestQBroadcast:
    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(2)"])
    def test_grid_matches_per_point_bitwise(self, model_name):
        # replicate_Z_values evaluates h on the grid (grid_values) and g on
        # the whole (R, n) draw matrix; each must equal the per-point values,
        # a set's taken on the Fraction i/n
        model = parse_model(model_name)
        n = 23
        svals = np.arange(1, n + 1) / n
        draws = model.draw(np.random.default_rng(7), (3, n))
        for h, g in _all_builder_qs():
            per_s = (exact_grid_values(h, n) if isinstance(h, IntervalUnion) else
                     np.concatenate([np.atleast_1d(h(svals[i:i + 1])) for i in range(n)]))
            assert grid_values([h], n)[0].tobytes() == per_s.tobytes(), h
            rows = g(draws)
            assert rows.shape == (3, n), g
            for r in range(3):
                per_x = np.concatenate([np.atleast_1d(g(draws[r, i:i + 1])) for i in range(n)])
                assert rows[r].tobytes() == g(draws[r]).tobytes() == per_x.tobytes(), g


class TestEvalZn:
    def test_constant_zero_to_rounding(self):
        Z = replicate_Z_values([make_constant_q(3.7)], 50, 40, 1, UNIFORM)
        assert float(np.max(np.abs(Z))) <= 1e-13

    def test_single_point_hand_value(self):
        # q = 1_(-inf, 0.5](x) at n = 1: Z_1 = 1{X_1 <= 0.5} - 0.5
        q = (indicator(1.0), HalfLine(0.5))
        Z = replicate_Z_values([q], 1, 60, 4, UNIFORM)
        assert set(Z[:, 0].tolist()) == {-0.5, 0.5}

    def test_replicate_zero_mean(self):
        q = kiefer_cell(0.5, 0.5)
        Z = replicate_Z_values([q], 200, 800, 3, UNIFORM)
        mean = float(Z.mean())
        sd = float(Z.std(ddof=1))
        assert abs(mean) <= 3 * sd / math.sqrt(800)

    def test_linearity(self):
        # Z_n(h, c0 + c1 x) = c1 Z_n(h, x): Z_n is linear in g and zero on
        # constants; the columns share one draw matrix
        h = indicator(0.7)
        a0, a1 = 1.7, -0.6
        Z = replicate_Z_values([(h, BoundedPolynomial((0.0, 1.0))),
                                (h, BoundedPolynomial((a0, a1)))], 64, 30, 9, NORMAL)
        assert np.allclose(Z[:, 1], a1 * Z[:, 0], rtol=1e-12, atol=1e-12)

    def test_replicate_non_product_pinned(self):
        # recorded when s*x was a non-product q evaluated by a per-replicate
        # loop; as the pair (identity h, linear g) it sums in another order
        model = parse_model("exponential(2)")
        Z = replicate_Z_values([make_sx_q()], 30, 4, 12, model)
        want = [0.0672857781558536, -0.13381559682770572, 0.08928726248286553,
                -0.07726745995155235]
        assert np.allclose(Z[:, 0], want, rtol=0.0, atol=1e-15)

    def test_variance_identity(self):
        # E(Z_n(q)^2) = (lambda_n x nu)(q_tilde^2)
        h, g = kiefer_cell(0.5, 0.5)
        n, R = 100, 4000
        Z = replicate_Z_values([(h, g)], n, R, 11, UNIFORM)
        hs = exact_grid_values(h, n)
        target = float(np.mean(hs**2 * g.second_moment(UNIFORM) - (hs * g.mean(UNIFORM)) ** 2))
        var = float(np.var(Z[:, 0], ddof=1))
        mc_err = 3 * target * math.sqrt(2.0 / (R - 1))  # chi-square scale
        assert abs(var - target) <= mc_err


class TestCovKernel:
    def test_kiefer_cell_values(self):
        got = cov_kernel(kiefer_cell(0.5, 0.5), kiefer_cell(0.5, 0.5), UNIFORM)
        assert got == pytest.approx(0.125, abs=1e-12)
        got = cov_kernel(kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5), UNIFORM)
        assert got == pytest.approx(0.5 * (0.5 - 0.25), abs=1e-12)

    def test_constant_g_gives_zero(self):
        q1 = kiefer_cell(0.5, 0.5)
        q2 = (_linear_h(), BoundedPolynomial((1.0,)))
        assert cov_kernel(q1, q2, UNIFORM) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(2)"])
    @pytest.mark.parametrize("coeffs", [(1.0,), (0.2, -0.5, 0.25)])
    def test_empty_initial_interval_times_polynomial(self, model_name, coeffs):
        # [0, w] is empty for w < 0, so g1 g2 is identically 0: nu(g1 g2) and
        # the kernel are 0, in both call orders, as the quadrature oracle finds
        model = parse_model(model_name)
        g1, g2 = InitialInterval(-0.5), BoundedPolynomial(coeffs)
        assert g1.pair_mean(g2, model) == 0.0
        assert g2.pair_mean(g1, model) == 0.0
        assert expect(model, lambda xs: g1(xs) * g2(xs), points=(-0.5, 0.0)) == 0.0
        for q1, q2 in [((indicator(0.5), g1), (_linear_h(), g2)),
                       ((_linear_h(), g2), (indicator(0.5), g1))]:
            assert cov_kernel(q1, q2, model) == 0.0
            assert abs(cov_kernel_quadrature(q1, q2, model)) <= 1e-12

    def test_product_vs_generic_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            q1 = (indicator(float(rng.random())), HalfLine(float(rng.random())))
            q2 = (indicator(float(rng.random())),
                  BoundedPolynomial(tuple(rng.random(3) - 0.5)))
            a = cov_kernel(q1, q2, UNIFORM)
            b = cov_kernel_quadrature(q1, q2, UNIFORM)
            assert abs(a - b) <= 1e-8

    def test_quadrature_non_product_uniform(self):
        # q = s x: integral of s^2 Var(X) ds = (1/3)(1/12)
        got = cov_kernel_quadrature(make_sx_q(), make_sx_q(), UNIFORM)
        assert got == pytest.approx(1 / 36, abs=1e-12)

    def test_quadrature_non_product_normal(self):
        got = cov_kernel_quadrature(make_sx_q(), make_sx_q(), NORMAL)
        assert got == pytest.approx(1 / 3, abs=1e-11)

    def test_sx_kernel_closed_form(self):
        # lambda(s^2) Var(X): 1/3 * 1/12 uniform, 1/3 * 1 normal
        assert cov_kernel(make_sx_q(), make_sx_q(), UNIFORM) == pytest.approx(1 / 36, rel=1e-15)
        assert cov_kernel(make_sx_q(), make_sx_q(), NORMAL) == pytest.approx(1 / 3, rel=1e-15)

    def test_matrix_symmetry_and_diagonal(self):
        cells = [kiefer_cell(0.3, 0.7), kiefer_cell(0.6, 0.2), kiefer_cell(0.9, 0.9)]
        cov = cov_matrix(cells, UNIFORM)
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.diag(cov) >= -1e-12)


def _kiefer_closed_form(grid):
    """(s ^ s')(x ^ x' - x x') over the cells ((i + 1) / grid, (k + 1) / grid)
    in row i * grid + k."""
    t = np.arange(1, grid + 1) / grid
    s, x = np.repeat(t, grid), np.tile(t, grid)
    return np.minimum.outer(s, s) * (np.minimum.outer(x, x) - np.outer(x, x))


def _sheet_draws(grid, count, seed, fault=None):
    """The sampler's construction with np.cumsum, and one planted fault on
    request: a cell sd of 1 / grid^2, the bridge taken along s instead of x,
    or a cumulative sum along one axis only."""
    z = np.random.default_rng(seed).standard_normal((grid, grid, count))
    z = z / (grid * grid if fault == "cell-sd" else grid)
    w = z if fault == "sum-x-only" else np.cumsum(z, axis=0)
    if fault != "sum-s-only":
        w = np.cumsum(w, axis=1)
    t = np.arange(1, grid + 1) / grid
    if fault == "bridge-s":
        k = w - t[:, None, None] * w[-1:, :, :]
    else:
        k = w - t[None, :, None] * w[:, -1:, :]
    return k.reshape(grid * grid, count)


class TestGaussianSampler:
    """gaussian_fidi_sample draws the Kiefer process from Brownian-sheet
    increments; the kiefer experiment's default gate is 0.02 at grid 3 and
    1e5 draws."""

    def test_variance_within_five_percent(self):
        draws = gaussian_fidi_sample(3, 10**5, 1)
        want = np.diag(_kiefer_closed_form(3))
        live = want > 0
        assert np.all(np.abs(np.var(draws, axis=1, ddof=1)[live] - want[live])
                      <= 0.05 * want[live])

    @pytest.mark.parametrize("grid", [1, 2, 3, 5])
    def test_x_one_column_is_exactly_zero(self, grid):
        draws = gaussian_fidi_sample(grid, 500, 2)
        assert draws.shape == (grid * grid, 500)
        assert np.all(draws[grid - 1::grid] == 0.0)
        assert np.all(np.delete(draws, np.s_[grid - 1::grid], axis=0) != 0.0)

    def test_kiefer_grid_covariance(self):
        draws = gaussian_fidi_sample(3, 10**5, 3)
        assert float(np.max(np.abs(np.cov(draws) - _kiefer_closed_form(3)))) <= 0.02

    def test_reference_construction_is_the_sampler(self):
        for grid, seed in ((1, 4), (3, 5), (4, 6)):
            assert np.array_equal(_sheet_draws(grid, 300, seed),
                                  gaussian_fidi_sample(grid, 300, seed))

    def test_kiefer_run_holds_one_draw_array(self):
        # the sheet is summed and centred in place and the covariance takes
        # one pair of rows at a time, so the default run's traced peak stays
        # within 1.5 (grid^2, draws) arrays (the eigh sampler and np.cov
        # reached 2)
        run_experiment("kiefer", {"draws": 100})  # imports outside the trace
        tracemalloc.start()
        try:
            run_experiment("kiefer", {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 9 * 10**5 * 8

    @pytest.mark.parametrize("fault", ["cell-sd", "bridge-s", "sum-s-only", "sum-x-only"])
    def test_planted_fault_fails_the_gate(self, fault):
        # the fault-free construction is the sampler, bit for bit (above)
        draws = _sheet_draws(3, 10**5, 3, fault)
        assert float(np.max(np.abs(np.cov(draws) - _kiefer_closed_form(3)))) > 0.02


class TestLindeberg:
    def test_bounded_q_truncates_to_exact_zero(self):
        rep = lindeberg_check(kiefer_cell(0.5, 0.5), UNIFORM, [10, 100, 2000], [0.2])
        rows = rep["rows"]
        assert rows[0]["ratio"] > 0.0
        assert rows[-1]["ratio"] == 0.0

    def test_sx_normal_sequence(self):
        rep = lindeberg_check(make_sx_q(), NORMAL, [100, 10**3, 10**4, 10**6], [0.1])
        ratios = [r["ratio"] for r in rep["rows"]]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 1e-3

    def test_degenerate_branch(self):
        rep = lindeberg_check(make_constant_q(5.0), UNIFORM, [10], [0.1])
        assert rep["degenerate"]

    def test_sx_normal_limit_variance_is_one_third(self):
        # Var(X) lambda(s^2) = 1/3 in closed form, bit for bit
        rep = lindeberg_check(make_sx_q(), NORMAL, [10], [0.1])
        assert rep["limit_variance"] == float(Fraction(1, 3))

    def test_sx_exponential_closed_form_ratio(self):
        # the closed-form tails, each checked against quad in
        # test_sx_tails_match_quad_oracle
        rep = lindeberg_check(make_sx_q(), parse_model("exponential(1)"), [20], [0.5])
        assert rep["rows"][0]["ratio"] == pytest.approx(0.5193425123455222, abs=1e-12)

    def test_sx_uniform_tail_keeps_truncation_hole(self):
        # (2/3) s^2 (1/8 - a^3), a = T/s: the set |s(x - 1/2)| < T is cut out,
        # so the tail sits below the untruncated s^2/12 = 0.001875
        h, g = make_sx_q()
        got = float(g.centered_sq_tail(UNIFORM, h(np.array([0.15])), 0.01)[0])
        assert got == pytest.approx((2 / 3) * 0.15**2 * (1 / 8 - (0.01 / 0.15) ** 3), rel=1e-13)
        assert abs(got - 0.0018706) < 1e-7

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(1)"])
    def test_sx_tail_at_s_zero_is_zero_without_warnings(self, model_name):
        # at s = 0 the threshold T/s is infinite and the tail is empty
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, g = make_sx_q()
            got = g.centered_sq_tail(parse_model(model_name), h(np.array([0.0, 0.0])), 0.1)
        assert got.tolist() == [0.0, 0.0]

    def test_sx_uniform_small_threshold_ratio(self):
        rep = lindeberg_check(make_sx_q(), UNIFORM, [20], [0.05])
        assert rep["rows"][0]["ratio"] == pytest.approx(0.996303727869894, abs=1e-12)

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(1)",
                                            "exponential(2.5)"])
    def test_sx_tails_match_quad_oracle(self, model_name):
        # s^2 E[(X - mu)^2; |X - mu| >= T/s] by scipy quad, split at mu -+ T/s;
        # the grid reaches a >= 1/2 (uniform, empty tail) and mu - a <= 0
        # (exponential, no lower piece)
        model = parse_model(model_name)
        h, g = make_sx_q()
        mu = model.moment(1)
        for s in (0.15, 0.5, 1.0):
            for T in (0.01, 0.1, 0.3, 0.6, 1.0):
                def integrand(xs, s=s, T=T):
                    v = s * (xs - mu)
                    return np.where(np.abs(v) >= T, v * v, 0.0)

                want = expect(model, integrand, tol=1e-13, points=(mu - T / s, mu + T / s))
                got = float(g.centered_sq_tail(model, h(np.array([s])), T)[0])
                assert got == pytest.approx(want, rel=1e-10, abs=1e-13), (s, T)

    def test_no_closed_form_raises(self):
        # a degree-2 g has no closed-form tail
        q = (indicator(0.5), BoundedPolynomial((0.0, 1.0, 1.0)))
        with pytest.raises(ValueError):
            lindeberg_check(q, UNIFORM, [20], [0.1])

    @pytest.mark.parametrize("model_name", ["uniform01", "standard-normal", "exponential(2)"])
    def test_linear_g_tails_match_quad_oracle(self, model_name):
        # h(s) (c0 + c1 x) centred is h(s) c1 (x - mu): E[. ^2; |.| >= T] by
        # scipy quad, split at mu -+ T / |h(s) c1|, with a non-identity h
        # that vanishes on part of [0, 1] and c1 < 0
        model = parse_model(model_name)
        mu = model.moment(1)
        h = PiecewiseLinear((0.0, 0.4, 1.0), (0.0, 0.0, -0.9))
        c1 = -1.3
        g = BoundedPolynomial((0.7, c1))
        svals = np.array([0.2, 0.55, 0.8, 1.0])
        for T in (0.01, 0.1, 0.4, 1.0):
            got = g.centered_sq_tail(model, h(svals), T)
            for s, tail in zip(svals, got):
                v = float(h(s)) * c1
                if v == 0.0:
                    assert tail == 0.0
                    continue

                def integrand(xs, v=v, T=T):
                    q = v * (xs - mu)
                    return np.where(np.abs(q) >= T, q * q, 0.0)

                cut = T / abs(v)
                want = expect(model, integrand, tol=1e-13, points=(mu - cut, mu + cut))
                assert tail == pytest.approx(want, rel=1e-10, abs=1e-13), (s, T)

    def test_empty_grid_row_reports_no_ratio(self):
        # the grid i/10 misses (0, 0.05], so V_10 = 0 while the limit
        # variance 0.05 * 1/4 is positive
        rep = lindeberg_check(kiefer_cell(0.05, 0.5), UNIFORM, [10, 100], [0.1])
        assert not rep["degenerate"]
        first, second = rep["rows"]
        assert first["variance_n"] == 0.0 and first["ratio"] is None
        assert second["variance_n"] > 0.0 and second["ratio"] is not None


class TestFidi:
    def test_small_scale_passes_loose(self):
        cells = [kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5)]
        rep = fidi_convergence_test(cells, 500, 1500, 8, UNIFORM)
        assert rep["max_cov_error"] <= 0.1
        assert all(r["ks"] <= 0.08 for r in rep["marginal_ks"] + rep["combo_ks"])
        assert np.shape(rep["empirical_cov"]) == (2, 2)

    def test_constant_q_degenerate_marginal(self):
        rep = fidi_convergence_test([make_constant_q(1.0)], 100, 400, 1, UNIFORM)
        assert rep["marginal_ks"][0]["degenerate"]
        assert rep["marginal_ks"][0]["ks"] == 0.0


class TestKSDistance:
    def test_equals_scipy_kstest(self):
        from scipy import stats

        rng = np.random.default_rng(31)
        for case in range(40):
            m = int(rng.choice([1, 2, 7, 1200, 5000]))
            sd = float(rng.uniform(0.1, 3.0))
            values = sd * rng.standard_normal(m)
            if case % 4 == 0:
                values = np.round(values, 1)  # ties
            want = stats.kstest(values, stats.norm(0.0, sd).cdf).statistic
            assert ks_normal_distance(values, sd) == want

    def test_cli_import_leaves_scipy_stats_out(self):
        # and every other scipy module, with numpy.f2py that scipy.special
        # pulls in: the runtime needs NumPy alone
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        code = ("import sys, semproc.cli; print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy', 'numpy.f2py'))))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestModulus:
    @pytest.fixture
    def small_caps(self, monkeypatch):
        monkeypatch.setattr(fclt, "_H_CAP", 20)
        monkeypatch.setattr(fclt, "_G_CAP", 8)

    def test_zero_alpha_zero_modulus(self, small_caps):
        rep = equicontinuity_modulus(HolderClass(1.0, 1.0, 1.0), 200, (0.0, 0.3), 0.45, 10, 1,
                                     UNIFORM)
        assert rep.rows[0]["mean_modulus"] == 0.0
        assert rep.rows[0]["pairs"] == 0

    def test_monotone_and_saturates(self, small_caps):
        rep = equicontinuity_modulus(HolderClass(1.0, 1.0, 1.0), 300, (0.1, 0.4, 50.0), 0.45,
                                     15, 2, UNIFORM)
        vals = [r["mean_modulus"] for r in rep.rows]
        assert vals[0] <= vals[1] <= vals[2]
        # alpha beyond the diameter reaches every pair
        total_pairs = rep.rows[-1]["pairs"]
        kh, kg = rep.h_pool, rep.g_pool
        assert total_pairs == (kh * kg) * (kh * kg - 1) // 2

    def test_fine_indicator_net_is_thinned_before_it_is_built(self):
        # net_u = 1e-3 spaces 1e6 indicators: the pool draws 4 cap of them
        # before building any, as for a Holder net
        pool, sq = fclt._h_pool(INDICATORS, 1e-3, 1)
        ts = np.array([float(h.lebesgue()) for h in pool])
        assert len(pool) == 60 and np.all(np.diff(ts) > 0)
        assert sq.tobytes() == np.abs(np.subtract.outer(ts, ts)).tobytes()

    def test_indicator_family_pool(self, monkeypatch):
        monkeypatch.setattr(fclt, "_H_CAP", 12)
        monkeypatch.setattr(fclt, "_G_CAP", 8)
        rep = equicontinuity_modulus(BVectorClass(0, "odd"), 200, (0.2, 0.6), 0.35, 10, 3,
                                     UNIFORM)
        assert rep.rows[0]["mean_modulus"] <= rep.rows[1]["mean_modulus"]


def _d_g_by_pair_means(g_pool, model) -> np.ndarray:
    """sqrt(nu((g1 - g2)^2)) = sqrt(nu(g1^2) - 2 nu(g1 g2) + nu(g2^2)) from the
    members' second moments and pair means: the form the closed form replaced."""
    seconds = np.array([g.second_moment(model) for g in g_pool])
    cross = np.array([[g1.pair_mean(g2, model) for g2 in g_pool] for g1 in g_pool])
    return np.sqrt(np.maximum(seconds[:, None] - 2 * cross + seconds[None, :], 0.0))


# the fclt configs whose modulus rows a digest pins, and the default and
# selftest ones: (h_class, net_u, model, alpha_list, seed)
_HOLDER = {"class": "holder", "T": 1.0, "C": 1.0, "beta": 1.0}
_PINNED_MODULI = {
    "default": (_HOLDER, 0.3, "uniform01", [0.05, 0.1, 0.2, 0.4], 1),
    "selftest": (_HOLDER, 0.4, "uniform01", [0.1, 0.4], 1),
    "fclt-holder-modulus": ({**_HOLDER, "C": 0.5}, 0.6, "standard-normal", [0.2, 0.5], 8),
    "fclt-holder-product-q": (_HOLDER, 0.6, "uniform01", [0.3, 0.8], 4),
    "fclt-indicator-modulus": ({"class": "indicators"}, 0.3, "exponential(2)", [0.2, 0.6], 9),
    "fclt-modulus-lindeberg": (_HOLDER, 0.45, "uniform01", [0.2, 0.5], 8),
}


class TestHalfLineDistances:
    @pytest.mark.parametrize("name", ["uniform01", "standard-normal", "exponential(1)"])
    @pytest.mark.parametrize("net_u", [0.05, 0.1, 0.2, 0.3, 0.4])
    def test_closed_form_matches_pair_means(self, name, net_u):
        model = parse_model(name)
        _, g_pool, _, d_g = fclt._member_pools(INDICATORS, net_u, 1, model)
        assert len(g_pool) >= 2
        assert np.max(np.abs(d_g - _d_g_by_pair_means(g_pool, model))) <= 2.3e-16

    @pytest.mark.parametrize("case", sorted(_PINNED_MODULI))
    def test_same_pairs_at_every_pinned_alpha(self, case):
        desc, net_u, name, alphas, seed = _PINNED_MODULI[case]
        model = parse_model(name)
        _, g_pool, d_h, d_g = fclt._member_pools(read_h_class(desc), net_u, seed, model)
        old = _d_g_by_pair_means(g_pool, model)
        for alpha in alphas:
            got, want = fclt._pairs_within(d_h, d_g, alpha), fclt._pairs_within(d_h, old, alpha)
            assert [a.tobytes() for a in got[:2]] == [a.tobytes() for a in want[:2]]
