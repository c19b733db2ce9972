"""Pseudo-metrics, covering numbers, the lemma suite, shatter coefficients."""

import math
import textwrap

import numpy as np
import pytest

from semproc.covering import (
    check_covering_lemmas,
    exact_covering_number,
    greedy_net_indices,
    random_covering_boundedness,
    shatter_coefficient,
)
from semproc.function_classes import (
    BVectorClass,
    HalfLine,
    indicator,
    lambda_sq_matrix,
)
from semproc.measures import parse_model

from test_cli import _run_capped


def _euclid(points):
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


def d2_lambda(h1, h2):
    """L2(lambda) distance of two set members from the exact lambda((h1-h2)^2),
    the measure of their symmetric difference."""
    return math.sqrt(max(float(h1.symdiff_measure(h2)), 0.0))


def d2_nu(g1, g2, model):
    """L2(nu) distance from the closed-form g moments."""
    sq = g1.second_moment(model) - 2.0 * g1.pair_mean(g2, model) + g2.second_moment(model)
    return math.sqrt(max(sq, 0.0))


def _metric(kind, model):
    """The distance of kind, and the side it acts on ('h' or 'g')."""
    if kind == "d2_lambda":
        return d2_lambda, "h"
    return (lambda a, b: d2_nu(a, b, model)), "g"


def _triples(rng, side):
    member = indicator if side == "h" else HalfLine
    return (member(float(t)) for t in rng.random(3))


class TestPseudoMetrics:
    def test_identity_is_zero(self):
        model = parse_model("uniform01")
        h = indicator(0.6)
        g = HalfLine(0.4)
        assert d2_lambda(h, h) == 0.0
        assert d2_nu(g, g, model) == 0.0

    def test_d2_lambda_indicator_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t1, t2 = rng.random(2)
            got = d2_lambda(indicator(t1), indicator(t2))
            assert got == pytest.approx(math.sqrt(abs(t1 - t2)), abs=1e-12)

    @pytest.mark.parametrize("kind,ctx", [("d2_lambda", None), ("d2_nu", "m")])
    def test_axioms_random_triples(self, kind, ctx):
        # ctx is the context the distance needs: none, or the model
        dist, side = _metric(kind, parse_model("uniform01") if ctx == "m" else None)
        rng = np.random.default_rng(11)
        for _ in range(120):
            a, b, c = _triples(rng, side)
            dab = dist(a, b)
            assert dab == pytest.approx(dist(b, a), abs=1e-12)
            assert dab <= dist(a, c) + dist(c, b) + 1e-12


class TestCoveringNumbers:
    def test_greedy_equals_exact_on_line(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pts = sorted(rng.random(int(rng.integers(2, 11))) * 3)
            dist = _euclid([[p] for p in pts])
            u = float(rng.random() * 2 + 0.05)
            greedy = len(greedy_net_indices(dist, u))
            exact = exact_covering_number(dist, u)
            assert exact <= greedy <= 2 * exact  # factor-2 property, checked

    def test_greedy_rejects_a_self_distance_of_u(self):
        # the sweep picks an index whose self-distance is >= u again on every
        # pass, so such a matrix is refused before the sweep; the calls run
        # in a capped child, where an endless sweep fails the test
        code = textwrap.dedent("""
            import numpy as np
            from semproc.covering import greedy_net_indices
            dist = np.array([[0.0, 1.0], [1.0, 0.5]])
            for u in (0.5, 0.25, 0.75):
                try:
                    print(greedy_net_indices(dist, u))
                except ValueError as exc:
                    print(exc)
        """)
        out = _run_capped(["-c", code])
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "greedy net distances must be finite and self-distances < u = 0.5",
            "greedy net distances must be finite and self-distances < u = 0.25",
            "[0, 1]"]

    def test_greedy_picks_each_index_at_most_once(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            dist = rng.random((k, k))
            dist = dist + dist.T
            u = float(rng.random() * 0.5 + 0.05)
            np.fill_diagonal(dist, rng.random(k) * u)  # every self-distance below u
            chosen = greedy_net_indices(dist, u)
            assert chosen[0] == 0 and len(set(chosen)) == len(chosen)

    def test_planted_half_meet_term_raises_at_once(self):
        # halving the -2 #Q(meet) term of _quadrant_distances makes every
        # self-distance #Q / n, once an endless sweep: now a ValueError
        # within seconds, in a child capped in time and address space
        code = textwrap.dedent("""
            import time
            import numpy as np
            from semproc import covering
            from semproc.measures import parse_model

            def half_meet(counts, n):
                rows, cols = counts.shape
                a, k = np.arange(rows), np.arange(cols)
                meet = counts[np.minimum.outer(a, a)[:, None, :, None],
                              np.minimum.outer(k, k)[None, :, None, :]].reshape(rows * cols, -1)
                c = counts.ravel()
                return (c[:, None] + c[None, :] - meet) / n

            covering._quadrant_distances = half_meet
            start = time.monotonic()
            try:
                covering.random_covering_boundedness(0.5, [10, 100], [1],
                                                     parse_model("uniform01"))
            except ValueError as exc:
                print(f"ValueError {time.monotonic() - start:.3f}: {exc}")
        """)
        out = _run_capped(["-c", code])
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("ValueError"), out.stdout
        assert float(out.stdout.split()[1].rstrip(":")) < 5.0, out.stdout

    def test_subfamily_monotone_ambient(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(3, 11))
            dist = _euclid(rng.random((k, 2)))
            u = float(rng.random() * 1.2 + 0.05)
            sub = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)),
                                    replace=False).tolist())
            assert exact_covering_number(dist, u, targets=sub) <= exact_covering_number(dist, u)

    def test_lemma_suite_clean(self):
        rep = check_covering_lemmas(1000, 42)
        assert len(rep["lemma_violations"]) == 0
        assert all(v == 1000 for v in rep["lemma_checks"].values())

    def test_lemma_suite_validates_input(self):
        with pytest.raises(ValueError):
            check_covering_lemmas(0, 1)


class TestShatter:
    def test_half_lines_prefixes(self):
        assert shatter_coefficient(BVectorClass(0, "odd"), [0.1, 0.5, 0.9]) == 4

    def test_b1_prefixes(self):
        rng = np.random.default_rng(3)
        for k in range(1, 9):
            pts = np.sort(rng.random(k) * 0.98 + 0.01)
            assert shatter_coefficient(BVectorClass(0, "odd"), pts) == k + 1

    def test_b3_shatters_three_points(self):
        assert shatter_coefficient(BVectorClass(1, "odd"), [0.2, 0.5, 0.8]) == 2**3

    def test_b3_never_shatters_four(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pts = np.sort(rng.random(4) * 0.98 + 0.01)
            assert shatter_coefficient(BVectorClass(1, "odd"), pts) < 16

    def test_sauer_bound(self):
        rng = np.random.default_rng(5)
        for cls, dim in ((BVectorClass(1, "odd"), 3), (BVectorClass(2, "odd"), 5),
                         (BVectorClass(1, "even"), 2), (BVectorClass(0, "odd"), 1)):
            for _ in range(30):
                k = int(rng.integers(1, 11))
                pts = np.sort(rng.random(k) * 0.98 + 0.01)
                coefficient = shatter_coefficient(cls, pts)
                assert coefficient <= (k + 1) ** dim
                assert coefficient <= 2**k

    def test_oracle_against_direct_enumeration(self):
        # independent oracle: enumerate breakpoint grids and collect dichotomies
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            pts = np.sort(rng.random(k) * 0.9 + 0.05)
            cuts = [0.0] + [(a + b) / 2 for a, b in zip(pts, pts[1:])] + [1.0]
            cls = BVectorClass(1, "odd")
            seen = set()
            for t0 in cuts:
                for t1 in cuts:
                    for t2 in cuts:
                        if not (t0 <= t1 <= t2):
                            continue
                        mask = 0
                        for i, p in enumerate(pts):
                            inside = (0 < p <= t0) or (t1 < p <= t2)
                            if inside:
                                mask |= 1 << i
                        seen.add(mask)
            assert shatter_coefficient(cls, pts) == len(seen)

    @pytest.mark.parametrize("j,parity", [(j, p) for j in range(4) for p in ("odd", "even")
                                          if (j, p) != (0, "even")])
    def test_closed_form(self, j, parity):
        # a subset of r runs among k points is a choice of 2r of the k + 1
        # gaps; B(2j) takes r <= j, and B(2j+1) also the sets of j + 1 runs
        # that hold the first point: 2j + 1 of the k gaps after it
        cls = BVectorClass(j, parity)
        for k in range(21):
            want = sum(math.comb(k + 1, 2 * r) for r in range(j + 1))
            if parity == "odd":
                want += math.comb(k, 2 * j + 1)
            assert shatter_coefficient(cls, [i / 20 for i in range(k)]) == want

    def test_b5_at_twenty_points(self):
        assert shatter_coefficient(BVectorClass(2, "odd"), np.linspace(0.0, 1.0, 20)) == 21_700

    def test_instance_too_large(self):
        with pytest.raises(ValueError):
            shatter_coefficient(BVectorClass(0, "odd"), list(np.linspace(0.01, 0.99, 21)))


class TestRandomCoveringBoundedness:
    def test_trivial_radius(self):
        model = parse_model("uniform01")
        rep = random_covering_boundedness(2.5, [20], [1], model)
        assert rep["covering_max_observed"] == 1

    def test_within_product_bound(self):
        model = parse_model("uniform01")
        rep = random_covering_boundedness(0.5, [10, 100, 1000], list(range(8)), model)
        assert sum(not t["ok"] for t in rep["covering_trials"]) == 0
        assert all(t["observed"] <= t["bound"] for t in rep["covering_trials"])


class TestReportSurfaces:
    def test_lemma_report_json(self):
        rep = check_covering_lemmas(20, 3)
        rows = rep["lemma_reports"]
        assert {r["lemma"] for r in rows} == {"subset", "domination", "product", "isometry"}
        for r in rows:
            assert set(r) == {"lemma", "trials", "violations", "worst_case"}
            assert r["violations"] == 0 and r["worst_case"] is None


class TestCompositeMetricProductBound:
    def test_f_net_covering_factorizes(self):
        # N(eps, F-net, d) <= N(eps/2, H-net, d2_lambda) * N(eps/2, G-net, d2_nu),
        # with the composite d((h, g), (h', g')) = d2_lambda(h, h') + d2_nu(g, g')
        model = parse_model("uniform01")
        h_net = [indicator(t) for t in (0.25, 0.5, 0.75, 1.0)]
        g_net = [HalfLine(w) for w in (0.2, 0.5, 0.8)]
        d_h = np.sqrt(np.maximum(lambda_sq_matrix(h_net), 0.0))
        d_g = np.array([[d2_nu(a, b, model) for b in g_net] for a in g_net])
        k = len(h_net) * len(g_net)  # F-net member (h_a, g_b) is row a * len(g_net) + b
        d_f = (d_h[:, None, :, None] + d_g[None, :, None, :]).reshape(k, k)
        for eps in (0.3, 0.6, 0.9, 1.5):
            n_f = exact_covering_number(d_f, eps)
            bound = (exact_covering_number(d_h, eps / 2)
                     * exact_covering_number(d_g, eps / 2))
            assert n_f <= bound


class TestMetricAxiomsFullScale:
    def test_thousand_triples_each(self):
        model = parse_model("uniform01")
        rng = np.random.default_rng(60)
        for kind in ("d2_lambda", "d2_nu"):
            dist, side = _metric(kind, model)
            for _ in range(1000):
                a, b, c = _triples(rng, side)
                dab = dist(a, b)
                assert dab == pytest.approx(dist(b, a), abs=1e-12)
                assert dab <= dist(a, c) + dist(c, b) + 1e-12
