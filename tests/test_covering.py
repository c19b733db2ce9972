"""Pseudo-metrics, covering numbers, the lemma suite, shatter coefficients."""

import math

import numpy as np
import pytest

from semproc.covering import (
    PseudoMetricId,
    check_covering_lemmas,
    eval_pseudometric,
    exact_covering_number,
    greedy_net_indices,
    pairwise_distances,
    random_covering_boundedness,
    shatter_coefficient,
)
from semproc.function_classes import (
    BoundedPolynomial,
    BVectorClass,
    GClass,
    HalfLine,
    HolderClass,
    IndicatorFamily,
    IndicatorMember,
    ProductClass,
)
from semproc.measures import draw_sample, parse_model


def _euclid(points):
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))


class TestPseudoMetrics:
    def test_identity_is_zero(self):
        model = parse_model("uniform01")
        s = draw_sample("uniform01", 20, 1)
        h = IndicatorMember(0.6)
        g = HalfLine(0.4)
        for kind in ("d1_lambdan", "d2_lambdan"):
            m = PseudoMetricId(kind, n=20)
            assert eval_pseudometric(m, h, h) == 0.0
        for kind in ("d1_nun", "d2_nun"):
            m = PseudoMetricId(kind, sample=s)
            assert eval_pseudometric(m, g, g) == 0.0
        m = PseudoMetricId("composite_d", model=model)
        assert eval_pseudometric(m, (h, g), (h, g)) == 0.0

    def test_d2_lambda_indicator_closed_form(self):
        m = PseudoMetricId("d2_lambda")
        rng = np.random.default_rng(0)
        for _ in range(50):
            t1, t2 = rng.random(2)
            got = eval_pseudometric(m, IndicatorMember(t1), IndicatorMember(t2))
            assert got == pytest.approx(math.sqrt(abs(t1 - t2)), abs=1e-12)

    def test_d1_pn_single_atom_constants(self):
        s = draw_sample("uniform01", 1, 3)
        metric = PseudoMetricId("d1_Pn", sample=s)
        f1 = (IndicatorMember(1.0), BoundedPolynomial((0.7,)))
        f2 = (IndicatorMember(1.0), BoundedPolynomial((0.2,)))
        assert eval_pseudometric(metric, f1, f2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("kind,ctx", [
        ("d1_lambdan", "n"), ("d2_lambdan", "n"),
        ("d1_nun", "s"), ("d2_nun", "s"),
        ("d2_lambda", None), ("d2_nu", "m"),
    ])
    def test_axioms_random_triples(self, kind, ctx):
        model = parse_model("uniform01")
        sample = draw_sample("uniform01", 30, 5)
        metric = PseudoMetricId(
            kind,
            n=30 if ctx == "n" else None,
            sample=sample if ctx == "s" else None,
            model=model if ctx == "m" else None,
        )
        rng = np.random.default_rng(11)
        h_kinds = kind in ("d1_lambdan", "d2_lambdan", "d2_lambda")
        for _ in range(120):
            if h_kinds:
                a, b, c = (IndicatorMember(float(t)) for t in rng.random(3))
            else:
                a, b, c = (HalfLine(float(t)) for t in rng.random(3))
            dab = eval_pseudometric(metric, a, b)
            dba = eval_pseudometric(metric, b, a)
            dac = eval_pseudometric(metric, a, c)
            dcb = eval_pseudometric(metric, c, b)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= dac + dcb + 1e-12

    def test_d2_product_composite_consistency(self):
        # d2_product at n against the closed-form grams
        model = parse_model("uniform01")
        metric = PseudoMetricId("d2_product", n=50, model=model)
        f1 = (IndicatorMember(0.5), HalfLine(0.3))
        f2 = (IndicatorMember(0.8), HalfLine(0.6))
        got = eval_pseudometric(metric, f1, f2)
        # direct evaluation through the defining sum over the grid
        import numpy as np
        s = (np.arange(1, 51)) / 50
        h1 = (s <= 0.5).astype(float)
        h2 = (s <= 0.8).astype(float)
        want = math.sqrt(np.mean(h1 * h1 * 0.3 - 2 * h1 * h2 * 0.3 + h2 * h2 * 0.6))
        assert got == pytest.approx(want, abs=1e-12)


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
        assert rep.total_violations == 0
        assert all(v == 1000 for v in rep.checks.values())

    def test_lemma_suite_validates_input(self):
        with pytest.raises(ValueError):
            check_covering_lemmas(0, 1)


class TestShatter:
    def test_half_lines_prefixes(self):
        rep = shatter_coefficient(GClass("half-lines"), [0.1, 0.5, 0.9])
        assert rep.coefficient == 4

    def test_b1_prefixes(self):
        rng = np.random.default_rng(3)
        for k in range(1, 9):
            pts = np.sort(rng.random(k) * 0.98 + 0.01)
            rep = shatter_coefficient(BVectorClass(0, "odd"), pts)
            assert rep.coefficient == k + 1

    def test_b3_shatters_three_points(self):
        rep = shatter_coefficient(BVectorClass(1, "odd"), [0.2, 0.5, 0.8])
        assert rep.coefficient == 8 and rep.shatters

    def test_b3_never_shatters_four(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pts = np.sort(rng.random(4) * 0.98 + 0.01)
            rep = shatter_coefficient(BVectorClass(1, "odd"), pts)
            assert rep.coefficient < 16

    def test_sauer_bound(self):
        rng = np.random.default_rng(5)
        for cls, dim in ((BVectorClass(1, "odd"), 3), (BVectorClass(2, "odd"), 5),
                         (BVectorClass(1, "even"), 2), (GClass("half-lines"), 1)):
            for _ in range(30):
                k = int(rng.integers(1, 11))
                pts = np.sort(rng.random(k) * 0.98 + 0.01)
                rep = shatter_coefficient(cls, pts)
                assert rep.coefficient <= rep.sauer_bound(dim)
                assert rep.coefficient <= 2**k

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
            rep = shatter_coefficient(cls, pts)
            assert rep.coefficient == len(seen)

    def test_instance_too_large(self):
        with pytest.raises(ValueError):
            shatter_coefficient(GClass("half-lines"), list(np.linspace(0.01, 0.99, 21)))


class TestRandomCoveringBoundedness:
    def test_trivial_radius(self):
        model = parse_model("uniform01")
        pc = ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(UB,M-VC)")
        rep = random_covering_boundedness(pc, 2.5, [20], [1], model)
        assert rep.max_observed == 1

    def test_within_product_bound(self):
        model = parse_model("uniform01")
        pc = ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(UB,M-VC)")
        rep = random_covering_boundedness(pc, 0.5, [10, 100, 1000], list(range(8)), model)
        assert rep.violations == 0
        assert all(t["observed"] <= t["bound"] for t in rep.trials)

    def test_requires_ub_tag(self):
        pc = ProductClass(IndicatorFamily(), GClass("half-lines"), "pi(nuG,J-VC)")
        with pytest.raises(ValueError):
            random_covering_boundedness(pc, 0.5, [10], [1], parse_model("uniform01"))


class TestReportSurfaces:
    def test_lemma_report_json(self):
        rep = check_covering_lemmas(20, 3)
        rows = rep.to_json()
        assert {r["lemma"] for r in rows} == {"subset", "domination", "product", "isometry"}
        for r in rows:
            assert set(r) == {"lemma", "trials", "violations", "worst_case"}
            assert r["violations"] == 0 and r["worst_case"] is None

    def test_shatter_report_json_with_dichotomies(self):
        rep = shatter_coefficient(BVectorClass(0, "odd"), [0.2, 0.6], keep_dichotomies=True)
        out = rep.to_json()
        assert out["coefficient"] == 3
        assert sorted(map(tuple, out["dichotomies"])) == [(), (0,), (0, 1)]


class TestCompositeMetricProductBound:
    def test_f_net_covering_factorizes(self):
        # N(eps, F-net, d) <= N(eps/2, H-net, d2_lambda) * N(eps/2, G-net, d2_nu)
        model = parse_model("uniform01")
        h_net = [IndicatorMember(t) for t in (0.25, 0.5, 0.75, 1.0)]
        g_net = [HalfLine(w) for w in (0.2, 0.5, 0.8)]
        f_net = [(h, g) for h in h_net for g in g_net]
        d_f = pairwise_distances(f_net, PseudoMetricId("composite_d", model=model))
        d_h = pairwise_distances(h_net, PseudoMetricId("d2_lambda"))
        d_g = pairwise_distances(g_net, PseudoMetricId("d2_nu", model=model))
        for eps in (0.3, 0.6, 0.9, 1.5):
            n_f = exact_covering_number(d_f, eps)
            bound = (exact_covering_number(d_h, eps / 2)
                     * exact_covering_number(d_g, eps / 2))
            assert n_f <= bound


class TestMetricAxiomsFullScale:
    def test_thousand_triples_each(self):
        model = parse_model("uniform01")
        sample = draw_sample("uniform01", 25, 6)
        rng = np.random.default_rng(60)
        configs = [
            ("d1_lambdan", dict(n=25), "h"),
            ("d2_lambdan", dict(n=25), "h"),
            ("d2_lambda", {}, "h"),
            ("d1_nun", dict(sample=sample), "g"),
            ("d2_nun", dict(sample=sample), "g"),
            ("d2_nu", dict(model=model), "g"),
        ]
        for kind, kw, side in configs:
            metric = PseudoMetricId(kind, **kw)
            for _ in range(1000):
                if side == "h":
                    a, b, c = (IndicatorMember(float(t)) for t in rng.random(3))
                else:
                    a, b, c = (HalfLine(float(t)) for t in rng.random(3))
                dab = eval_pseudometric(metric, a, b)
                assert dab == pytest.approx(eval_pseudometric(metric, b, a), abs=1e-12)
                assert dab <= (eval_pseudometric(metric, a, c)
                               + eval_pseudometric(metric, c, b) + 1e-12)
