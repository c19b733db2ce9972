"""One grid rule for set members.

A set member meets the grid i/n only through the integer floors of its end
points (IntervalUnion.on_grid, grid_count).  Every path that reads a set at
the grid is checked here against the Fraction oracle i/n in (a, b]
(member_oracles.exact_grid_values), at points where comparing the float
i / n with a float end point gives the other answer: the float 0.3 lies
below 3/10 and the float 0.6 below 6/10, and the ULLN net sandwich's
indicator net at mesh 0.1 - 1/n has such end points at n = 1000 and 10000.
The four paths are the FCLT replicate columns, the Lindeberg V_n, the net
sandwich and the random covering distances; a Sample carries the NuModel
it was drawn from, and the IntervalUnion constructor normalizes its pairs.
"""

from fractions import Fraction

import numpy as np
import pytest

from semproc import covering, fclt, ulln
from semproc.fclt import lindeberg_check
from semproc.function_classes import (
    BVectorClass,
    grid_values,
    half_line,
    indicator,
    indicator_net,
)
from semproc.intervals import IntervalUnion
from semproc.measures import NuModel, Sample, draw_sample, parse_model
from semproc.ulln import sup_deviation_bruteforce, sup_deviation_exact_BW, sup_deviation_net

from member_oracles import exact_grid_values, one_shot_Z, set_member
from test_covering_oracle import gram_l1

UNIFORM = parse_model("uniform01")

# set members at n = 10 and their exact grid counts
SMALL = {
    "indicator(0.3)": (indicator(0.3), 2),
    "indicator(0.6)": (indicator(0.6), 5),
    "B(2) member (0.1, 0.3]": (set_member(BVectorClass(1, "even"), [0.1, 0.3]), 1),
}


def float_rule(h, n: int) -> np.ndarray:
    """The rule that left semproc: the float i / n against the float ends."""
    s = np.arange(1, n + 1) / n
    return np.array([float(any(float(a) < x <= float(b) for a, b in h.bounds)) for x in s])


def sandwich_net(n: int) -> list:
    return indicator_net(0.1 - 1.0 / n)  # sup_deviation_net's net at net_u = 0.2


def record_kernel(monkeypatch) -> list:
    """(h_vals, g_list, model) of each process_deviations call from ulln."""
    seen, kernel = [], ulln.process_deviations

    def record(h_vals, g_list, rows, model, by_h=False):
        seen.append((h_vals, g_list, model))
        return kernel(h_vals, g_list, rows, model, by_h)

    monkeypatch.setattr(ulln, "process_deviations", record)
    return seen


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_members_against_the_fraction_oracle(name):
    h, count = SMALL[name]
    want = exact_grid_values(h, 10)
    assert want.sum() == count == h.grid_count(10)
    assert float_rule(h, 10).sum() == count + 1  # the float rule counts one point more
    assert grid_values([h], 10)[0].tobytes() == h.on_grid(10).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1000, 10000])
def test_sandwich_net_against_the_fraction_oracle(n):
    net = sandwich_net(n)
    want = np.stack([exact_grid_values(h, n) for h in net])
    assert grid_values(net, n).tobytes() == want.tobytes()
    assert sum((float_rule(h, n) != row).any() for h, row in zip(net, want)) == 2


@pytest.mark.parametrize("by_h", [False, True])
def test_replicate_columns_read_the_exact_rows(by_h):
    hs = [h for h, _ in SMALL.values()]
    gs = [half_line(0.4), half_line(0.8)]
    n, R, seed = 10, 40, 3
    got = fclt._replicate_Z(hs, gs, range(len(hs) * len(gs)), n, R, seed, UNIFORM, by_h)
    want = one_shot_Z(hs, gs, n, R, np.random.default_rng(seed), UNIFORM, by_h)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_lindeberg_variance_counts_the_exact_points(name):
    # V_n = lambda_n(h) F(w) (1 - F(w)) for a 0/1 h: 0.105 for indicator(0.6),
    # where the float rule read 0.126
    h, count = SMALL[name]
    g = half_line(0.3)
    vn = lindeberg_check((h, g), UNIFORM, [10], [0.1])["rows"][0]["variance_n"]
    hs = exact_grid_values(h, 10)
    assert vn == float(np.mean(hs**2 * 0.3 - (hs * 0.3) ** 2))
    assert vn == pytest.approx(count / 10 * 0.21, rel=1e-14)


@pytest.mark.parametrize("n", [1000, 10000])
def test_net_sandwich_reads_the_exact_rows(monkeypatch, n):
    seen = record_kernel(monkeypatch)
    sample = draw_sample(UNIFORM, n, 1)
    lower, upper = sup_deviation_net(sample, 0.2)
    [(h_vals, g_list, _)] = seen
    want = np.stack([exact_grid_values(h, n) for h in sandwich_net(n)])
    assert h_vals.tobytes() == want.tobytes()
    # each h is a grid prefix i <= p: P_n(hg) - lambda_n(h) nu(g) is
    # (#{i <= p : X_i <= w} - p F(w)) / n, from integer counts
    xs = sample.xs()
    best = max(abs(int(np.sum(xs[:p] <= g.hi)) - p * float(UNIFORM.cdf(g.hi))) / n
               for p in want.sum(axis=1).astype(int).tolist() for g in g_list)
    assert lower == pytest.approx(best, rel=1e-12)
    assert upper == lower + 0.4


def test_quadrant_distances_against_the_exact_rows():
    # random_covering_boundedness's count table on the small members'
    # prefixes: indicator(0.3) and indicator(0.6) keep 2 and 5 points
    n = 10
    hs = [indicator(t) for t in (0.3, 0.6, 1.0)]
    xs = draw_sample(UNIFORM, n, 4).xs()
    ws = np.array([0.2, 0.5, 0.9])
    h_rows = np.stack([exact_grid_values(h, n) for h in hs])
    g_rows = (xs <= ws[:, None]).astype(float)
    p = np.array([h.grid_count(n) for h in hs])
    below = np.zeros((len(ws), n + 1), dtype=np.int64)
    np.cumsum(xs <= ws[:, None], axis=1, out=below[:, 1:])
    f_rows = (h_rows[:, None, :] * g_rows[None, :, :]).reshape(-1, n)
    for counts, rows in ((p[:, None], h_rows), (below[None, :, n], g_rows),
                         (below[:, p].T, f_rows)):
        assert covering._quadrant_distances(counts, n).tobytes() == gram_l1(rows).tobytes()


class TestSampleModel:
    RATE = 2.123456789  # "%g" once printed it as 2.12346

    def test_sample_keeps_its_rate(self):
        model = NuModel("exponential", (self.RATE,))
        for sample in (draw_sample(f"exponential({self.RATE})", 50, 5),
                       draw_sample(model, 50, 5)):
            assert sample.model == model and sample.model.params == (self.RATE,)
        assert Sample(2, (0.5, 1.0), f"exponential({self.RATE})").model == model

    def test_net_sandwich_centres_with_the_sample_rate(self, monkeypatch):
        seen = record_kernel(monkeypatch)
        sup_deviation_net(draw_sample(f"exponential({self.RATE})", 200, 3), 0.3)
        assert [model for _, _, model in seen] == [NuModel("exponential", (self.RATE,))]

    def test_exact_statistic_reads_the_sample_model(self):
        model = NuModel("exponential", (self.RATE,))
        sample = draw_sample(model, 12, 8)
        got = sup_deviation_exact_BW(0, "odd", sample)
        assert got == sup_deviation_exact_BW(0, "odd", sample, model)
        assert got == pytest.approx(sup_deviation_bruteforce(0, "odd", sample), abs=1e-12)
        with pytest.raises(ValueError, match="not the sample's model"):
            sup_deviation_exact_BW(0, "odd", sample, NuModel("exponential", (2.12346,)))


class TestConstructorNormalizes:
    def test_overlapping_pairs_merge(self):
        u = IntervalUnion([(0.0, 0.5), (0.3, 0.8)])
        assert u == IntervalUnion.from_pairs([(0.0, 0.5), (0.3, 0.8)])
        assert u.bounds == ((0, Fraction(0.8)),)
        assert u.lebesgue() == Fraction(0.8) <= 1
        assert u.grid_count(10) == 8

    def test_reversed_and_empty_pairs_drop(self):
        assert IntervalUnion([(0.5, 0.2)]).bounds == ()
        assert IntervalUnion([(0.5, 0.2)]).lebesgue() == 0
        assert IntervalUnion([(0.4, 0.4), (0.7, 0.9), (0.1, 0.2)]).bounds == (
            (Fraction(0.1), Fraction(0.2)), (Fraction(0.7), Fraction(0.9)))

    @pytest.mark.parametrize("pair", [(-0.1, 0.5), (0.5, 1.5), (float("nan"), 0.5)])
    def test_out_of_range_pairs_raise(self, pair):
        with pytest.raises(ValueError, match="not inside"):
            IntervalUnion([pair])
