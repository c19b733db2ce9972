"""fclt.process_deviations, the one P_n(hg) - lambda_n(h) nu(g) kernel,
against the per-q form it replaced.

member_oracles.per_q_Z_values keeps the old fidi formula: one GEMV g(X) @
h(i/n) per q, centred by lambda_n(h nu(g)).  The fidi Z columns (one h at a
time) and the modulus pool (one GEMM per g) must agree with it within 1e-12
relative to the largest Z value, for every q set an fclt report runs, under
each model; a hand-sized case pins the column layout a * kg + b.
"""

import json
import math

import numpy as np
import pytest

from semproc import fclt
from semproc.cli import _holder_product_qs, _load_q_file
from semproc.fclt import (
    kiefer_cell,
    kiefer_cells,
    make_sx_q,
    process_deviations,
    replicate_Z_values,
)
from semproc.function_classes import (
    INDICATORS,
    BoundedPolynomial,
    HalfLine,
    HolderClass,
    InitialInterval,
)
from semproc.measures import grid_points, parse_model
from semproc.seeds import derive_seed

from member_oracles import per_q_Z_values

MODELS = ("uniform01", "standard-normal", "exponential(2)")

# the custom-file q set: a q file of every h and g type
_Q_FILE = [
    {"h": {"type": "indicator", "t": 0.4}, "g": {"type": "half-line", "w": 0.3}},
    {"h": {"type": "holder-pl", "knots": [0.0, 0.5, 1.0], "values": [0.2, -0.3, 0.4]},
     "g": {"type": "initial-interval", "w": 0.6}},
    {"h": {"type": "holder-pl", "knots": [0.0, 0.25, 1.0], "values": [0.0, 0.5, -0.1]},
     "g": {"type": "poly", "coeffs": [0.1, 0.7]}},
    {"h": {"type": "indicator", "t": 0.4}, "g": {"type": "poly", "coeffs": [0.1, 0.7]}},
]


def _q_sets(model, tmp_path) -> dict:
    path = tmp_path / "q.json"
    path.write_text(json.dumps(_Q_FILE))
    return {
        "kiefer-3": [kiefer_cell(0.5, 0.5), kiefer_cell(1.0, 0.5), kiefer_cell(0.5, 0.25)],
        "kiefer-grid": kiefer_cells(3),
        "holder-product": _holder_product_qs(model),
        "s*x": [make_sx_q()],
        "custom-file": _load_q_file(str(path)),
    }


def _assert_close(got: np.ndarray, want: np.ndarray, label) -> None:
    """Every entry within 1e-12 of the oracle, relative to its largest value
    (a half-line at F(w) = 1 - 1e-12 has a column of values near 1e-11,
    which the centring of O(1) sums rounds to about 1e-14)."""
    assert got.shape == want.shape, label
    err = float(np.max(np.abs(got - want)))
    assert err <= 1e-12 * float(np.max(np.abs(want))), (label, err)


@pytest.mark.parametrize("name", MODELS)
def test_fidi_columns_agree_with_the_per_q_oracle(name, tmp_path):
    model = parse_model(name)
    n, R, seed = 300, 400, 7
    for label, q_list in _q_sets(model, tmp_path).items():
        got = replicate_Z_values(q_list, n, R, seed, model)
        rng = np.random.default_rng(derive_seed(seed, ["replicate-Z", n, R]))
        _assert_close(got, per_q_Z_values(q_list, n, R, rng, model), label)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("h_class", [HolderClass(1.0, 1.0, 1.0), INDICATORS],
                         ids=["holder", "indicators"])
def test_modulus_pool_agrees_with_the_per_q_oracle(name, h_class):
    # the modulus contracts its whole pool by one GEMM per g; the oracle one
    # GEMV per (h, g) pair, from the same draws
    model = parse_model(name)
    n, R, seed = 200, 30, 11
    h_pool, g_pool, _, _ = fclt._member_pools(h_class, 0.3, 1, model)
    got = fclt._replicate_Z(h_pool, g_pool, range(len(h_pool) * len(g_pool)), n, R, seed,
                            model, False)
    q_list = [(h, g) for h in h_pool for g in g_pool]
    _assert_close(got, per_q_Z_values(q_list, n, R, np.random.default_rng(seed), model),
                  (name, h_class))


@pytest.mark.parametrize("by_h", [False, True])
def test_hand_sized_layout(by_h):
    # kh = 2 and kg = 3, so a column a * kg + b read as b * kh + a (or any
    # other layout) lands on another pair
    model = parse_model("exponential(2)")
    n = 5
    h_vals = np.stack([grid_points(n), (np.arange(n) % 2).astype(float)])
    g_list = [HalfLine(0.3), InitialInterval(0.8), BoundedPolynomial((0.5, -1.0))]
    rows = model.draw(np.random.default_rng(4), (4, n))
    got = process_deviations(h_vals, g_list, rows, model, by_h)
    assert got.shape == (4, 6)
    for a, hv in enumerate(h_vals):
        for b, g in enumerate(g_list):
            for r in range(4):
                want = (math.fsum(hv * g(rows[r])) - math.fsum(hv) * g.mean(model)) / n
                assert got[r, a * 3 + b] == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_net_sandwich_reads_the_kernel_on_its_one_sample():
    # the net sandwich's lower value is |process_deviations| on one sample
    # row: a row of m = 1 gives the values of that row in a taller call
    model = parse_model("standard-normal")
    n = 50
    h_vals = np.stack([(grid_points(n) <= t).astype(float) for t in (0.2, 0.5, 1.0)])
    g_list = [HalfLine(w) for w in (-0.5, 0.0, 0.7)]
    rows = model.draw(np.random.default_rng(9), (3, n))
    tall = process_deviations(h_vals, g_list, rows, model)
    for r in range(3):
        assert process_deviations(h_vals, g_list, rows[r][None, :], model).tobytes() \
            == tall[r:r + 1].tobytes()
