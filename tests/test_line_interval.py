"""The interval g member LineInterval against the scalar references of the
half-line and the initial interval (member_oracles.HalfLine and
InitialInterval): values, nu(g), nu(g g') for every pair of {half-line,
initial interval, polynomial} in both orders, nu(g^2) and the Lindeberg
tail, bit for bit, under every sampling model, at end points below, at,
inside and past each model's support.  At an end of -0.0 the references
disagree with each other in the sign of a zero, which no symmetric form
can match; that case has its own test."""

import itertools

import numpy as np
import pytest

from semproc.function_classes import BoundedPolynomial, LineInterval, half_line
from semproc.measures import parse_model

from member_oracles import HalfLine, InitialInterval

MODELS = ["uniform01", "standard-normal", "exponential(2)"]
ENDS = [-1e6, -40.0, -0.7, 0.0, 5e-324, 0.3, 0.6, 1.0, 1.5, 40.0, 1e6]
POLYS = [BoundedPolynomial((0.2, -0.5, 0.25)), BoundedPolynomial((0.1, 0.7)),
         BoundedPolynomial((-1.5,)), BoundedPolynomial((0.0, 0.0, 0.0, 1.0))]
XS = np.array(sorted(ENDS + [-1.0, -1e-300, -0.0, 0.2, 0.45, 0.9, 2.0, 1e7]))


def _bits(value) -> bytes:
    """The float64 bytes of a value, its sign of zero and its type included."""
    return type(value).__name__.encode() + np.asarray(value, dtype=float).tobytes()


def _members():
    """Each g as (reference, LineInterval member) over every end point, then
    the polynomials, which are their own reference."""
    pairs = [(HalfLine(w), half_line(w)) for w in ENDS]
    pairs += [(InitialInterval(w), LineInterval(0.0, w)) for w in ENDS]
    return pairs + [(p, p) for p in POLYS]


def test_half_line_is_the_interval_from_minus_infinity():
    assert half_line(0.3) == LineInterval(-np.inf, 0.3)


@pytest.mark.parametrize("w", ENDS)
def test_values_equal_the_references(w):
    for ref, g in ((HalfLine(w), half_line(w)), (InitialInterval(w), LineInterval(0.0, w))):
        assert _bits(g(XS)) == _bits(ref(XS))
        assert _bits(g(np.stack([XS, -XS]))) == _bits(ref(np.stack([XS, -XS])))
        for x in XS.tolist():
            assert _bits(g(x)) == _bits(ref(x)), x


@pytest.mark.parametrize("model_name", MODELS)
def test_means_equal_the_references(model_name):
    model = parse_model(model_name)
    for ref, g in _members():
        assert _bits(g.mean(model)) == _bits(ref.mean(model)), ref
        if ref is not g:
            assert _bits(g.pair_mean(g, model)) == _bits(ref.second_moment(model)), ref


@pytest.mark.parametrize("model_name", MODELS)
def test_pair_means_equal_the_references_in_both_orders(model_name):
    model = parse_model(model_name)
    members = _members()
    for (ref1, g1), (ref2, g2) in itertools.product(members, repeat=2):
        assert _bits(g1.pair_mean(g2, model)) == _bits(ref1.pair_mean(ref2, model)), (ref1, ref2)


@pytest.mark.parametrize("model_name", MODELS)
def test_lindeberg_tails_equal_the_references(model_name):
    model = parse_model(model_name)
    hs = np.linspace(-2.0, 2.0, 41)
    for ref, g in _members()[:-len(POLYS)]:
        for T in (0.0, 0.3, 1.0, 5.0):
            assert _bits(g.centered_sq_tail(model, hs, T)) \
                == _bits(ref.centered_sq_tail(model, hs, T)), (ref, T)


def test_minus_zero_end_gives_one_zero_in_both_orders():
    # under uniform01, F(-0.0) - F(0.0) is -0.0: the reference initial
    # interval returns it, while the reference half-line clipped it to +0.0
    # with max(0.0, .); the interval form returns -0.0 in both orders
    model = parse_model("uniform01")
    hl, ii = half_line(-0.0), LineInterval(0.0, -0.0)
    want = InitialInterval(-0.0).pair_mean(HalfLine(-0.0), model)
    assert _bits(want) == _bits(-0.0)
    assert HalfLine(-0.0).pair_mean(InitialInterval(-0.0), model) == want == 0.0
    assert _bits(hl.pair_mean(ii, model)) == _bits(ii.pair_mean(hl, model)) == _bits(want)
    assert _bits(ii.mean(model)) == _bits(InitialInterval(-0.0).mean(model))
    for ref, g in ((HalfLine(-0.0), hl), (InitialInterval(-0.0), ii)):
        assert _bits(g(XS)) == _bits(ref(XS))
