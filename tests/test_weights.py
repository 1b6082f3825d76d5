"""Catalog weights, class membership validation, and the JSON spec form."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdual as fd


def test_fock_values(fock1, fock2):
    assert fock1.eval(np.array([2.0])) == pytest.approx(2.0)
    assert fock2.eval(np.array([1.0, 1.0])) == pytest.approx(1.0)
    assert fock1.dual().eval(np.array([3.0])) == pytest.approx(4.5)


def test_fock_rejects_bad_dimension():
    with pytest.raises(ValueError):
        fd.make_fock(0)
    with pytest.raises(ValueError):
        fd.make_fock(-2)
    with pytest.raises(ValueError):
        fd.make_fock(True)


def test_separable_power_values(power4):
    assert power4.eval(np.array([1.0])) == pytest.approx(0.25)
    one_d_fock = fd.make_separable_power(1, 2.0)
    assert one_d_fock.eval(np.array([2.0])) == pytest.approx(2.0)
    # conjugate at y = 1: brute-force sup of x - x^4/4 over a fine grid
    x = np.linspace(0.0, 3.0, 300001)
    oracle = np.max(x - x**4 / 4)
    closed = power4.dual().eval(np.array([1.0]))
    assert closed == pytest.approx(0.75, abs=1e-12)
    assert closed == pytest.approx(oracle, abs=1e-8)


def test_separable_power_rejects_sublinear():
    with pytest.raises(ValueError):
        fd.make_separable_power(1, 1.0)
    with pytest.raises(ValueError):
        fd.make_separable_power(2, 0.5)


def test_validate_catalog_all_true(fock2, power4):
    for w in (fock2, power4):
        rep = fd.validate_class_V(w)
        assert rep.symmetric_ok and rep.monotone_ok and rep.superlinear_ok
        assert rep.worst_violation <= 1e-9


def test_validate_linear_growth_fails_superlinearity(linear_growth_double):
    rep = fd.validate_class_V(linear_growth_double)
    assert rep.symmetric_ok and rep.monotone_ok
    assert not rep.superlinear_ok


def test_validate_odd_eval_fails_symmetry(odd_double):
    rep = fd.validate_class_V(odd_double)
    assert not rep.symmetric_ok
    assert rep.worst_violation > 1.0


def test_symmetrized_exactly_even(fock2):
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, size=(50, 2))
    flipped = x * rng.choice([-1.0, 1.0], size=x.shape)
    assert np.array_equal(fock2.symmetrized(x), fock2.symmetrized(np.abs(x)))
    assert np.array_equal(
        fock2.symmetrized(flipped), fock2.symmetrized(np.abs(flipped))
    )


def test_convexity_witness(fock2, power4, nonconvex_double):
    assert fd.convexity_violation(fock2) <= 1e-9
    assert fd.convexity_violation(power4) <= 1e-9
    assert fd.convexity_violation(nonconvex_double) > 0.1


@given(
    x=st.floats(-8, 8), y=st.floats(-8, 8),
    p=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
)
@settings(max_examples=300, deadline=None)
def test_fenchel_young_closed_forms(x, y, p):
    w = fd.make_separable_power(1, p)
    lhs = float(w.symmetrized(np.array([x]))) + float(
        w.dual().eval(np.array([abs(y)]))
    )
    assert lhs >= x * y - 1e-12


def test_json_weight_roundtrip(tmp_path):
    spec = {
        "n": 2,
        "terms": [
            {"type": "power", "p": 4.0, "coef": 0.25},
            {"type": "radial_power", "p": 2.0, "coef": 1.0},
        ],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec))
    w = fd.weight_from_json(path)
    assert w.n == 2
    x = np.array([1.0, 2.0])
    expected = 0.25 * (1 + 16) / 4 + (1 + 4) / 2
    assert w.eval(x) == pytest.approx(expected)
    # multi-term weights have no closed-form conjugate
    assert w.dual() is None
    rep = fd.validate_class_V(w)
    assert rep.symmetric_ok and rep.monotone_ok and rep.superlinear_ok


@pytest.mark.parametrize("payload", [
    "not json{",
    json.dumps({"terms": []}),
    json.dumps({"n": 1}),
    json.dumps({"n": 0, "terms": [{"type": "power", "p": 2, "coef": 1}]}),
    json.dumps({"n": True, "terms": [{"type": "power", "p": 2, "coef": 1}]}),
    json.dumps({"n": 1, "terms": []}),
    json.dumps({"n": 1, "terms": [{"type": "power", "p": 1.0, "coef": 1}]}),
    json.dumps({"n": 1, "terms": [{"type": "power", "p": 2.0, "coef": -1}]}),
    json.dumps({"n": 1, "terms": [{"type": "cubic", "p": 3.0, "coef": 1}]}),
    # valid terms whose closed-form dual terms are not
    json.dumps({"n": 1, "terms": [{"type": "power", "p": 1e17, "coef": 1}]}),
    json.dumps({"n": 1, "terms": [{"type": "power", "p": 1.001, "coef": 1e300}]}),
])
def test_json_weight_rejects_malformed(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(fd.WeightSpecError):
        fd.weight_from_json(path)


def test_presets():
    assert fd.parse_preset("fock:2").n == 2
    w = fd.parse_preset("power:4:1")
    assert w.n == 1 and w.eval(np.array([1.0])) == pytest.approx(0.25)
    with pytest.raises(fd.WeightSpecError):
        fd.parse_preset("gauss:1")
    with pytest.raises(fd.WeightSpecError):
        fd.parse_preset("power:abc:1")


def test_structural_dual_is_involutive(power4):
    dual = power4.dual()
    assert dual is not None
    back = dual.dual()
    x = np.linspace(0, 3, 50)[:, None]
    assert np.allclose(back.eval(x), power4.eval(x), atol=1e-12)
