"""Catalog weights, class membership validation, and the JSON spec form."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual.weights import add_on_axes


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


def test_validate_term_weight_makes_no_evaluator_call(fock2, power4):
    # a weight with terms is in the class by construction: nothing is sampled
    calls = []

    def counting(w):
        return lambda x: calls.append(np.shape(x)) or w.eval(x)

    mixed = fd.weight_from_json({"n": 3, "terms": [{"type": "power", "p": 1.1, "coef": 1e-3},
                                                   {"type": "radial_power", "p": 3, "coef": 2}]})
    for w in (fock2, power4, mixed):
        rep = fd.validate_class_V(dataclasses.replace(w, eval=counting(w)))
        assert rep == fd.ClassVReport(True, True, True, 0.0)
    assert calls == []
    # the same evaluator without its terms is sampled, and passes
    rep = fd.validate_class_V(dataclasses.replace(fock2, eval=counting(fock2), terms=None))
    assert calls and rep.superlinear_ok and rep.worst_violation <= 1e-9


def test_validate_linear_growth_fails_superlinearity(linear_growth_double):
    rep = fd.validate_class_V(linear_growth_double)
    assert rep.symmetric_ok and rep.monotone_ok
    assert not rep.superlinear_ok


@pytest.mark.parametrize("n", [1, 2])
def test_validate_small_coefficient_quadratic_passes(n):
    # 0.05 ||x||^2 / 2 is admissible; the growth test is relative, so
    # scaling a weight by a positive constant keeps its verdict
    for coef in (0.05, 1e-3, 1.0, 1e3):
        w = fd.weight_from_json({"n": n, "terms": [{"type": "power", "p": 2, "coef": coef}]})
        rep = fd.validate_class_V(w)
        assert rep.superlinear_ok and rep.worst_violation == 0.0, coef


def test_validate_ratio_zero_at_the_inner_radius_fails():
    w = fd.WeightFunction(n=1, eval=lambda x: np.zeros(np.shape(x)[:-1]), label="zero")
    rep = fd.validate_class_V(w)
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
    json.dumps({"n": 1, "terms": [{"type": "power", "p": 1.5, "coef": 1e-300}]}),
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


_TERMS = st.lists(st.tuples(st.sampled_from(["power", "radial_power"]),
                            st.floats(1.1, 6.0), st.floats(0.1, 10.0)),
                  min_size=1, max_size=3)
_AXES = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4)


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


@given(n=st.integers(1, 3), terms=_TERMS, axes=st.lists(_AXES, min_size=3, max_size=3))
# a radial term with p = 2 is separable, alone and beside a power term (mixed2.json)
@example(n=2, terms=[("radial_power", 2.0, 1.0)], axes=[[0.0, 1.5, -3.0], [2.0, -0.5], [1.0]])
@example(n=2, terms=[("power", 4.0, 0.25), ("radial_power", 2.0, 1.0)],
         axes=[[0.0, 1.5, -3.0], [2.0, -0.5], [1.0]])
@settings(max_examples=200, deadline=None)
def test_term_evaluators_agree(n, terms, axes):
    w = fd.weight_from_json({"n": n, "terms": [
        {"type": kind, "p": p, "coef": coef} for kind, p, coef in terms]})
    axes = [np.array(a) for a in axes[:n]]
    pointwise = w.eval(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1))
    # the evaluators sum the same term values in another order, except with
    # one term or one axis
    on_axes = w.eval_on_axes(axes)
    if n == 1 or len(terms) == 1:
        assert _bits(on_axes) == _bits(pointwise)
    else:
        np.testing.assert_allclose(on_axes, pointwise, rtol=1e-14, atol=0)
    separable_terms = all(kind == "power" or p == 2.0 for kind, p, _ in terms)
    assert w.is_separable == (n == 1 or separable_terms)
    if w.is_separable:
        prof = w.axis_profile()
        by_axis = add_on_axes(np.zeros(pointwise.shape), [prof(a) for a in axes])
        if separable_terms and (n == 1 or len(terms) == 1):
            assert _bits(by_axis) == _bits(pointwise)
        else:
            # a radial term's profile is c r^p / p, its value c (r^2)^(p/2) / p,
            # which is 0 where r^2 underflows (r < 1.5e-154)
            np.testing.assert_allclose(by_axis, pointwise, rtol=1e-14, atol=1e-150)


@pytest.mark.parametrize("kind", ["power", "radial_power"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p, coef", [(1.5, 2.0), (3.0, 0.5)])
def test_one_term_dual_matches_bruteforce(conjugate_bruteforce, kind, n, p, coef):
    w = fd.weight_from_json({"n": n, "terms": [{"type": kind, "p": p, "coef": coef}]})
    count = 1201 if n == 1 else 241
    primal = tuple(fd.GridAxis(-3.0, 3.0, count) for _ in range(n))
    nodes = [a.nodes() for a in primal]
    f = fd.SampledFunction(primal, w.symmetrized(np.stack(np.meshgrid(*nodes, indexing="ij"),
                                                          axis=-1)))
    # every maximizer x = grad^-1 (y) lies inside the primal box
    dual = tuple(fd.GridAxis(-1.5, 1.5, 13) for _ in range(n))
    mesh = np.stack(np.meshgrid(*[g.nodes() for g in dual], indexing="ij"), axis=-1)
    np.testing.assert_allclose(conjugate_bruteforce(f, dual), w.dual().eval(mesh), atol=1e-3)
