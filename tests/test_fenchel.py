"""Grid conjugation against the exhaustive oracle, the log-substituted
per-point conjugates, and the conjugation-identity verifier."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual import fenchel
from fockdual.fenchel import log_image, symmetrized_fn

SEP1_WEIGHT = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "sep1.json"


def grid(lo, hi, count):
    return fd.GridAxis(lo, hi, count)


# ---------------------------------------------------------------------------
# sampled functions and grid transforms


def test_sampled_function_validation():
    ax = grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        fd.SampledFunction((ax,), np.zeros(4))
    with pytest.raises(ValueError):
        fd.SampledFunction((ax,), np.array([0.0, 1.0, np.nan, 0.0, 1.0]))
    with pytest.raises(ValueError):
        fd.GridAxis(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        fd.GridAxis(0.0, 1.0, 1)


def test_conjugate_1d_quadratic_self_conjugacy():
    ax = grid(-6.0, 6.0, 1201)
    f = fd.SampledFunction((ax,), ax.nodes() ** 2 / 2)
    res = fd.conjugate_nd(f, (grid(-4.0, 4.0, 81),))
    nodes = res.axes[0].nodes()
    k = int(np.argmin(np.abs(nodes - 2.0)))
    assert res.values[k] == pytest.approx(2.0, abs=1e-4)
    # discrete convexity of the dual along the axis
    second = np.diff(res.values, n=2)
    assert second.min() >= -1e-12


def test_conjugate_1d_exponential():
    ax = grid(-10.0, 4.0, 1401)
    f = fd.SampledFunction((ax,), np.exp(ax.nodes()))
    res = fd.conjugate_nd(f, (grid(1.0, 2.0, 2),))
    # brute-force oracle over the same nodes
    t = ax.nodes()
    oracle = np.max(1.0 * t - np.exp(t))
    assert res.values[0] == pytest.approx(oracle, abs=1e-12)
    assert res.values[0] == pytest.approx(-1.0, abs=1e-5)


def test_conjugate_1d_abs():
    ax = grid(-5.0, 5.0, 201)
    f = fd.SampledFunction((ax,), np.abs(ax.nodes()))
    res = fd.conjugate_nd(f, (grid(0.5, 1.0, 2),))
    assert res.values[0] == pytest.approx(0.0, abs=1e-12)


def test_conjugate_1d_matches_bruteforce_everywhere(conjugate_bruteforce):
    rng = np.random.default_rng(7)
    ax = grid(-3.0, 3.0, 161)
    f = fd.SampledFunction((ax,), rng.standard_normal(161).cumsum())
    dual = grid(-5.0, 5.0, 97)
    res = fd.conjugate_nd(f, (dual,))
    bf = conjugate_bruteforce(f, [dual])
    assert np.max(np.abs(res.values - bf)) <= 1e-12


def test_conjugate_1d_rejects_nd():
    axes = (grid(-1, 1, 5), grid(-1, 1, 5))
    f = fd.SampledFunction(axes, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        fd.conjugate_nd(f, (grid(-1, 1, 5),))


def test_conjugate_nd_separable_example():
    # f(x) = x1^4/4 + x2^2/2 at y = (1, 1): closed forms give 0.75 + 0.5
    axes = (grid(-4.0, 4.0, 401), grid(-4.0, 4.0, 401))
    x1, x2 = np.meshgrid(axes[0].nodes(), axes[1].nodes(), indexing="ij")
    f = fd.SampledFunction(axes, x1**4 / 4 + x2**2 / 2)
    dual = (grid(0.0, 2.0, 5), grid(0.0, 2.0, 5))
    res = fd.conjugate_nd(f, dual)
    assert res.values[2, 2] == pytest.approx(1.25, abs=1e-3)


def test_conjugate_nd_fock_and_flat_box(fock2):
    axes = (grid(-4.0, 4.0, 161), grid(-4.0, 4.0, 161))
    vals = symmetrized_fn(fock2).on_axes([a.nodes() for a in axes])
    f = fd.SampledFunction(axes, vals)
    dual = (grid(1.0, 2.0, 2), grid(1.0, 2.0, 2))
    res = fd.conjugate_nd(f, dual)
    assert res.values[0, 0] == pytest.approx(1.0, abs=1e-3)

    flat_axes = (grid(-1.0, 1.0, 11), grid(-1.0, 1.0, 11))
    flat = fd.SampledFunction(flat_axes, np.zeros((11, 11)))
    res2 = fd.conjugate_nd(flat, (grid(2.0, 2.0 + 1e-9, 2), grid(3.0, 3.0 + 1e-9, 2)))
    assert res2.values[0, 0] == pytest.approx(5.0, abs=1e-8)


def _sep1(n):
    return fd.weight_from_json(dict(json.loads(SEP1_WEIGHT.read_text(encoding="utf-8")), n=n))


@pytest.mark.parametrize("w", [fd.make_fock(2), fd.make_separable_power(2, 3.0), _sep1(2),
                               fd.make_fock(3)], ids=lambda w: f"{w.label}@{w.n}")
def test_per_axis_conjugate_matches_tensor_scan_and_oracle(w, conjugate_bruteforce):
    count, dual_count = (33, 17) if w.n == 2 else (13, 9)
    primal = tuple(grid(-3.0, 3.0, count) for _ in range(w.n))
    sym = symmetrized_fn(w)
    f = fd.SampledFunction.separable(
        primal, [prof(a.nodes()) for prof, a in zip(sym.axis_profiles, primal)])
    tensor = fd.SampledFunction(primal, f.values)
    dual_grid = tuple(grid(-4.0, 4.0, dual_count) for _ in range(w.n))
    got = fd.conjugate_nd(f, dual_grid)
    want = fd.conjugate_nd(tensor, dual_grid)
    assert got.parts is not None and want.parts is None
    scale = np.abs(want.values).max()
    np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(got.values, conjugate_bruteforce(f, dual_grid),
                               rtol=1e-12, atol=1e-12 * scale)
    # the back-transform of a factored dual is factored too
    back = fd.conjugate_nd(got, primal)
    back_tensor = fd.conjugate_nd(want, primal)
    assert back.parts is not None
    np.testing.assert_allclose(back.values, back_tensor.values, rtol=1e-12,
                               atol=1e-12 * np.abs(back_tensor.values).max())


def test_per_axis_conjugate_scans_one_row_per_axis(monkeypatch, fock2):
    rows = []
    inner = fenchel.conjugate_lines

    def counting(y, vals, x):
        rows.append(np.shape(vals))
        return inner(y, vals, x)

    monkeypatch.setattr(fenchel, "conjugate_lines", counting)
    primal = (grid(-6.0, 6.0, 97),) * 2
    prof = symmetrized_fn(fock2).axis_profiles[0]
    f = fd.SampledFunction.separable(primal, [prof(a.nodes()) for a in primal])
    fd.conjugate_nd(f, (grid(-7.0, 7.0, 65),) * 2)
    assert rows == [(1, 97), (1, 97)]


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugate_nd_equals_bruteforce_random(conjugate_bruteforce, seed):
    rng = np.random.default_rng(seed)
    axes = (grid(-2.0, 2.0, 18), grid(-1.5, 2.5, 15))
    f = fd.SampledFunction(axes, rng.standard_normal((18, 15)))
    dual = (grid(-3.0, 3.0, 9), grid(-2.0, 2.0, 7))
    res = fd.conjugate_nd(f, dual)
    bf = conjugate_bruteforce(f, dual)
    assert np.max(np.abs(res.values - bf)) <= 1e-10


def test_conjugate_nd_dimension_mismatch(fock2):
    axes = (grid(-1, 1, 5), grid(-1, 1, 5))
    f = fd.SampledFunction(axes, np.zeros((5, 5)))
    with pytest.raises(ValueError):
        fd.conjugate_nd(f, (grid(-1, 1, 5),))


def test_conjugate_nd_bruteforce_on_large_grid(conjugate_bruteforce, fock2):
    # ~9e4 nodes: the scan must agree with the exhaustive oracle
    axes = (grid(-3.0, 3.0, 301), grid(-3.0, 3.0, 301))
    vals = symmetrized_fn(fock2).on_axes([a.nodes() for a in axes])
    vals = vals + 0.3 * np.abs(np.sin(3.0 * axes[0].nodes()))[:, None]
    f = fd.SampledFunction(axes, vals)
    dual = (grid(-2.0, 2.0, 5), grid(-2.0, 2.0, 5))
    res = fd.conjugate_nd(f, dual)
    bf = conjugate_bruteforce(f, dual)
    assert np.max(np.abs(res.values - bf)) <= 1e-10


def test_order_reversal():
    ax = grid(-5.0, 5.0, 301)
    f = fd.SampledFunction((ax,), ax.nodes() ** 2 / 2)
    g = fd.SampledFunction((ax,), ax.nodes() ** 2 / 2 + np.abs(ax.nodes()))
    dual = grid(-4.0, 4.0, 301)
    fstar = fd.conjugate_nd(f, (dual,)).values
    gstar = fd.conjugate_nd(g, (dual,)).values
    assert np.all(fstar >= gstar)


def test_biconjugation_within_interpolation_bound():
    ax = grid(-6.0, 6.0, 201)
    f = fd.SampledFunction((ax,), ax.nodes() ** 2 / 2)
    dual = grid(-7.0, 7.0, 173)
    fstar = fd.conjugate_nd(f, (dual,))
    back = fd.conjugate_nd(fstar, (ax,))
    gap = np.max(np.abs(f.values[1:-1] - back.values[1:-1]))
    bound = 2 * np.max(np.abs(np.diff(fstar.values, n=2))) / 8
    assert gap <= bound + 1e-12
    # the discrete biconjugate never exceeds the original
    assert np.max(back.values - f.values) <= 1e-12


@given(
    xi=st.integers(0, 200), ki=st.integers(0, 160),
)
@settings(max_examples=200, deadline=None)
def test_fenchel_young_at_nodes(xi, ki):
    ax = grid(-5.0, 5.0, 201)
    nodes = ax.nodes()
    f_vals = np.abs(nodes) ** 3 / 3
    f = fd.SampledFunction((ax,), f_vals)
    dual = grid(-6.0, 6.0, 161)
    fstar = fd.conjugate_nd(f, (dual,)).values
    x = nodes[xi]
    y = dual.nodes()[ki]
    assert f_vals[xi] + fstar[ki] >= x * y - 1e-10


# ---------------------------------------------------------------------------
# log substitution


def test_log_substitute_weight(fock1, fock2):
    vals = log_image(fock1).on_axes([grid(-2.0, 2.0, 5).nodes()])
    k = 2  # node t = 0
    assert vals[k] == pytest.approx(0.5)
    vals2 = log_image(fock1).on_axes([grid(math.log(2.0), 1.0, 2).nodes()])
    assert vals2[0] == pytest.approx(2.0)

    def plus(x):
        return np.asarray(x, dtype=float).sum(axis=-1)

    w = fd.WeightFunction(n=2, eval=plus, label="sum")
    vals3 = log_image(w).on_axes([grid(-1.0, 1.0, 3).nodes()] * 2)
    assert vals3[1, 1] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# per-point conjugates and identity verifiers


def test_log_conj_fock_values(fock1):
    # sup_t (x t - e^{2t}/2) at x = 1 equals -1/2 (brute force oracle below)
    t = np.linspace(-30, 3, 400001)
    oracle = np.max(1.0 * t - np.exp(2 * t) / 2)
    val = fd.log_conj(fock1, [1.0])
    assert val == pytest.approx(oracle, abs=1e-7)
    assert val == pytest.approx(-0.5, abs=1e-7)
    # closed form for x > 0: (x/2) ln x - x/2
    for x in (0.5, 2.0, 5.0):
        assert fd.log_conj(fock1, [x]) == pytest.approx(
            x / 2 * math.log(x) - x / 2, abs=1e-7
        )
    assert fd.log_conj(fock1, [0.0]) == pytest.approx(0.0, abs=1e-12)


def test_log_conj_rejects_negative_probe(fock1):
    with pytest.raises(ValueError):
        fd.log_conj(fock1, [-1.0])


def test_prop3_fock(fock1):
    rep = fd.verify_identities(fock1, [[1.0], [0.0], [2.0]])
    assert rep.max_positive_residual <= 1e-6
    assert rep.lhs[0] == pytest.approx(-1.0, abs=1e-6)
    assert rep.rhs[0] == pytest.approx(-1.0)
    # origin: lhs <= 0
    assert rep.lhs[1] <= 1e-9
    assert rep.rhs[1] == 0.0


def test_entropy_sum_in_two_dims(fock2):
    rep = fd.verify_identities(fock2, [[1.0, 1.0], [2.0, 0.0]])
    assert rep.rhs[0] == pytest.approx(-2.0)
    assert rep.rhs[1] == pytest.approx(2 * math.log(2) - 2)
    assert rep.max_abs_residual <= 1e-6


def test_prop6_7_residuals_and_refinement(fock1, fock2, power4,
                                          probes_1d, probes_2d):
    for w, probes in ((fock1, probes_1d), (fock2, probes_2d), (power4, probes_1d)):
        rep = fd.verify_identities(w, probes)
        assert rep.max_abs_residual <= 1e-3
    base = fd.verify_identities(fock1, probes_1d)
    fine = fd.verify_identities(fock1, probes_1d, fd.DEFAULT.refined())
    assert fine.max_abs_residual <= base.max_abs_residual / 1.8


def test_prop3_nonsmooth_one_sided(nonsmooth_convex, probes_1d):
    rep = fd.verify_identities(nonsmooth_convex, probes_1d)
    assert rep.max_positive_residual <= 1e-3


def test_prop3_holds_but_equality_fails_for_nonconvex(nonconvex_double, probes_1d):
    rep3 = fd.verify_identities(nonconvex_double, probes_1d)
    assert rep3.max_positive_residual <= 1e-3
    rep67 = fd.verify_identities(nonconvex_double, probes_1d)
    assert rep67.max_abs_residual > 0.05  # strict convexity gap is visible


def test_numeric_dual_matches_closed_form(power4):
    numeric = fd.numeric_dual_weight(power4)
    y = np.linspace(0.0, 4.0, 33)[:, None]
    closed = power4.dual().eval(y)
    assert np.max(np.abs(numeric.eval(y) - closed)) <= 1e-6


def test_numeric_dual_radial_nonseparable():
    w = fd.weight_from_json({"n": 2, "terms": [
        {"type": "radial_power", "p": 3.0, "coef": 1.0}
    ]})
    numeric = fd.numeric_dual_weight(w)
    pts = np.array([[0.5, 0.5], [1.0, 2.0], [3.0, 0.1]])
    q = 1.5
    closed = np.linalg.norm(pts, axis=1) ** q / q
    assert np.max(np.abs(numeric.eval(pts) - closed)) <= 1e-3


def test_numeric_dual_nonseparable_grid_matches_pointwise():
    # the product-grid path (iterated scans) against the pointwise max
    w = fd.weight_from_json({"n": 2, "terms": [
        {"type": "radial_power", "p": 3.0, "coef": 1.0}
    ]})
    numeric = fd.numeric_dual_weight(w)
    axes = [np.linspace(0.0, 4.0, 33), np.linspace(-1.0, 3.0, 17)]
    on_grid = numeric.eval_on_axes(axes)
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert on_grid.shape == (33, 17)
    assert np.max(np.abs(on_grid - numeric.eval(mesh))) <= 1e-12


def test_numeric_dual_paths_agree_and_build_one_hull(monkeypatch):
    w = fd.weight_from_json(SEP1_WEIGHT)
    nodes, vals, _ = fenchel._NumericDual(w, fd.DEFAULT)._table(3.75)
    built = []

    class CountingHull(fenchel.Hull):
        def __init__(self, y, f):
            built.append(len(y))
            super().__init__(y, f)

    monkeypatch.setattr(fenchel, "Hull", CountingHull)
    dual = fd.numeric_dual_weight(w)
    # unsorted, negative and repeated queries; the dual is even
    r = np.array([2.5, -1.0, 0.0, 3.75, -2.5, 1.0, 1.0, -3.75, 0.3, 2.5])
    by_eval = dual.eval(r[:, None])
    assert np.array_equal(dual.grid_eval([r]), by_eval)
    assert np.array_equal(dual.separable_profile(r), by_eval)
    assert np.array_equal(dual.separable_profile(np.sort(np.abs(r))),
                          by_eval[np.argsort(np.abs(r), kind="stable")])
    brute = np.max(np.abs(r)[:, None] * nodes[None, :] - vals[None, :], axis=1)
    assert np.max(np.abs(by_eval - brute)) <= 1e-12

    # queries inside the sampled extent reuse the one hull
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(-3.75, 3.75, 64)
        dual.eval(q[:, None])
        dual.grid_eval([q])
        dual.separable_profile(q)
    assert len(built) == 1


def test_divergence_profile_fock(fock1):
    prof = fd.divergence_profile(fock1, [[1.0]], [5.0, 10.0])
    (r1, v1), (r2, v2) = prof.rows
    # closed form (x/2) ln x - x/2 over x gives ratios (ln r)/2 - 1/2
    assert v1 == pytest.approx(math.log(5.0) / 2 - 0.5, abs=1e-6)
    assert v2 == pytest.approx(math.log(10.0) / 2 - 0.5, abs=1e-6)
    assert v2 > v1
    # witness with a negative coordinate grows at the linear rate
    assert prof.witness_sups[1] - prof.witness_sups[0] >= 4.0


def test_divergence_profile_rejects_bad_inputs(fock1):
    with pytest.raises(ValueError):
        fd.divergence_profile(fock1, [[0.0]], [5.0, 10.0])
    with pytest.raises(ValueError):
        fd.divergence_profile(fock1, [[1.0]], [10.0, 5.0])


def test_truncated_sup_divergence_error():
    def flat(x):
        return np.zeros(np.asarray(x, dtype=float).shape[:-1])

    w = fd.WeightFunction(n=1, eval=flat, label="flat")
    with pytest.raises(fd.DivergenceError):
        fd.truncated_sup(log_image(w), [1.0])
