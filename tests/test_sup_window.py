"""The fine passes of `_sup_line` build and evaluate only a strided window
and a span around its argmax for objectives concave by construction; these
tests pin that they give the same floats as the whole fine grid, that each
node is the linspace float, how many nodes are built and evaluated, that
weights not known to be convex keep the whole grid, and the fallback."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual import cli, fenchel
from fockdual.config import CONJ_STEP, T_FLOOR, by_dim
from fockdual.fenchel import (_fine_nodes, _sup_line, log_image, scale_fn, symmetrized_fn,
                              truncated_sup)

SEP1_WEIGHT = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "sep1.json"
CFG = fd.DEFAULT


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for this test, so every sup is computed here."""
    store = {}
    monkeypatch.setattr(fenchel, "_MEMO", store)
    return store


def _bits(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _sup_bits(res) -> bytes:
    return b"".join(np.asarray(a, dtype=np.float64).tobytes()
                    for a in (res.value, res.argmax, res.lo, res.hi, res.curvature))


def _weights():
    sep1 = fd.weight_from_json(SEP1_WEIGHT)
    return [fd.make_fock(1), fd.make_separable_power(1, 4.0), sep1,
            fd.numeric_dual_weight(sep1)]


def _moment_objective(w):
    return scale_fn(log_image(w), 2.0)


@pytest.mark.parametrize("w", _weights(), ids=lambda w: w.label)
def test_window_equals_whole_grid_bitwise(memo, w):
    checked = 0
    for cfg in (CFG, CFG.refined(1), CFG.refined(2)):
        for make in (log_image, symmetrized_fn, _moment_objective):
            fn = make(w)
            assert fn.convex
            whole = dataclasses.replace(fn, convex=False, key=None)
            for floor in (None, T_FLOOR):
                for y in (0.0, 1.37, 6.0):
                    if make is not symmetrized_fn and floor is None and y == 0.0:
                        # sup approached only as t -> -inf: no floor, no box
                        with pytest.raises(fenchel.DivergenceError):
                            truncated_sup(fn, [y], cfg, floor)
                        continue
                    # the first call grows a numeric dual's table; the two
                    # compared calls then see the same table
                    truncated_sup(whole, [y], cfg, floor)
                    windowed = truncated_sup(fn, [y], cfg, floor)
                    assert _sup_bits(windowed) == _sup_bits(truncated_sup(whole, [y], cfg, floor))
                    checked += 1
    assert checked == 48


def test_window_evaluates_few_fine_nodes(monkeypatch):
    built = []

    def building(make):
        def wrapper(*args, **kwargs):
            built.append(make(*args, **kwargs))
            return built[-1]
        return wrapper

    monkeypatch.setattr(fenchel, "_fine_nodes", building(_fine_nodes))
    monkeypatch.setattr(np, "linspace", building(np.linspace))
    prof = log_image(fd.make_fock(1)).axis_profiles[0]
    step = by_dim(CONJ_STEP, 1)
    for y, floor in ((1.37, T_FLOOR), (0.0, T_FLOOR), (3.8, None)):
        built.clear()
        inputs = []

        def counting(t, y=y):
            inputs.append(t)
            return y * t - prof(t)

        _, _, lo, hi = _sup_line(counting, step, floor, concave=True)
        intervals = 1 << max(1, math.ceil(math.log2((hi - lo) / step)))
        fine_step = (hi - lo) / intervals
        sizes = [t.size for t in inputs]
        # the last call is the last fine pass: two strides either side
        assert sizes[-1] <= 4 * 0.25 / fine_step + 8
        assert sizes[-1] < (intervals + 1) / 10
        assert sizes[-1] <= 4 * fenchel._STRIDE + 8
        # every fine node built is evaluated
        read = [t for t in inputs if any(t is b for b in built)]
        assert sum(b.size for b in built) <= sum(t.size for t in read)


@given(
    # subnormal ends make steps that underflow to zero, which numpy handles
    # apart
    ends=st.lists(st.floats(-1e300, 1e300) | st.floats(-1e-320, 1e-320),
                  min_size=2, max_size=2),
    k=st.integers(0, 20),
    stride=st.sampled_from([1, 32]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_fine_nodes_equal_the_linspace_slice_bitwise(ends, k, stride, data):
    lo, hi = sorted(ends)
    assume(lo < hi)
    count = 2**k + 1
    a = data.draw(st.integers(0, count - 1), label="a")
    # half the windows end at the last node, which linspace sets to hi
    b = data.draw(st.one_of(st.just(count), st.integers(a + 1, count)), label="b")
    want = np.linspace(lo, hi, count)[a:b:stride]
    assert _fine_nodes(lo, hi, count - 1, a, b, stride).tobytes() == want.tobytes()


def test_nonconvex_weight_keeps_the_whole_grid(nonconvex_double):
    fn = log_image(nonconvex_double)
    assert not fn.convex
    prof = fn.axis_profiles[0]
    step = CFG.step_for(1, separable=True)

    def objective(t):
        return 2.5 * t - prof(t)

    whole = _sup_line(objective, step, T_FLOOR, concave=False)
    windowed = _sup_line(objective, step, T_FLOOR, concave=True)
    # the window would stop at a local max far below the global one
    assert windowed[0] < whole[0] - 1e-3
    assert abs(windowed[1] - whole[1]) > 0.5
    assert fd.log_conj(nonconvex_double, [2.5]) == whole[0]


def test_window_max_on_a_cut_edge_falls_back_to_the_whole_grid():
    # declared concave but not: coarse nodes (multiples of 0.25) read 0 at
    # t = 0 and -1 elsewhere, while every other node reads t, so the max
    # lies near t = 2, far outside the window around the coarse argmax 0
    def objective(t):
        on_coarse = (t * 4.0) % 1.0 == 0.0
        coarse_vals = np.where(t == 0.0, 0.0, np.where((t >= -1.5) & (t <= 2.0), -1.0, -100.0))
        fine_vals = np.where((t > -1.5) & (t < 2.0), t, -100.0)
        return np.where(on_coarse, coarse_vals, fine_vals)

    oracle = _sup_line(objective, by_dim(CONJ_STEP, 1), None, concave=False)
    assert oracle[1] > 1.9
    got = _sup_line(objective, by_dim(CONJ_STEP, 1), None, concave=True)
    assert _bits(*got) == _bits(*oracle)


def test_span_max_on_a_cut_edge_widens_to_the_window():
    # declared concave but not: the strided pass reads a peak at t = 0,
    # every other pass a peak at t = 0.2, inside the window but more than
    # two strides away, so the span around 0 is cut at its max
    sizes = []

    def objective(t):
        sizes.append(t.size)
        spacing = t[1] - t[0] if t.size > 1 else 1.0
        centre = 0.0 if 0.001 < spacing < 0.2 else 0.2
        return -50.0 * np.abs(t - centre)

    oracle = _sup_line(objective, by_dim(CONJ_STEP, 1), None, concave=False)
    count = sizes[-1]
    sizes.clear()
    got = _sup_line(objective, by_dim(CONJ_STEP, 1), None, concave=True)
    assert _bits(*got) == _bits(*oracle)
    assert abs(got[1] - 0.2) < 1e-3
    # the span, then the window; never the whole grid
    assert sizes[-2] <= 4 * fenchel._STRIDE + 8
    assert 4 * fenchel._STRIDE + 8 < sizes[-1] < count


def test_convexity_follows_the_construction(nonsmooth_convex):
    sep1 = fd.weight_from_json(SEP1_WEIGHT)
    custom = fd.WeightFunction(n=1, eval=lambda x: np.abs(x[..., 0]) ** 2 / 2, label="custom")
    convex = [sep1, fd.dual_weight(fd.make_fock(2)), fd.numeric_dual_weight(sep1),
              fd.dual_weight(custom)]
    for w in convex:
        assert w.convex
        assert symmetrized_fn(w).convex and log_image(w).convex
    # an evaluator alone proves nothing, convex or not
    for w in (custom, nonsmooth_convex):
        assert not w.convex
        assert not symmetrized_fn(w).convex and not log_image(w).convex
    fn = log_image(sep1)
    assert scale_fn(fn, 2.0).convex
    assert not scale_fn(fn, -1.0).convex and not scale_fn(fn, 0.0).convex


@pytest.mark.parametrize("w", [fd.weight_from_json(SEP1_WEIGHT),
                               fd.make_separable_power(2, 4.0)],
                         ids=lambda w: w.label)
def test_axis_weight_keeps_the_terms_and_the_floats(memo, w):
    wa = cli._axis_weight(w)
    assert wa.terms == w.terms
    assert log_image(wa).convex
    prof = w.axis_profile()
    bare = fd.WeightFunction(n=1, eval=lambda x: prof(x[..., 0]), label="bare")
    for v in (0.0, 0.731, 2.41, 4.0):
        assert fd.log_conj(wa, [v]) == fd.log_conj(bare, [v])
