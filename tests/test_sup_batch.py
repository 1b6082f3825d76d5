"""The batched line solver `_sup_lines`, the line memo `_lines`, the memo
prefetch `prefetch_sups` and the memo keys of separable numeric duals: a
batch row (curvature included) is the one-row solve bit for bit, a point's
lines are one batch, a prefetched point is the point's own solve bit for
bit and makes no solver call, a numeric dual's sups do not move when its
table grows, and the prefetch never raises."""

import contextlib
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual import fenchel
from fockdual._supline import _fine_nodes, _row_argmax, _sup_lines
from fockdual.config import T_FLOOR
from fockdual.fenchel import log_image, prefetch_sups, scale_fn, symmetrized_fn, truncated_sup

SEP1_WEIGHT = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "sep1.json"
MIXED2_WEIGHT = SEP1_WEIGHT.with_name("mixed2.json")
# a radial term with p = 3 does not split over the axes
RADIAL3 = {"n": 2, "terms": [{"type": "power", "p": 4, "coef": 0.25},
                             {"type": "radial_power", "p": 3, "coef": 1}]}

WEIGHTS = {
    "fock:1": fd.make_fock(1),
    "power:4:1": fd.make_separable_power(1, 4.0),
    "sep1": fd.weight_from_json(SEP1_WEIGHT),
    # a fresh dual per use, so that two solves never share a table
    "sep1*": lambda: fd.numeric_dual_weight(fd.weight_from_json(SEP1_WEIGHT)),
}
IMAGES = {
    "log": log_image,
    "sym": symmetrized_fn,
    "moment": lambda w: scale_fn(log_image(w), 2.0),
}


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for this test, so every sup is computed here."""
    store = {}
    monkeypatch.setattr(fenchel, "_MEMO", store)
    return store


def _sup_line(objective, step, floor, concave=False):
    """The one row of `_sup_lines` with ``prof`` = -objective at y = 0 (the
    objective's floats, up to the sign of a zero); raises its DivergenceError."""
    line, = _sup_lines(lambda t: -objective(t), [0.0], step, floor, concave)
    if isinstance(line, fenchel.DivergenceError):
        raise line
    return line


def _image(weight: str, image: str):
    w = WEIGHTS[weight]
    return IMAGES[image](w() if callable(w) else w)


def _bits(line) -> bytes:
    return np.array(line, dtype=np.float64).tobytes()


def _sup_bits(res) -> bytes:
    return b"".join(np.asarray(a, dtype=np.float64).tobytes() for a in res)


# dual points as the suites pass them: never -0.0 (+ 0.0 maps it to 0.0)
_YS = st.lists(st.floats(-3.0, 20.0).map(lambda v: v + 0.0), min_size=1, max_size=6)


@given(weight=st.sampled_from(sorted(WEIGHTS)), image=st.sampled_from(sorted(IMAGES)),
       ys=_YS, data=st.data(), floor=st.sampled_from([None, T_FLOOR]), concave=st.booleans())
@settings(max_examples=100, deadline=None)
def test_batch_rows_equal_one_row_solves_bitwise(weight, image, ys, data, floor, concave):
    # duplicates and any order: a row may repeat an earlier one
    ys = ys + data.draw(st.lists(st.sampled_from(ys), max_size=3), label="repeats")
    prof = _image(weight, image).axis_profiles[0]
    single = _image(weight, image).axis_profiles[0]
    step = fd.DEFAULT.step_for(1, separable=True)
    batch = _sup_lines(prof, ys, step, floor, concave)
    assert len(batch) == len(ys)
    for y, row in zip(ys, batch):
        alone, = _sup_lines(single, [y], step, floor, concave)
        try:
            tilted = _sup_line(lambda t, y=y: y * t - single(t), step, floor, concave)
        except fenchel.DivergenceError as exc:
            assert isinstance(row, fenchel.DivergenceError) and str(row) == str(exc)
            assert isinstance(alone, fenchel.DivergenceError) and str(alone) == str(exc)
        else:
            # the curvature is the profile's own, so only the one-row solve of
            # the same profile has its floats
            assert _bits(row) == _bits(alone)
            assert _bits(row[:4]) == _bits(tilted[:4])


@pytest.mark.parametrize("floor", [None, T_FLOOR])
def test_single_row_batch_equals_the_line_solver(floor):
    prof = log_image(WEIGHTS["sep1"]).axis_profiles[0]
    step = fd.DEFAULT.step_for(1, separable=True)
    row, = _sup_lines(prof, [1.37], step, floor, True)
    assert _bits(row[:4]) == _bits(_sup_line(lambda t: 1.37 * t - prof(t), step, floor, True)[:4])


def test_fine_nodes_join_the_rows_slices():
    # the last row's step underflows to zero, which numpy handles apart
    lo, hi = np.array([-2.0, 0.5, -40.0, 0.0]), np.array([3.0, 0.75, 2.5, 5e-324])
    intervals, a, b = (np.array([8, 1024, 4096, 4]), np.array([0, 100, 37, 0]),
                       np.array([9, 1025, 500, 5]))
    for stride in (1, 32):
        want = np.concatenate([_fine_nodes(*args, stride)
                               for args in zip(lo, hi, intervals, a, b)])
        assert _fine_nodes(lo, hi, intervals, a, b, stride).tobytes() == want.tobytes()


@given(rows=st.lists(st.lists(st.sampled_from([-np.inf, -1.0, 0.0, 2.0]), min_size=1,
                              max_size=6), min_size=1, max_size=5))
def test_row_argmax_is_the_first_max_of_each_row(rows):
    # few distinct values, so most rows tie; an all -inf row picks its first node
    lens = np.array([len(r) for r in rows])
    got = _row_argmax(np.concatenate([np.array(r) for r in rows]), lens)
    assert got.tolist() == [int(np.argmax(r)) for r in rows]


@contextlib.contextmanager
def _own_memo():
    """A memo of its own for the block (hypothesis runs many examples in one
    test, so a function-scoped fixture cannot give each one a fresh memo)."""
    saved = fenchel._MEMO
    fenchel._MEMO = {}
    try:
        yield fenchel._MEMO
    finally:
        fenchel._MEMO = saved


def _entries(memo, kind: str) -> dict:
    """A memo's line or sup entries of one 1-D function, by dual coordinate."""
    return {key[2]: value for key, value in memo.items() if key[1] == kind}


def _refuse(*args, **kwargs):
    raise AssertionError("a prefetched line was solved again")


@contextlib.contextmanager
def _no_solver_calls():
    """`fenchel._sup_lines` raises within the block (hypothesis examples share
    one test, so the monkeypatch fixture cannot scope this per example)."""
    saved = fenchel._sup_lines
    fenchel._sup_lines = _refuse
    try:
        yield
    finally:
        fenchel._sup_lines = saved


@given(weight=st.sampled_from(["fock:1", "power:4:1", "sep1", "sep1*"]),
       image=st.sampled_from(["log", "sym"]), ys=_YS, data=st.data(),
       floor=st.sampled_from([None, T_FLOOR]))
@settings(max_examples=60, deadline=None)
def test_prefetched_lines_equal_each_points_own_solve_bitwise(weight, image, ys, data, floor):
    # any batch composition: part of it may have been prefetched before, and
    # sep1's numeric dual serves the whole batch from one table
    before = data.draw(st.lists(st.sampled_from(ys), max_size=len(ys)), label="before")
    fn = _image(weight, image)
    with _own_memo() as memo:
        for batch in (before, ys):
            prefetch_sups(fn, [[y] for y in batch], fd.DEFAULT, floor)
        lines = _entries(memo, "line")
        # the loop's own calls at the prefetched points make no solver call
        with _no_solver_calls():
            looped = {fenchel.value_bytes(y): truncated_sup(fn, [y], fd.DEFAULT, floor)
                      for y in ys if fenchel.value_bytes(y) in lines}
    for y in ys:
        coord = fenchel.value_bytes(y)
        # a fresh image (a fresh numeric dual for sep1*) and a memo of its own
        with _own_memo() as solo:
            try:
                want = fenchel._truncated_sup(_image(weight, image), np.array([y]),
                                              fd.DEFAULT, floor)
            except fenchel.DivergenceError:
                assert coord not in lines
                continue
        assert _bits(lines[coord]) == _bits(_entries(solo, "line")[coord])
        assert _sup_bits(looped[coord]) == _sup_bits(want)


def _dual_sups(w, ys, cfg=fd.DEFAULT):
    fn = log_image(w)
    return [_sup_bits(fenchel._truncated_sup(fn, np.full(w.n, y), cfg, None)) for y in ys]


@pytest.mark.parametrize("path", [SEP1_WEIGHT, MIXED2_WEIGHT], ids=lambda p: p.stem)
def test_numeric_dual_sups_do_not_move_when_the_table_grows(path):
    w = fd.weight_from_json(path)
    ys = [1.0, 2.0, 3.5, 6.0, 9.0]
    dual = fd.numeric_dual_weight(w)
    before = _dual_sups(dual, ys)
    dual.eval(np.full((1, w.n), 200.0))  # grows the table to r = 200
    assert _dual_sups(dual, ys) == before
    grown_first = fd.numeric_dual_weight(w)
    grown_first.eval(np.full((1, w.n), 200.0))
    assert _dual_sups(grown_first, ys) == before


def test_separable_numeric_duals_are_keyed_by_a_token_of_their_own():
    sep1 = fd.weight_from_json(SEP1_WEIGHT)
    a, b = fd.numeric_dual_weight(sep1), fd.numeric_dual_weight(sep1)
    assert a.memo_token is not None and a.memo_token != b.memo_token
    keys = {log_image(a).key, log_image(b).key, symmetrized_fn(a).key}
    assert None not in keys and len(keys) == 3
    # mixed2's radial term has p = 2, so it splits over the axes
    assert log_image(fd.numeric_dual_weight(fd.weight_from_json(MIXED2_WEIGHT))).key is not None
    radial3 = fd.numeric_dual_weight(fd.weight_from_json(RADIAL3))
    assert radial3.memo_token is None and log_image(radial3).key is None
    assert fenchel.key_terms(scale_fn(log_image(a), 2.0).key) == (1, 1)


def test_prefetch_fills_the_memo_the_loop_reads(memo, monkeypatch):
    fn = log_image(fd.make_fock(2))
    points = [[0.731, 1.37], [1.37, 0.731], [2.41, 0.731]]
    want = [_sup_bits(fenchel._truncated_sup(fn, np.array(y), fd.DEFAULT, T_FLOOR))
            for y in points]
    prefetch_sups(fn, points, fd.DEFAULT, T_FLOOR)
    # one line per distinct coordinate; the loop assembles each point
    assert len([k for k in memo if k[1] == "line"]) == 3
    assert [k for k in memo if k[1] != "line"] == []
    monkeypatch.setattr(fenchel, "_sup_lines", _refuse)
    assert [_sup_bits(truncated_sup(fn, y, fd.DEFAULT, T_FLOOR)) for y in points] == want


def test_prefetch_never_raises_and_leaves_failures_to_the_loop(memo):
    fn = log_image(fd.make_fock(1))
    # without a floor the sup at y = 0 is only approached as t -> -inf
    with pytest.raises(fenchel.DivergenceError) as alone:
        fenchel._truncated_sup(fn, np.array([0.0]), fd.DEFAULT, None)
    prefetch_sups(fn, [[0.0], [1.5]])
    assert [k[2] for k in memo if k[1] == "line"] == [np.float64(1.5).tobytes()]
    with pytest.raises(fenchel.DivergenceError) as looped:
        truncated_sup(fn, [0.0])
    assert str(looped.value) == str(alone.value) == (
        "objective does not decay (superlinearity fails)")

    # a profile that raises on the batch: nothing is stored, and the loop's
    # own call raises the profile's error
    def broken(t):
        raise FloatingPointError("profile failed")

    bad = dataclasses.replace(log_image(fd.make_separable_power(1, 3.0)), axis_profiles=(broken,))
    prefetch_sups(bad, [[1.0], [2.0]])
    prefetch_sups(bad, [[1.0, 2.0]])  # the wrong dimension
    prefetch_sups(bad, [[1.0], [np.inf]])
    assert [k for k in memo if k[0] == bad.key] == []
    with pytest.raises(FloatingPointError, match="profile failed"):
        truncated_sup(bad, [1.0])


def test_a_batch_whose_curvature_call_fails_stores_nothing(memo):
    good = log_image(fd.make_fock(1))
    prof = good.axis_profiles[0]

    sizes = []

    def broken(t):
        sizes.append(t.size)
        # the curvature call reads [t + h, t - h, t] at the rows' argmaxes t
        k = t.size // 3
        mid = t[2 * k:]
        if (k and t.size == 3 * k and np.array_equal(t[:k], mid + 1e-3)
                and np.array_equal(t[k:2 * k], mid - 1e-3)):
            raise FloatingPointError("curvature failed")
        return prof(t)

    fn = dataclasses.replace(good, axis_profiles=(broken,))
    prefetch_sups(fn, [[1.0], [2.0]])
    # the solve ran, and its last call, on both rows, raised
    assert len(sizes) > 1 and sizes[-1] == 6
    assert memo == {}
    # the loop's own call raises the error
    with pytest.raises(FloatingPointError, match="curvature failed"):
        truncated_sup(fn, [1.0])


def test_unkeyed_functions_are_left_alone(memo):
    fn = dataclasses.replace(log_image(fd.make_fock(1)), key=None)
    prefetch_sups(fn, [[1.0], [2.0]])
    prefetch_sups(log_image(fd.numeric_dual_weight(fd.weight_from_json(RADIAL3))), [[1.0, 1.0]])
    assert memo == {}


def _counting_solver(monkeypatch) -> list:
    """The rows of every `_sup_lines` call from `fenchel`, one list per call."""
    calls = []
    inner = fenchel._sup_lines

    def counting(prof, ys, *args, **kwargs):
        calls.append(list(ys))
        return inner(prof, ys, *args, **kwargs)

    monkeypatch.setattr(fenchel, "_sup_lines", counting)
    return calls


def test_a_points_unseen_lines_are_one_batch(memo, monkeypatch):
    fn = log_image(fd.make_fock(2))
    calls = _counting_solver(monkeypatch)
    res = truncated_sup(fn, [0.731, 1.37], fd.DEFAULT, T_FLOOR)
    assert calls == [[0.731, 1.37]]
    # each line is the one-row solve of its coordinate
    prof = fn.axis_profiles[0]
    for j, y in enumerate((0.731, 1.37)):
        alone, = _sup_lines(prof, [y], fd.DEFAULT.step_for(2, separable=True), T_FLOOR, True)
        assert _bits([res.argmax[j], res.lo[j], res.hi[j], res.curvature[j]]) == _bits(alone[1:])


def test_an_unkeyed_copy_is_not_memoized_and_has_the_keyed_floats(memo, monkeypatch):
    fn = log_image(fd.make_fock(2))
    unkeyed = dataclasses.replace(fn, key=None)
    calls = _counting_solver(monkeypatch)
    for y in ([0.731, 1.37], [2.41, 2.41]):
        calls.clear()
        got = truncated_sup(unkeyed, y, fd.DEFAULT, T_FLOOR)
        assert memo == {}
        # a point's distinct coordinates are one batch, as for a keyed function
        assert calls == [list(dict.fromkeys(y))]
        assert _sup_bits(got) == _sup_bits(truncated_sup(fn, y, fd.DEFAULT, T_FLOOR))
        memo.clear()


def test_a_point_raises_its_first_failing_axis_and_keeps_the_rest(memo):
    fn = log_image(fd.make_fock(2))
    step = fd.DEFAULT.step_for(2, separable=True)
    # without a floor the line sup at y = 0 is only approached as t -> -inf
    failing, solved = _sup_lines(fn.axis_profiles[0], [0.0, 1.5], step, None, True)
    assert isinstance(failing, fenchel.DivergenceError)
    with pytest.raises(fenchel.DivergenceError) as raised:
        truncated_sup(fn, [0.0, 1.5])
    assert str(raised.value) == str(failing)
    # the point's other line was solved in the same batch and is kept
    assert _bits(_entries(memo, "line")[fenchel.value_bytes(1.5)]) == _bits(solved)
    assert fenchel.value_bytes(0.0) not in _entries(memo, "line")
    # when both lines fail, with different messages, axis 0's is raised
    with np.errstate(invalid="ignore"):  # inf * 0 on the coarse lattice
        for y in ([0.0, np.inf], [np.inf, 0.0]):
            first, second = _sup_lines(fn.axis_profiles[0], y, step, None, True)
            assert str(first) != str(second)
            with pytest.raises(fenchel.DivergenceError) as raised:
                truncated_sup(fn, y)
            assert str(raised.value) == str(first)
