"""The batched line solver `_sup_lines`, the memo prefetch `prefetch_sups`
and the memo keys of separable numeric duals: a batch row is the one-row
solve bit for bit, a numeric dual's sups do not move when its table grows,
and the prefetch never raises."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual import fenchel
from fockdual._supline import _fine_nodes, _row_argmax, _sup_line, _sup_lines
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
        try:
            want = _sup_line(lambda t, y=y: y * t - single(t), step, floor, concave)
        except fenchel.DivergenceError as exc:
            assert isinstance(row, fenchel.DivergenceError) and str(row) == str(exc)
        else:
            assert _bits(row) == _bits(want)


@pytest.mark.parametrize("floor", [None, T_FLOOR])
def test_single_row_batch_equals_the_line_solver(floor):
    prof = log_image(WEIGHTS["sep1"]).axis_profiles[0]
    step = fd.DEFAULT.step_for(1, separable=True)
    row, = _sup_lines(prof, [1.37], step, floor, True)
    assert _bits(row) == _bits(_sup_line(lambda t: 1.37 * t - prof(t), step, floor, True))


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
    assert len([k for k in memo if k[1] == "line"]) == 3
    assert len([k for k in memo if k[1] == "sup"]) == 3

    def refuse(*args, **kwargs):
        raise AssertionError("a prefetched sup was solved again")

    monkeypatch.setattr(fenchel, "_sup_lines", refuse)
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


def test_unkeyed_functions_are_left_alone(memo):
    fn = dataclasses.replace(log_image(fd.make_fock(1)), key=None)
    prefetch_sups(fn, [[1.0], [2.0]])
    prefetch_sups(log_image(fd.numeric_dual_weight(fd.weight_from_json(RADIAL3))), [[1.0, 1.0]])
    assert memo == {}
