"""The grid volume of a 2-D separable sublevel set is counted from one sorted
vector per axis: a cell (i, k) is a member iff v[k] <= c[i]. These tests
pin that it gives the same four fields as the whole grid, that it evaluates
no product grid beyond the bounding-box probes, that its surface count is
that of the membership grid, and that a cell too close to the threshold
sends the volume to the whole grid."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual import fenchel, laplace
from fockdual.config import VOLUME_CELLS, by_dim
from fockdual.fenchel import GridFn, log_image, scale_fn, symmetrized_fn, truncated_sup
from fockdual.laplace import SublevelSpec, _cells, _sublevel_volume, _threshold_cells

ROOT = Path(__file__).resolve().parents[1]
CFG = fd.DEFAULT
PROBE = 34  # points of one bounding-box probe of both faces of an axis in 2-D


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """An empty memo for each test, so every sup is computed here."""
    monkeypatch.setattr(fenchel, "_MEMO", {})


def _counting(fn: GridFn, sizes: list, profile_sizes: list) -> GridFn:
    """``fn`` with its product-grid and axis-profile evaluations recorded."""

    def on_axes(axes):
        out = fn.on_axes(axes)
        sizes.append(out.size)
        return out

    def counted(prof):
        def g(t):
            out = prof(t)
            profile_sizes.append(out.size)
            return out

        return g

    return dataclasses.replace(fn, on_axes=on_axes,
                               axis_profiles=tuple(map(counted, fn.axis_profiles)))


def _whole(spec: SublevelSpec) -> SublevelSpec:
    return dataclasses.replace(spec, h=dataclasses.replace(spec.h, key=None))


def _spec(h: GridFn, y, p: float) -> SublevelSpec:
    y = np.asarray(y, dtype=np.float64)
    sup = truncated_sup(h, y, CFG)
    return SublevelSpec(h=h, y=y, p=p, hstar_y=sup.value, argmax=sup.argmax)


def _fields(est) -> tuple:
    return np.float64(est.value).tobytes(), np.float64(est.half_width).tobytes()


def _sep1_at_n2():
    obj = json.loads((ROOT / "fdbench" / "weights" / "sep1.json").read_text(encoding="utf-8"))
    return fd.weight_from_json(dict(obj, n=2))


_FORMS = {
    "sym": symmetrized_fn,
    "log": log_image,
    "sym*2.5": lambda w: scale_fn(symmetrized_fn(w), 2.5),
    "log*2.5": lambda w: scale_fn(log_image(w), 2.5),
}
# log images need y > 0 (their sup is approached as t -> -inf otherwise)
_Y = {"sym": [[0.0, 0.0], [-1.3, 4.7]], "log": [[0.4, 1.0], [6.5, 2.0]]}


@pytest.mark.parametrize("form", sorted(_FORMS))
@pytest.mark.parametrize("w", [fd.make_fock(2), fd.make_separable_power(2, 3.0),
                               fd.make_separable_power(2, 1.5), _sep1_at_n2()],
                         ids=lambda w: w.label)
def test_separable_volume_equals_whole_grid_bitwise(w, form):
    h = _FORMS[form](w)
    assert h.key is not None and h.axis_profiles is not None
    for y in _Y[form[:3]]:
        for p in (0.01, 0.5, 1.0):
            spec = _spec(h, y, p)
            for resolution in (None, 4, 9, 16, 33):
                cells = resolution if resolution is not None else by_dim(VOLUME_CELLS, 2)
                sizes, profile_sizes = [], []
                got = _sublevel_volume(
                    dataclasses.replace(spec, h=_counting(h, sizes, profile_sizes)),
                    resolution, 0)
                want = _sublevel_volume(_whole(spec), resolution, 0)
                assert _fields(got) == _fields(want), (y, p, resolution)
                # the bounding-box probes only, then one vector per axis
                assert set(sizes) <= {PROBE}, (y, p, resolution)
                assert profile_sizes == [cells, cells]


def test_lemma4_volume_evaluates_two_axis_vectors():
    # the Lemma 4 volume of fock:2 at alpha = (3, 4): shifted index (4, 5), slack 1/2
    spec = _spec(log_image(fd.make_fock(2)), [4.0, 5.0], 0.5)
    sizes, profile_sizes = [], []
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(spec.h, sizes, profile_sizes)),
                           None, 0)
    cells = by_dim(VOLUME_CELLS, 2)
    assert sizes and set(sizes) == {PROBE}
    assert profile_sizes == [cells, cells]
    assert _fields(got) == _fields(_sublevel_volume(_whole(spec), None, 0))


@pytest.mark.parametrize("h", [
    symmetrized_fn(fd.make_fock(1)),
    symmetrized_fn(fd.make_fock(3)),
    symmetrized_fn(fd.weight_from_json({"n": 2, "terms": [
        {"type": "power", "p": 4, "coef": 0.25}, {"type": "radial_power", "p": 3, "coef": 1}]})),
    dataclasses.replace(symmetrized_fn(fd.make_fock(2)), key=None),
], ids=["n1", "n3", "nonseparable", "unkeyed"])
def test_other_functions_keep_the_membership_grid(h, monkeypatch):
    def refuse(spec, axes):
        raise AssertionError("reached the separable count")

    monkeypatch.setattr(laplace, "_separable_cells", refuse)
    spec = _spec(h, np.full(h.n, 0.5), 1.0)
    assert _sublevel_volume(spec, 8, 0).value > 0


@given(c=st.lists(st.integers(-4, 4), min_size=1, max_size=12),
       v=st.lists(st.integers(-4, 4), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_threshold_counts_match_the_membership_grid(c, v):
    # small integers, so many cells tie with their threshold exactly
    c = np.asarray(c, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    assert _threshold_cells(c, v) == _cells(v[None, :] <= c[:, None])


def test_cell_on_the_boundary_falls_back_to_the_whole_grid(monkeypatch):
    # the box [-4, 4]^2 at 64 cells has the dyadic centres -4 + (i + 1/2) / 8;
    # with y = 0 and h*(y) = 0 the gap at the centre (30, 37) is p exactly,
    # in every order of summation
    monkeypatch.setattr(laplace, "_bounding_box",
                        lambda spec: (np.full(2, -4.0), np.full(2, 4.0)))
    centres = -4.0 + (np.arange(64) + 0.5) / 8.0
    h = symmetrized_fn(fd.make_fock(2))
    p = float(h.at(np.array([centres[30], centres[37]])))
    assert p == 0.25390625
    spec = SublevelSpec(h=h, y=np.zeros(2), p=p, hstar_y=0.0, argmax=np.zeros(2))
    sizes, profile_sizes = [], []
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(h, sizes, profile_sizes)),
                           64, 0)
    assert profile_sizes == [64, 64]
    # the fallback evaluates the membership grid
    assert sizes and max(sizes) > 64
    assert _fields(got) == _fields(_sublevel_volume(_whole(spec), 64, 0))
