"""The grid volume of a sublevel set evaluates the membership predicate only
on a window of cells around the set when its function is convex by
construction; these tests pin that it gives the same four fields as the
whole grid, how many points it evaluates, and when it falls back to the
whole grid."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import fockdual as fd
from fockdual import fenchel, laplace
from fockdual.config import VOLUME_CELLS, by_dim
from fockdual.fenchel import GridFn, log_image, symmetrized_fn, truncated_sup
from fockdual.laplace import SublevelSpec, _sublevel_volume

MIXED2_WEIGHT = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "mixed2.json"
CFG = fd.DEFAULT


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """An empty memo for each test, so every sup is computed here."""
    monkeypatch.setattr(fenchel, "_MEMO", {})


def _counting(fn: GridFn, sizes: list) -> GridFn:
    """``fn`` with its product-grid evaluations recorded in ``sizes``."""

    def on_axes(axes):
        out = fn.on_axes(axes)
        sizes.append(out.size)
        return out

    return dataclasses.replace(fn, on_axes=on_axes)


def _whole(spec: SublevelSpec) -> SublevelSpec:
    return dataclasses.replace(spec, h=dataclasses.replace(spec.h, convex=False, key=None))


def _spec(h: GridFn, y, p: float) -> SublevelSpec:
    y = np.asarray(y, dtype=np.float64)
    sup = truncated_sup(h, y, CFG)
    return SublevelSpec(h=h, y=y, p=p, hstar_y=sup.value, argmax=sup.argmax)


def _fields(est) -> tuple:
    return np.float64(est.value).tobytes(), np.float64(est.half_width).tobytes()


# log images need y > 0 (their sup is approached as t -> -inf otherwise)
_Y = {
    (1, "sym"): [[0.0], [-1.3], [6.0]],
    (2, "sym"): [[0.0, 0.0], [-1.3, 0.7], [6.0, -4.0]],
    (3, "sym"): [[0.0, 0.0, 0.0], [-1.0, 0.5, 0.0], [3.0, -2.0, 4.0]],
    (1, "log"): [[0.4], [2.0], [9.0]],
    (2, "log"): [[0.4, 1.0], [2.0, 3.5], [9.0, 6.0]],
    (3, "log"): [[0.5, 1.0, 1.5], [2.0, 3.0, 4.0], [6.0, 5.0, 8.0]],
}


def _weights():
    return [fd.make_fock(1), fd.make_fock(2), fd.make_separable_power(1, 4.0),
            fd.weight_from_json(MIXED2_WEIGHT), fd.make_fock(3)]


@pytest.mark.parametrize("kind", ["sym", "log"])
@pytest.mark.parametrize("w", _weights(), ids=lambda w: f"{w.label}-n{w.n}")
def test_window_equals_whole_grid_bitwise(w, kind):
    h = (symmetrized_fn if kind == "sym" else log_image)(w)
    assert h.convex
    windowed = 0
    for y in _Y[(w.n, kind)]:
        for p in (0.5, 1.0):
            spec = _spec(h, y, p)
            for resolution in (None, 9, 16):
                cells = resolution if resolution is not None else by_dim(VOLUME_CELLS, w.n)
                sizes = []
                got = _sublevel_volume(dataclasses.replace(spec, h=_counting(h, sizes)),
                                       resolution, 0)
                want = _sublevel_volume(_whole(spec), resolution, 0)
                assert _fields(got) == _fields(want), (y, p, resolution)
                windowed += cells**w.n not in sizes
    # at the default resolution the window is taken (in 3-D not always), so
    # the comparison is not whole grid against whole grid
    assert windowed >= 3


def test_lemma4_volume_evaluates_a_fifth_of_the_grid():
    # the Lemma 4 volume of fock:2 at alpha = (3, 4): shifted index (4, 5), slack 1/2
    spec = _spec(log_image(fd.make_fock(2)), [4.0, 5.0], 0.5)
    sizes = []
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(spec.h, sizes)),
                           None, 0)
    cells = by_dim(VOLUME_CELLS, 2)
    # box probes included
    assert sum(sizes) <= 0.2 * cells**2
    assert _fields(got) == _fields(_sublevel_volume(_whole(spec), None, 0))


def test_nonconvex_weight_keeps_the_whole_grid(nonconvex_double):
    h = symmetrized_fn(nonconvex_double)
    assert not h.convex
    spec = _spec(h, [1.0], 1.0)
    sizes = []
    _sublevel_volume(dataclasses.replace(spec, h=_counting(h, sizes)), None, 0)
    assert by_dim(VOLUME_CELLS, 1) in sizes


def test_empty_coarse_pass_keeps_the_whole_grid():
    # without its axis profiles fock:2 takes the window path, not the
    # per-axis count of test_volume_threshold.py
    h = dataclasses.replace(symmetrized_fn(fd.make_fock(2)), axis_profiles=None)
    spec = _spec(h, [0.5, -0.5], 1.0)
    # 4 cells per axis: every 8th cell centre, from the 5th on, is no cell at all
    sizes = []
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(h, sizes)), 4, 0)
    assert 4**2 in sizes
    assert _fields(got) == _fields(_sublevel_volume(_whole(spec), 4, 0))


def _fixed_box(monkeypatch, n: int) -> np.ndarray:
    """Pin the bounding box to [-4, 4]^n; with 64 cells per axis the cell
    centres are -4 + (i + 1/2) / 8 and the coarse pass reads i = 4, 12, ..."""
    monkeypatch.setattr(laplace, "_bounding_box",
                        lambda spec: (np.full(n, -4.0), np.full(n, 4.0)))
    return -4.0 + (np.arange(64) + 0.5) / 8.0


def test_member_on_a_cut_face_falls_back_to_the_whole_grid(monkeypatch):
    centres = _fixed_box(monkeypatch, 1)

    def fn(x):
        # not convex: a dip to 0 on (1.65, 1.95) besides the set [-1, 1] of x^2
        return np.where((x > 1.65) & (x < 1.95), 0.0, x * x)

    # the coarse members -0.4375 and 0.5625 (cells 28 and 36) place the window
    # on cells 19..45, so the face cell 45 (1.6875) is a member of the dip and
    # cells 46 and 47 lie beyond it
    assert centres[45] == 1.6875 and fn(centres[46:48]).max() == 0.0
    h = GridFn(n=1, at=lambda x: fn(x[..., 0]), on_axes=lambda axes: fn(axes[0]),
               convex=True)
    spec = SublevelSpec(h=h, y=np.zeros(1), p=1.0, hstar_y=0.0, argmax=np.zeros(1))
    sizes = []
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(spec.h, sizes)),
                           64, 0)
    assert 64 in sizes
    want = _sublevel_volume(_whole(spec), 64, 0)
    assert _fields(got) == _fields(want)
    assert got.value == (16 + 3) / 8


def test_thin_convex_set_is_counted_whole(monkeypatch):
    # A convex needle one tenth of a cell wide: its members are the cells
    # (28 + 2m, 28 + m), m = -6..6. The coarse pass finds only (28, 28), and
    # the window (cells 19..37 on each axis) has no member on a face, yet
    # four members lie beyond the axis-0 faces. On the rows of those
    # members the gap still falls from cell 36 to the face cell 37, which
    # sends the count to the whole grid.
    centres = _fixed_box(monkeypatch, 2)
    c = np.array([centres[28], centres[28]])
    u = np.array([2.0, 1.0]) / math.sqrt(5.0)
    width = 0.1 / 8.0
    length = 6.5 * math.sqrt(5.0) / 8.0

    def fn(x0, x1):
        along = (x0 - c[0]) * u[0] + (x1 - c[1]) * u[1]
        across = (x1 - c[1]) * u[0] - (x0 - c[0]) * u[1]
        return (across / width) ** 2 + (along / length) ** 2

    h = GridFn(n=2, at=lambda x: fn(x[..., 0], x[..., 1]),
               on_axes=lambda axes: fn(axes[0][:, None], axes[1][None, :]), convex=True)
    spec = SublevelSpec(h=h, y=np.zeros(2), p=1.0, hstar_y=0.0, argmax=c)
    got = _sublevel_volume(spec, 64, 0)
    want = _sublevel_volume(_whole(spec), 64, 0)
    assert _fields(got) == _fields(want)
    assert got.value == 13 / 64


def test_resolution_below_one_is_rejected():
    spec = _spec(symmetrized_fn(fd.make_fock(1)), [0.0], 1.0)
    for resolution in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            laplace.sublevel_volume(spec, resolution=resolution)
