"""The grid volume of a 2-D separable sublevel set is counted from per-axis
parts, memoized per axis coordinate, box and nodes: a cell (i, k) is a
member iff v[k] <= c[i], and a bounding-box face is a member iff the least
probe value of the other axis lies at or below its c. These tests pin that
it gives the same fields and the same box as the whole grid, that it builds
each part once and a product grid only where its bound cannot decide, that
its surface count is that of the membership grid, and that a cell or a face
too close to the threshold takes the membership grid."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fockdual as fd
from fockdual import fenchel, laplace, moments
from fockdual.config import VOLUME_CELLS, by_dim
from fockdual.fenchel import GridFn, log_image, scale_fn, symmetrized_fn, truncated_sup
from fockdual.laplace import (SublevelSpec, _bounding_box, _cells, _part, _sublevel_volume,
                              _threshold_cells)

ROOT = Path(__file__).resolve().parents[1]
CFG = fd.DEFAULT


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


def _undecided(monkeypatch) -> list:
    """Record each time the per-axis parts leave a face or a volume undecided."""
    out = []
    for name in ("_separable_faces", "_separable_cells"):
        def recording(*args, f=getattr(laplace, name)):
            got = f(*args)
            if got is None:
                out.append(args)
            return got

        monkeypatch.setattr(laplace, name, recording)
    return out


def _parts() -> int:
    return sum(key[1] == "volume_part" for key in fenchel._MEMO)


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
def test_separable_volume_equals_whole_grid_bitwise(w, form, monkeypatch):
    h = _FORMS[form](w)
    assert h.key is not None and h.axis_profiles is not None
    undecided = _undecided(monkeypatch)
    for y in _Y[form[:3]]:
        for p in (0.01, 0.5, 1.0):
            spec = _spec(h, y, p)
            for resolution in (None, 4, 9, 16, 33):
                cells = resolution if resolution is not None else by_dim(VOLUME_CELLS, 2)
                sizes, profile_sizes = [], []
                parts = _parts()
                undecided.clear()
                got = _sublevel_volume(
                    dataclasses.replace(spec, h=_counting(h, sizes, profile_sizes)),
                    resolution, 0)
                want = _sublevel_volume(_whole(spec), resolution, 0)
                assert _fields(got) == _fields(want), (y, p, resolution)
                # each profile call builds a new part: a face, a probe line or cell centres
                assert len(profile_sizes) == _parts() - parts, (y, p, resolution)
                assert set(profile_sizes) <= {2, 17, cells}, (y, p, resolution)
                # one product grid for each face or volume the parts leave undecided
                assert len(sizes) == len(undecided), (y, p, resolution)


def test_lemma4_volume_evaluates_two_axis_vectors(monkeypatch):
    # the Lemma 4 volume of fock:2 at alpha = (3, 4): shifted index (4, 5), slack 1/2
    spec = _spec(log_image(fd.make_fock(2)), [4.0, 5.0], 0.5)
    sizes, profile_sizes = [], []
    undecided = _undecided(monkeypatch)
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(spec.h, sizes, profile_sizes)),
                           None, 0)
    cells = by_dim(VOLUME_CELLS, 2)
    # one cell part per axis; the other parts are bounding-box faces and probe lines
    assert profile_sizes.count(cells) == 2 and set(profile_sizes) == {2, 17, cells}
    assert len(sizes) == len(undecided)
    assert _fields(got) == _fields(_sublevel_volume(_whole(spec), None, 0))


def test_lemma4_loop_evaluates_each_cell_part_once(monkeypatch):
    # fock:2 at degree 8: the shifted indices of its 45 indices have 9 distinct coordinates
    phi = fd.make_fock(2)
    alphas = list(moments.iter_indices(2, 8))
    table = moments.moment_table(phi, 8, CFG)
    fenchel.prefetch_sups(log_image(phi), [a.shifted() for a in alphas], CFG)
    sizes, profile_sizes = [], []
    monkeypatch.setattr(moments, "log_image",
                        lambda w: _counting(log_image(w), sizes, profile_sizes))
    undecided = _undecided(monkeypatch)
    for alpha in alphas:
        assert moments.lemma4_check(phi, alpha, CFG, entry=table.entry(alpha)).ok
    cells = by_dim(VOLUME_CELLS, 2)
    assert len(alphas) == 45 and {c for a in alphas for c in a.shifted()} == set(range(1, 10))
    assert profile_sizes.count(cells) == 9
    assert len(profile_sizes) == _parts()
    assert len(sizes) == len(undecided)


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
    monkeypatch.setattr(laplace, "_separable_faces", refuse)
    spec = _spec(h, np.full(h.n, 0.5), 1.0)
    assert _sublevel_volume(spec, 8, 0).value > 0


@given(c=st.lists(st.integers(-4, 4), min_size=1, max_size=12),
       v=st.lists(st.integers(-4, 4), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_threshold_counts_match_the_membership_grid(c, v):
    # small integers, so many cells tie with their threshold exactly
    c = np.asarray(c, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    part = _part(v, np.abs(v))
    at = np.searchsorted(part.sorted, c, "right")
    assert _threshold_cells(c, np.sort(c), at, part) == _cells(v[None, :] <= c[:, None])


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
    # both axes have coordinate 0 and the box [-4, 4], so they share one part
    assert profile_sizes == [64]
    # the fallback evaluates the membership grid
    assert sizes and max(sizes) > 64
    assert _fields(got) == _fields(_sublevel_volume(_whole(spec), 64, 0))


@given(terms=st.lists(st.tuples(st.floats(1.1, 8.0), st.floats(0.5, 4.0)),
                      min_size=1, max_size=3),
       form=st.sampled_from(["sym", "log"]),
       y=st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
       flip=st.tuples(st.booleans(), st.booleans()),
       p=st.sampled_from([0.01, 0.5, 1.0]))
@settings(max_examples=60, deadline=None)
def test_separable_bounding_box_equals_membership_box_bitwise(terms, form, y, flip, p):
    w = fd.weight_from_json({"n": 2, "terms": [{"type": "power", "p": q, "coef": a}
                                               for q, a in terms]})
    h = _FORMS[form](w)
    # log images need y > 0; the even extension takes either sign
    y = [-v if f and form == "sym" else v for v, f in zip(y, flip)]
    try:
        spec = _spec(h, y, p)
    except fd.DivergenceError:
        # with p near 1 the maximizer (y / coef)^(1 / (p - 1)) is past the sup's reach
        assume(False)
    got = _bounding_box(spec)
    want = _bounding_box(_whole(spec))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_face_on_the_threshold_takes_the_membership_probe(monkeypatch):
    # fock:2's even extension at y = 0: the faces x_1 = -1 and x_1 = 1 of the
    # first box meet the probe x_2 = 0 at the gap 1/2 exactly, the slack
    h = symmetrized_fn(fd.make_fock(2))
    spec = SublevelSpec(h=h, y=np.zeros(2), p=0.5, hstar_y=0.0, argmax=np.zeros(2))
    undecided = _undecided(monkeypatch)
    probes = []
    membership = laplace._membership

    def recording(spec, axes):
        probes.append([np.array(a) for a in axes])
        return membership(spec, axes)

    monkeypatch.setattr(laplace, "_membership", recording)
    got = _bounding_box(spec)
    first = probes[0]
    assert first[0].tolist() == [-1.0, 1.0] and first[1].shape == (17,) and 0.0 in first[1]
    assert undecided[0][1] == 0  # the faces of axis 0, at the first step
    assert len(probes) == len(undecided)
    want = _bounding_box(_whole(spec))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
