"""Sublevel volumes, Laplace integrals and the sandwich verdict."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fockdual as fd
from fockdual import fenchel, laplace
from fockdual.config import DECAY_BUDGET, VOLUME_CELLS, by_dim
from fockdual.fenchel import GridFn, log_image, symmetrized_fn
from fockdual.laplace import _monte_carlo_volume, _sublevel_volume

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def h1(fock1):
    return symmetrized_fn(fock1)


@pytest.fixture(scope="module")
def h2(fock2):
    return symmetrized_fn(fock2)


def test_volume_gaussian_intervals(h1):
    # D = {x^2/2 <= p} is an interval: 2 sqrt(2 p)
    spec = fd.make_sublevel_spec(h1, [0.0], 1.0)
    v = fd.sublevel_volume(spec)
    assert v.value == pytest.approx(2 * math.sqrt(2), abs=2 * v.half_width + 1e-3)
    spec_half = fd.make_sublevel_spec(h1, [0.0], 0.5)
    v_half = fd.sublevel_volume(spec_half)
    assert v_half.value == pytest.approx(2.0, abs=2 * v_half.half_width + 1e-3)


def test_volume_disk(h2):
    spec = fd.make_sublevel_spec(h2, [0.0, 0.0], 1.0)
    v = fd.sublevel_volume(spec)
    assert v.value == pytest.approx(2 * math.pi, abs=v.half_width + 1e-2)


def test_volume_monotone_in_slack(h1):
    values = []
    for p in (0.25, 0.5, 1.0, 2.0):
        spec = fd.make_sublevel_spec(h1, [0.7], p)
        values.append(fd.sublevel_volume(spec).value)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_volume_monte_carlo_agrees_with_grid(h2):
    spec = fd.make_sublevel_spec(h2, [0.5, -0.5], 1.0)
    vg = fd.sublevel_volume(spec)
    lo, hi = laplace._bounding_box(spec)
    vm = _monte_carlo_volume(spec, lo, hi, 200_000, 7)
    assert abs(vg.value - vm.value) <= vg.half_width + vm.half_width
    # seeded generator: identical reruns
    fresh = _monte_carlo_volume(spec, lo, hi, 200_000, 7)
    assert fresh.value == vm.value


def test_volume_grid_without_members_is_rejected(monkeypatch):
    # two cells per axis: the fock:3 sublevel set lies between the cell centres
    spec = fd.make_sublevel_spec(symmetrized_fn(fd.make_fock(3)), [-1.0, -1.0, -1.0], 1.0)
    assert _sublevel_volume(spec, 2, 0).value == 0
    seam = laplace._sublevel_volume
    monkeypatch.setattr(laplace, "_sublevel_volume",
                        lambda spec, resolution, seed: seam(spec, 2, seed))
    monkeypatch.setattr(fenchel, "_MEMO", {})
    with pytest.raises(ValueError, match="holds no cell centre of the volume grid"):
        fd.sublevel_volume(spec)


def test_volume_unbounded_rejected():
    def linear(x):
        return np.abs(np.asarray(x, dtype=float))[..., 0]

    w = fd.WeightFunction(n=1, eval=linear, label="abs")
    h = symmetrized_fn(w)
    # y = 2 lies outside the dual domain of |x|; the gap set is unbounded
    with pytest.raises(fd.DivergenceError):
        spec = fd.make_sublevel_spec(h, [2.0], 1.0)
        fd.sublevel_volume(spec)


def test_integral_gaussians(h1, h2):
    est = fd.laplace_integral(h1, [0.0])
    assert est.value == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)
    est1 = fd.laplace_integral(h1, [1.0])
    assert est1.value == pytest.approx(math.sqrt(2 * math.pi) * math.exp(0.5), rel=1e-9)
    est2 = fd.laplace_integral(h2, [1.0, 0.0])
    assert est2.value == pytest.approx(2 * math.pi * math.exp(0.5), rel=1e-8)
    assert est2.rel_error < 1e-6


def test_integral_reports_error_estimate(h1):
    est = fd.laplace_integral(h1, [0.3])
    assert est.rel_error >= math.exp(-DECAY_BUDGET)
    assert math.exp(est.ln_value) == pytest.approx(est.value, rel=1e-12)


def test_integral_past_the_float_range_has_no_value(fock1):
    # 2 pi int r^{2a+1} e^{-r^2} dr = pi a! at a = 200, in t = ln r with the
    # exponent 2 (a + 1) t - 2 phi[e](t): ln of the integral is ln 200! - ln 2
    h = fenchel.scale_fn(log_image(fock1), 2.0)
    est = fd.laplace_integral(h, [402.0])
    assert est.value is None and est.ln_value >= 709
    assert est.ln_value == pytest.approx(math.lgamma(201) - math.log(2.0), rel=1e-12)
    rep = fd.sandwich_check(h, [402.0])
    assert rep.integral is None and rep.verdict


def test_sandwich_gaussian_ratio(h1):
    rep = fd.sandwich_check(h1, [0.0])
    expected = math.sqrt(2 * math.pi) / (2 * math.sqrt(2))
    assert rep.ratio == pytest.approx(expected, abs=5e-3)
    assert rep.verdict
    assert math.exp(-1) <= rep.ratio <= 1 + math.factorial(1)
    # ratio recomputable from stored fields
    recomputed = rep.integral / (rep.volume.value * math.exp(rep.hstar_y))
    assert recomputed == pytest.approx(rep.ratio, rel=1e-12)


def test_sandwich_translation_invariance(h1):
    r0 = fd.sandwich_check(h1, [0.0])
    r2 = fd.sandwich_check(h1, [2.0])
    # completing the square maps y = 2 to the y = 0 problem exactly
    assert r2.ratio == pytest.approx(r0.ratio, abs=1e-8)
    assert r2.verdict


def test_sandwich_quartic_and_2d(h2, power4):
    hq = symmetrized_fn(power4)
    for y in (-1.0, 0.0, 1.5):
        rep = fd.sandwich_check(hq, [y])
        assert rep.verdict
        assert rep.ratio <= 2.0 + rep.combined_rel_error * rep.ratio
    rep2 = fd.sandwich_check(h2, [0.0, 0.0])
    assert rep2.ratio == pytest.approx(1.0, abs=3e-2)
    assert rep2.verdict


def test_translation_covariance_of_integral(h1, fock1):
    # replacing h by h(. - a) multiplies the integral by e^{a y}
    a, y = 0.8, 1.3

    def shifted(x):
        return fock1.symmetrized(np.asarray(x, dtype=float) - a)

    hs = fd.GridFn(n=1, at=shifted,
                   on_axes=lambda axes: shifted(np.asarray(axes[0])[:, None]))
    base = fd.laplace_integral(h1, [y])
    moved = fd.laplace_integral(hs, [y])
    assert moved.ln_value - base.ln_value == pytest.approx(a * y, abs=1e-8)


def test_sublevel_spec_validation(h1):
    with pytest.raises(ValueError):
        fd.SublevelSpec(h=h1, y=np.array([0.0]), p=-1.0, hstar_y=0.0,
                        argmax=np.array([0.0]))
    with pytest.raises(ValueError):
        fd.SublevelSpec(h=h1, y=np.array([0.0]), p=1.0, hstar_y=math.inf,
                        argmax=np.array([0.0]))


def _one_face_box(spec, probe_per_axis=17):
    """The bounding box grown by probing one face per call, hi face first."""
    n = spec.h.n
    lo, hi = spec.argmax - 1.0, spec.argmax + 1.0

    def member(axis, edge):
        axes = [np.array([edge]) if j == axis else np.linspace(lo[j], hi[j], probe_per_axis)
                for j in range(n)]
        return bool(np.any(laplace._membership(spec, axes)))

    while True:
        grew = False
        for j in range(n):
            width = hi[j] - lo[j]
            if member(j, hi[j]):
                hi[j] += 0.5 * width
                grew = True
            if member(j, lo[j]):
                lo[j] -= 0.5 * width
                grew = True
        if not grew:
            return lo, hi


def _sep1(n):
    obj = json.loads((ROOT / "fdbench" / "weights" / "sep1.json").read_text(encoding="utf-8"))
    return fd.weight_from_json(dict(obj, n=n))


@pytest.mark.parametrize("make, y", [
    (lambda: symmetrized_fn(fd.make_fock(1)), [0.7]),
    (lambda: symmetrized_fn(fd.make_fock(2)), [-1.5, 0.0]),
    (lambda: symmetrized_fn(fd.make_fock(3)), [1.0, -1.0, 0.0]),
    (lambda: log_image(fd.make_separable_power(2, 3.0)), [4.0, 10.0]),
    (lambda: symmetrized_fn(_sep1(2)), [0.3, 2.0]),
    # numeric duals, whose tables grow with the largest |r| a probe reads
    (lambda: log_image(fd.dual_weight(_sep1(1))), [2.0]),
    (lambda: log_image(fd.dual_weight(_sep1(2))), [4.0, 6.0]),
], ids=["fock1", "fock2", "fock3", "power3-log", "sep1@2", "sep1*-log", "sep1*@2-log"])
def test_bounding_box_probes_both_faces_at_once_with_the_same_floats(make, y):
    h = make()
    spec = fd.make_sublevel_spec(h, y, 1.0)
    got = laplace._bounding_box(fd.make_sublevel_spec(make(), y, 1.0))
    want = _one_face_box(spec)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _counting(fn, sizes: list):
    """``fn`` with its product-grid evaluations recorded in ``sizes``."""

    def on_axes(axes):
        out = fn.on_axes(axes)
        sizes.append(out.size)
        return out

    return dataclasses.replace(fn, on_axes=on_axes)


def _whole(spec):
    """``spec`` without the key, so its volume counts the membership grid."""
    return dataclasses.replace(spec, h=dataclasses.replace(spec.h, key=None))


def _spec(h, y, p: float):
    y = np.asarray(y, dtype=np.float64)
    sup = fd.truncated_sup(h, y, fd.DEFAULT)
    return fd.SublevelSpec(h=h, y=y, p=p, hstar_y=sup.value, argmax=sup.argmax)


def _fields(est) -> tuple:
    return np.float64(est.value).tobytes(), np.float64(est.half_width).tobytes()


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


def _fixed_box(monkeypatch, n: int) -> np.ndarray:
    """Pin the bounding box to [-4, 4]^n; with 64 cells per axis the cell
    centres are -4 + (i + 1/2) / 8."""
    monkeypatch.setattr(laplace, "_bounding_box",
                        lambda spec: (np.full(n, -4.0), np.full(n, 4.0)))
    return -4.0 + (np.arange(64) + 0.5) / 8.0


def test_members_apart_from_the_set_are_counted(monkeypatch):
    centres = _fixed_box(monkeypatch, 1)

    def fn(x):
        # not convex: a dip to 0 on (1.65, 1.95) besides the set [-1, 1] of x^2
        return np.where((x > 1.65) & (x < 1.95), 0.0, x * x)

    # cells 45 (1.6875), 46 and 47 lie in the dip
    assert centres[45] == 1.6875 and fn(centres[46:48]).max() == 0.0
    h = GridFn(n=1, at=lambda x: fn(x[..., 0]), on_axes=lambda axes: fn(axes[0]),
               convex=True)
    spec = fd.SublevelSpec(h=h, y=np.zeros(1), p=1.0, hstar_y=0.0, argmax=np.zeros(1))
    sizes = []
    got = _sublevel_volume(dataclasses.replace(spec, h=_counting(spec.h, sizes)),
                           64, 0)
    assert 64 in sizes
    want = _sublevel_volume(_whole(spec), 64, 0)
    assert _fields(got) == _fields(want)
    assert got.value == (16 + 3) / 8


def test_thin_convex_set_is_counted_whole(monkeypatch):
    # A convex needle one tenth of a cell wide: its members are the cells
    # (28 + 2m, 28 + m), m = -6..6.
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
    spec = fd.SublevelSpec(h=h, y=np.zeros(2), p=1.0, hstar_y=0.0, argmax=c)
    got = _sublevel_volume(spec, 64, 0)
    want = _sublevel_volume(_whole(spec), 64, 0)
    assert _fields(got) == _fields(want)
    assert got.value == 13 / 64
