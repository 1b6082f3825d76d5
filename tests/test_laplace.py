"""Sublevel volumes, Laplace integrals and the sandwich verdict."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import fockdual as fd
from fockdual import laplace
from fockdual.config import DECAY_BUDGET
from fockdual.fenchel import log_image, symmetrized_fn
from fockdual.laplace import _monte_carlo_volume

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


def test_monte_carlo_volume_ignores_the_grid_resolution():
    # at n = 4 the volume is Monte-Carlo, which always draws MC_SAMPLES points
    spec = fd.make_sublevel_spec(symmetrized_fn(fd.make_fock(4)), [0.5, -0.5, 0.0, 1.0], 1.0)
    got = fd.sublevel_volume(spec, resolution=10)
    want = fd.sublevel_volume(spec)
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert np.float64(got.half_width).tobytes() == np.float64(want.half_width).tobytes()


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
