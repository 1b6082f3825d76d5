"""The Laplace integral of a weight that splits over the axes is a product of
1-D Simpson sums on the nodes of the tensor grid; these tests pin that it
agrees with the tensor path, is the tensor path at n = 1, never builds a
tensor, and makes separable weights at n = 4 computable."""

import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fockdual as fd
from fockdual import config, fenchel
from fockdual.config import DECAY_BUDGET
from fockdual.fenchel import GridFn, log_image, scale_fn, symmetrized_fn, truncated_sup
from fockdual.laplace import _laplace_integral, _quad_count, _simpson_weights
from fockdual.moments import fock_oracle, iter_indices

WEIGHTS = Path(__file__).resolve().parents[1] / "fdbench" / "weights"
CFG = fd.DEFAULT


@pytest.fixture(autouse=True)
def memo(monkeypatch):
    """An empty memo for each test, so every sup and integral is computed here."""
    monkeypatch.setattr(fenchel, "_MEMO", {})


def _tensor(h: GridFn) -> GridFn:
    """``h`` without its axis profiles: its integral takes the tensor path."""
    return dataclasses.replace(h, axis_profiles=None, key=None)


def _both(h: GridFn, y):
    y = np.asarray(y, dtype=np.float64)
    sup = truncated_sup(h, y, CFG)
    return _laplace_integral(h, y, CFG, sup), _laplace_integral(_tensor(h), y, CFG, sup)


_WEIGHTS = {
    "fock:2": lambda: fd.make_fock(2),
    "power:3:2": lambda: fd.make_separable_power(2, 3.0),
    "power:4:3": lambda: fd.make_separable_power(3, 4.0),
    "sep1": lambda: fd.weight_from_json(WEIGHTS / "sep1.json"),
}

# log images need y > 0 (their integral diverges as t -> -inf otherwise);
# 18 is the shifted index 2 (alpha + 1) of a degree-8 moment
_Y = {
    "log": [[0.5, 1.0, 0.25], [2.0, 7.0, 3.0], [18.0, 30.0, 24.0]],
    "sym": [[0.0, 0.0, 0.0], [-1.5, -3.0, -0.5], [0.0, -2.0, 5.0], [18.0, -30.0, 24.0]],
}


def _objectives(w):
    for kind, image in (("log", log_image), ("sym", symmetrized_fn)):
        for c in (1.0, 2.0):
            h = image(w) if c == 1.0 else scale_fn(image(w), c)
            for y in _Y[kind]:
                yield kind, c, h, y[:w.n]


@pytest.mark.parametrize("name", sorted(_WEIGHTS))
def test_factored_integral_agrees_with_the_tensor_path(name):
    w = _WEIGHTS[name]()
    for kind, c, h, y in _objectives(w):
        factored, tensor = _both(h, y)
        where = (name, kind, c, y)
        if w.n == 1:
            assert factored == tensor, where
        else:
            assert abs(factored.ln_value - tensor.ln_value) <= 1e-13, where
            assert abs(factored.rel_error - tensor.rel_error) <= 1e-14, where


def test_rel_error_is_the_exact_simpson_difference_where_the_tensor_sum_rounds():
    # three equal axes: fine = f^3 and coarse = c^3 for the 1-D sums f and c
    # of the sampled integrand. The exact rational difference is about
    # 1.2e-14, which the tensor path's 161^3-term sums round to about 1e-16.
    h = symmetrized_fn(fd.make_fock(3))
    y = np.full(3, 25.0)
    sup = truncated_sup(h, y, CFG)
    factored = _laplace_integral(h, y, CFG, sup)
    count = _quad_count(sup.hi[0] - sup.lo[0], 1.0 / math.sqrt(sup.curvature[0]), 3)
    nodes = np.linspace(sup.lo[0], sup.hi[0], count)
    psi = -h.axis_profiles[0](nodes) + y[0] * nodes
    e = np.exp(psi - psi.max())
    fine = sum(Fraction(v) * int(w) for v, w in zip(e, _simpson_weights(count)))
    coarse = 2 * sum(Fraction(v) * int(w)
                     for v, w in zip(e[::2], _simpson_weights(len(e[::2]))))
    exact = float(1 - (coarse / fine) ** 3) + math.exp(-DECAY_BUDGET)
    assert exact > 1e-14
    # one ulp of the per-axis sums is about 2% of this difference
    assert factored.rel_error == pytest.approx(exact, rel=0.25, abs=0.0)


def test_separable_integral_never_calls_on_axes():
    def no_tensor(axes):
        raise AssertionError("on_axes called by a separable integral")

    for w in (fd.make_fock(2), fd.make_separable_power(3, 4.0)):
        h = dataclasses.replace(scale_fn(log_image(w), 2.0), on_axes=no_tensor, key=None)
        y = 2.0 * np.arange(1.0, w.n + 1.0)
        est = _laplace_integral(h, y, CFG, truncated_sup(h, y, CFG))
        assert math.isfinite(est.ln_value)


def test_fock4_moments_match_the_oracle():
    table = fd.moment_table(fd.make_fock(4), 4)
    for alpha in iter_indices(4, 4):
        oracle = fock_oracle(alpha, 4).ln_value
        assert abs(math.expm1(table.ln(alpha) - oracle)) <= 1e-6, alpha.components


def test_radial_weight_at_n4_still_hits_the_grid_guard(monkeypatch):
    w = fd.weight_from_json({"n": 4, "terms": [{"type": "radial_power", "p": 3.0, "coef": 1.0}]})
    h = symmetrized_fn(w)
    assert h.axis_profiles is None
    y = np.zeros(4)
    # a coarse sup step keeps the 4-D sup grid itself under its own guard
    monkeypatch.setattr(config, "CONJ_STEP", config.CONJ_STEP[:2] + (1.0,))
    sup = truncated_sup(h, y, CFG)
    with pytest.raises(ValueError, match="integration grid too large"):
        _laplace_integral(h, y, CFG, sup)
