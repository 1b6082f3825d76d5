"""The hull scan kernel against its exhaustive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockdual import DEFAULT, _scan, parse_preset
from fockdual.fenchel import _NumericDual


def brute_rows(y, vals, x):
    out = np.empty((vals.shape[0], len(x)))
    for l in range(vals.shape[0]):
        out[l] = np.max(x[:, None] * y[None, :] - vals[l][None, :], axis=1)
    return out


@given(
    n=st.integers(2, 60),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_scan_equals_bruteforce(n, m, seed):
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(-5, 5, n))
    y += np.arange(n) * 1e-9  # enforce strict increase under duplicates
    vals = rng.uniform(-10, 10, (3, n))
    x = np.sort(rng.uniform(-6, 6, m))
    x += np.arange(m) * 1e-9
    # the same queries shuffled, with repeats: hull queries take any order
    x_mixed = rng.permutation(np.concatenate([x, x[rng.integers(0, m, m)]]))
    for queries in (x, x_mixed):
        out = _scan.conjugate_lines(y, vals, queries)
        ref = brute_rows(y, vals, queries)
        assert np.max(np.abs(out - ref)) <= 1e-12


def test_collinear_and_ties():
    # collinear samples: hull drops interior points without changing the max;
    # conj of f(y) = 2y on [0, 1] is max(0, x - 2)
    y = np.linspace(0.0, 1.0, 11)
    vals = (2.0 * y)[None, :]
    x = np.array([-1.0, 2.0, 5.0])
    out = _scan.conjugate_lines(y, vals, x)
    assert np.allclose(out[0], np.maximum(0.0, x - 2.0), atol=1e-12)
    assert np.array_equal(out, brute_rows(y, vals, x))


def test_rejects_empty_and_mismatched():
    y = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        _scan.conjugate_lines(y, np.zeros((1, 3)), np.array([0.0]))
    with pytest.raises(ValueError):
        _scan.conjugate_lines(y, np.zeros((1, 2)), np.array([]))
    for bad in ([1.0, 0.0], [0.0, 0.0], [0.0, np.nan]):
        with pytest.raises(ValueError):
            _scan.conjugate_lines(np.array(bad), np.zeros((1, 2)), np.array([0.0]))


def test_float_ties_match_bruteforce_bitwise():
    # On this table some hull slopes equal a query exactly, so two nodes tie
    # up to rounding; a plain binary-search answer is an ulp low at x = 1.375,
    # 1.625, 2.625 and 3.125. The strictly-rising climb picks the larger one.
    nodes, vals, hull = _NumericDual(parse_preset("fock:2"), DEFAULT)._axis_table(4.0)
    assert len(nodes) == 32501
    x = np.linspace(0.0, 4.0, 33)
    ref = np.max(x[:, None] * nodes[None, :] - vals[None, :], axis=1)
    assert np.array_equal(hull.conjugate(x), ref)
    assert np.array_equal(_scan.conjugate_lines(nodes, vals[None, :], x)[0], ref)
