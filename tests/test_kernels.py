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
    nodes, vals, hull = _NumericDual(parse_preset("fock:2"), DEFAULT)._table(4.0)
    assert len(nodes) == 32501
    x = np.linspace(0.0, 4.0, 33)
    ref = np.max(x[:, None] * nodes[None, :] - vals[None, :], axis=1)
    assert np.array_equal(hull.conjugate(x), ref)
    assert np.array_equal(_scan.conjugate_lines(nodes, vals[None, :], x)[0], ref)


def _nodes(quarter, n, rng):
    """Strictly increasing nodes: quarter steps, or random gaps."""
    if quarter:
        return np.arange(n) * 0.25 - float(rng.integers(0, 8))
    return np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, n / 2)


def _values(kind, y, rng, noise_exp):
    """Values of one of four shapes on the nodes ``y``."""
    if kind == "collinear":
        # on quarter-step nodes with integer slopes every product is exact,
        # so the pop test meets its `>=` tie on each run of a line
        s1, s2 = sorted(rng.integers(-4, 5, 2))
        k = float(rng.integers(-2, 3))
        return np.maximum(s1 * y, s2 * (y - k) + s1 * k)
    if kind == "convex_noise":
        return y * y + rng.uniform(-1.0, 1.0, y.shape[0]) * 10.0**noise_exp
    if kind == "rounded":
        return np.round(4.0 * y * y) / 4.0
    return rng.standard_normal(y.shape[0])


@given(
    kinds=st.lists(st.sampled_from(["convex_noise", "collinear", "random", "rounded"]),
                   min_size=1, max_size=5),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    noise_exp=st.floats(-16.0, 0.0),
)
@settings(max_examples=400, deadline=None)
def test_hull_equals_the_sequential_chain_bitwise(hull_chain, kinds, n, seed, noise_exp):
    # rows of several shapes over one node array, as `conjugate_lines` gets them
    rng = np.random.default_rng(seed)
    y = _nodes("collinear" in kinds, n, rng)
    vals = np.array([_values(kind, y, rng, noise_exp) for kind in kinds])
    x = rng.uniform(-2 * n, 2 * n, 7)
    rows = list(_scan.row_hulls(y, vals))
    assert len(rows) == len(kinds)
    out = _scan.conjugate_lines(y, vals, x)
    for f, row, got_x in zip(vals, rows, out):
        hull = _scan.Hull(y, f)
        ref = hull_chain(y, f)
        for got_hull, got_row, want in zip((hull.y, hull.f, hull.slopes), row, ref):
            assert np.array_equal(got_hull, want)
            assert np.array_equal(got_row, want)
        assert np.array_equal(got_x, hull.conjugate(x))


def test_rows_in_several_pop_blocks(hull_chain, monkeypatch):
    # blocks of three rows, so the 2-D pop test runs four times; rows 4 and
    # 9 pop (a random row), the others are convex
    monkeypatch.setattr(_scan, "_POP_BLOCK", 3 * 20)
    rng = np.random.default_rng(11)
    y = _nodes(False, 20, rng)
    vals = np.array([_values("random" if r in (4, 9) else "convex_noise", y, rng, -8.0)
                     for r in range(11)])
    rows = list(_scan.row_hulls(y, vals))
    assert len(rows) == 11
    assert [len(row[0]) < 20 for row in rows] == [r in (4, 9) for r in range(11)]
    for f, row in zip(vals, rows):
        for got, want in zip(row, hull_chain(y, f)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("f", [[3.0], [1.0, -2.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
                               [0.0, 1.0, 2.0]])
def test_hull_of_one_two_and_three_nodes(hull_chain, f):
    y = np.arange(len(f), dtype=np.float64)
    hull = _scan.Hull(y, f)
    for got, ref in zip((hull.y, hull.f, hull.slopes), hull_chain(y, f)):
        assert np.array_equal(got, ref)


def test_first_pop_at_the_first_triple(hull_chain):
    # node 1 lies above the chord from node 0 to node 2; the rest is convex
    y = np.arange(6, dtype=np.float64)
    f = np.array([0.0, 1.0, 1.0, 2.0, 4.0, 7.0])
    hull = _scan.Hull(y, f)
    assert np.array_equal(hull.y, [0.0, 2.0, 3.0, 4.0, 5.0])
    for got, ref in zip((hull.y, hull.f, hull.slopes), hull_chain(y, f)):
        assert np.array_equal(got, ref)


def test_first_pop_at_the_last_triple(hull_chain):
    # convex up to node 4, which lies above the chord from node 3 to node 5
    y = np.arange(6, dtype=np.float64)
    f = np.array([0.0, 1.0, 4.0, 9.0, 16.0, 20.0])
    hull = _scan.Hull(y, f)
    assert np.array_equal(hull.y, [0.0, 1.0, 2.0, 3.0, 5.0])
    for got, ref in zip((hull.y, hull.f, hull.slopes), hull_chain(y, f)):
        assert np.array_equal(got, ref)


def test_fock2_numeric_dual_table_keeps_every_node(hull_chain):
    nodes, vals, hull = _NumericDual(parse_preset("fock:2"), DEFAULT)._table(4.0)
    assert len(nodes) == 32501
    assert np.array_equal(hull.y, nodes) and np.array_equal(hull.f, vals)
    ref = hull_chain(nodes, vals)
    assert np.array_equal(hull.slopes, ref[2])
