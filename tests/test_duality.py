"""The transform pair, norms, the Stirling envelope, the volume-product
scan against a root-finding oracle, and the operator bounds."""

import cmath
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import fockdual as fd
from fockdual.moments import MultiIndex, iter_indices

SEP1 = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "sep1.json"


@pytest.fixture(scope="module")
def table1(fock1):
    return fd.moment_table(fock1, 10)


@pytest.fixture(scope="module")
def table1_star(fock1):
    return fd.moment_table(fd.dual_weight(fock1), 10)


def seq(n, degree, entries):
    return fd.CoefficientSequence(
        n=n,
        coeffs={MultiIndex(a): complex(c) for a, c in entries.items()},
        truncation_degree=degree,
    )


def test_sequence_validation():
    with pytest.raises(ValueError):
        seq(1, 2, {(3,): 1.0})
    with pytest.raises(ValueError):
        seq(2, 3, {(1,): 1.0})


def test_sequence_items_in_index_order():
    b = seq(2, 3, {(1, 2): 3.0, (0, 0): 1.0, (1, 0): 2.0})
    items = b.items()
    assert [a.components for a, _ in items] == [(0, 0), (1, 0), (1, 2)]
    assert [v for _, v in items] == [1.0, 2.0, 3.0]
    items.clear()  # a fresh list: the sequence keeps its order
    assert len(b.items()) == 3
    assert b == seq(2, 3, {(0, 0): 1.0, (1, 0): 2.0, (1, 2): 3.0})


def test_sequence_json_roundtrip(tmp_path):
    b = seq(2, 3, {(0, 0): 1 + 2j, (1, 2): -0.5j})
    path = tmp_path / "seq.json"
    b.to_json(path)
    back = fd.CoefficientSequence.from_json(path)
    assert back.n == 2 and back.truncation_degree == 3
    assert back.get(MultiIndex((0, 0))) == 1 + 2j
    assert back.get(MultiIndex((1, 2))) == -0.5j
    assert back.get(MultiIndex((3, 0))) == 0j


def test_norm_sq_examples(table1):
    assert fd.norm_sq(seq(1, 10, {(0,): 1.0}), table1) == pytest.approx(math.pi, rel=1e-12)
    assert fd.norm_sq(seq(1, 10, {(0,): 1.0, (1,): 1.0}), table1) == pytest.approx(
        2 * math.pi, rel=1e-9
    )
    single = seq(1, 10, {(4,): 2.0})
    assert fd.norm_sq(single, table1) == pytest.approx(
        4 * table1.entry(MultiIndex((4,))).value, rel=1e-12
    )
    with pytest.raises(KeyError):
        fd.norm_sq(seq(1, 12, {(12,): 1.0}), table1)


def test_parseval_cross_check_one_plus_z(fock1, table1):
    # direct 2-real-dimensional quadrature of int |1+z|^2 e^{-|z|^2}
    L, count = 8.0, 1601
    x = np.linspace(-L, L, count)
    wts = np.ones(count)
    wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
    h = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    integrand = ((1 + X) ** 2 + Y**2) * np.exp(-(X**2) - Y**2)
    direct = float(wts @ integrand @ wts) * (h / 3) ** 2
    norm = fd.norm_sq(seq(1, 10, {(0,): 1.0, (1,): 1.0}), table1)
    assert norm == pytest.approx(direct, rel=1e-5)
    assert direct == pytest.approx(2 * math.pi, rel=1e-9)


def test_forward_and_inverse_examples(table1):
    d = fd.forward_map(seq(1, 10, {(0,): 1.0}), table1)
    assert d.get(MultiIndex((0,))) == pytest.approx(math.pi, rel=1e-12)
    d1 = fd.forward_map(seq(1, 10, {(1,): 1.0}), table1)
    assert d1.get(MultiIndex((1,))) == pytest.approx(math.pi, rel=1e-9)
    zero = fd.forward_map(seq(1, 10, {}), table1)
    assert zero.items() == []
    g = fd.inverse_map(seq(1, 10, {(0,): math.pi}), table1)
    assert g.get(MultiIndex((0,))) == pytest.approx(1.0, rel=1e-12)
    gi = fd.inverse_map(seq(1, 10, {(1,): math.pi * 1j}), table1)
    assert gi.get(MultiIndex((1,))) == pytest.approx(-1j, rel=1e-9)


@given(
    re=st.floats(-5, 5), im=st.floats(-5, 5),
    scale_re=st.floats(-2, 2), scale_im=st.floats(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_forward_antilinearity(re, im, scale_re, scale_im, table1):
    lam = complex(scale_re, scale_im)
    b = seq(1, 10, {(2,): complex(re, im)})
    lhs = fd.forward_map(
        seq(1, 10, {(2,): lam * complex(re, im)}), table1
    ).get(MultiIndex((2,)))
    rhs = lam.conjugate() * fd.forward_map(b, table1).get(MultiIndex((2,)))
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_roundtrip_within_4_ulp(seed, table1):
    rng = np.random.default_rng(seed)
    b = fd.random_sequence(1, 10, rng)
    assert fd.roundtrip_ulp_error(b, table1) <= 4.0


def test_norm_scaling(table1):
    b = seq(1, 10, {(0,): 1 + 1j, (3,): 2.0})
    lam = 0.7 - 1.9j
    scaled = seq(1, 10, {(0,): lam * (1 + 1j), (3,): lam * 2.0})
    assert fd.norm_sq(scaled, table1) == pytest.approx(
        abs(lam) ** 2 * fd.norm_sq(b, table1), rel=1e-12
    )


def test_stirling_envelope_values(fock1, fock2):
    r0 = fd.stirling_identity_check(fock1, MultiIndex((0,)))
    assert r0.ok
    # closed forms: conjugate sum is 2(ln 1 - 1) = -2, so r = 2 pi e^{-2}
    assert math.exp(r0.ln_ratio) == pytest.approx(2 * math.pi * math.exp(-2), abs=1e-5)
    assert math.exp(r0.ln_ratio) == pytest.approx(0.85033, abs=3e-3)
    assert math.exp(r0.ln_lower) == pytest.approx(math.exp(-1 / 6), rel=1e-12)
    r11 = fd.stirling_identity_check(fock2, MultiIndex((1, 1)))
    assert r11.ok
    assert r11.ln_lower == pytest.approx(-1 / 6, rel=1e-12)


def test_stirling_envelope_all_degrees(fock1, power4):
    for w in (fock1, power4):
        for a in range(0, 11):
            rep = fd.stirling_identity_check(w, MultiIndex((a,)))
            assert rep.ok, (w.label, a)


def oracle_volume_1d(a: int) -> float:
    """Half the measure of {s : e^s - 1 - s <= 1/a} (substituted gap set)."""
    f = lambda s: math.exp(s) - 1.0 - s - 1.0 / a
    s_plus = brentq(f, 1e-12, 60.0, xtol=1e-14)
    s_minus = brentq(f, -60.0, -1e-12, xtol=1e-14)
    return 0.5 * (s_plus - s_minus)


def test_k_scan_against_root_finding_oracle(fock1):
    alphas = [MultiIndex((a,)) for a in (1, 2, 10, 100)]
    rep = fd.k_condition_scan(fock1, alphas)
    for alpha in alphas:
        a = alpha.components[0]
        v = oracle_volume_1d(a)
        assert rep.products[alpha] == pytest.approx(a * v * v, rel=5e-3)
    assert rep.products[MultiIndex((1,))] == pytest.approx(2.23, abs=0.03)
    assert rep.products[MultiIndex((100,))] == pytest.approx(2.00, abs=0.02)


def test_k_scan_full_range(fock1):
    alphas = [MultiIndex((a,)) for a in range(1, 101)]
    rep = fd.k_condition_scan(fock1, alphas)
    products = np.array([rep.products[a] for a in alphas])
    assert products.min() >= 1.95
    assert products.max() <= 2.30
    assert rep.K_hat == pytest.approx(2.24, abs=0.05)
    assert rep.K_hat >= 1.0


def test_k_scan_rejects_zero_component(fock2):
    with pytest.raises(ValueError):
        fd.k_condition_scan(fock2, [MultiIndex((1, 0))])


def test_isomorphism_bounds(fock1, table1, table1_star):
    K = 2.24
    rep = fd.isomorphism_bound_check(table1, table1_star, K)
    assert rep.forward_ok and rep.inverse_ok
    # for the quadratic weight the tables coincide and r_alpha = pi^2 at every
    # index: the forward map scales every norm by pi^2
    assert len(rep.ln_r) == 11
    np.testing.assert_allclose(rep.ln_r, 2 * math.log(math.pi), rtol=0, atol=1e-9)
    assert rep.ln_m1 == pytest.approx(math.log(2 * math.pi * 4 * K), rel=1e-15)
    assert rep.ln_c_inv == pytest.approx(math.log(K * math.e**2 * 2 * math.e * math.pi),
                                         rel=1e-15)
    # a constant below pi^2 / (2 pi * 4) fails the forward bound, and one
    # below 1 / (pi^2 e^2 2 e pi) the inverse bound
    assert not fd.isomorphism_bound_check(table1, table1_star, 0.3).forward_ok
    assert not fd.isomorphism_bound_check(table1, table1_star, 5e-5).inverse_ok
    # the dual weight's table must cover the weight's
    with pytest.raises(KeyError):
        fd.isomorphism_bound_check(table1, fd.moment_table(fock1, 9), K)


def test_bounds_hold_on_random_sequences():
    # the sampled check the exact one replaced, kept as its oracle: each
    # sequence's forward ratio ||forward(b)||^2 / ||b||^2 is a weighted mean
    # of r_alpha, so no ratio exceeds max r_alpha (the forward norm) and no
    # inverse ratio, its reciprocal, exceeds max 1 / r_alpha (the inverse norm)
    for weight, degree in (("fock:1", 10), ("power:4:1", 10), ("power:3:2", 8), ("sep1", 8)):
        w = fd.weight_from_json(SEP1) if weight == "sep1" else fd.parse_preset(weight)
        table = fd.moment_table(w, degree)
        table_star = fd.moment_table(fd.dual_weight(w), degree)
        rep = fd.isomorphism_bound_check(table, table_star, 2.24)
        assert rep.forward_ok and rep.inverse_ok, weight
        b = fd.random_sequence(w.n, degree, np.random.default_rng(0), count=100)
        d = fd.forward_map(b, table)
        ln_ratio = np.log(fd.norm_sq(d, table_star)) - np.log(fd.norm_sq(b, table))
        assert np.all(ln_ratio <= np.max(rep.ln_r) + 1e-12), weight
        assert np.all(-ln_ratio <= np.max(-rep.ln_r) + 1e-12), weight
        # inverse(forward(b)) is b: the inverse ratio is the reciprocal
        back = fd.inverse_map(d, table)
        ln_back = np.log(fd.norm_sq(back, table)) - np.log(fd.norm_sq(d, table_star))
        np.testing.assert_allclose(ln_back, -ln_ratio, rtol=0, atol=1e-12)


@pytest.mark.parametrize("preset, p", [("power:4:1", 4.0), ("power:3:2", 3.0),
                                       ("power:1.5:1", 1.5), ("fock:1", 2.0),
                                       ("fock:2", 2.0)])
def test_ln_r_matches_the_gamma_oracle(preset, p, ln_power_moment):
    # one power term per axis: c_a = (2 pi / p) (p/2)^{x/p} Gamma(x/p) with
    # x = 2a + 2 for x^p / p, and the same with q for its dual y^q / q
    q = p / (p - 1.0)
    w = fd.parse_preset(preset)
    table = fd.moment_table(w, 30)
    table_star = fd.moment_table(fd.dual_weight(w), 30)
    rep = fd.isomorphism_bound_check(table, table_star, 2.0)
    want = [sum(ln_power_moment(a, p) + ln_power_moment(a, q) - 2.0 * math.lgamma(a + 1)
                for a in alpha.components) for alpha in iter_indices(w.n, 30)]
    np.testing.assert_allclose(rep.ln_r, want, rtol=0, atol=1e-12)


def test_norm_identity_two_evaluation_orders(fock1, table1, table1_star):
    rng = np.random.default_rng(5)
    b = fd.random_sequence(1, 10, rng)
    d = fd.forward_map(b, table1)
    via_norm = fd.norm_sq(d, table1_star)
    terms = [
        math.exp(2 * (table1.ln(a) + math.log(abs(v)) - a.log_factorial())
                 + table1_star.ln(a))
        for a, v in b.items()
    ]
    direct = math.fsum(sorted(terms, reverse=True))
    assert via_norm == pytest.approx(direct, rel=1e-12)


def test_transform_space_matches_for_fock(table1, table1_star):
    # self-conjugate weight: the two moment tables coincide numerically
    for alpha in iter_indices(1, 10):
        assert table1_star.ln(alpha) == pytest.approx(table1.ln(alpha), abs=1e-9)


def test_orthogonality(fock1, power4, table1):
    cases = [((0,), (1,)), ((1,), (3,)), ((0,), (2,))]
    for a, b in cases:
        v = fd.monomial_orthogonality_check(fock1, MultiIndex(a), MultiIndex(b))
        ca = table1.entry(MultiIndex(a)).value
        cb = table1.entry(MultiIndex(b)).value
        assert v <= 1e-10 * math.sqrt(ca * cb)
    v = fd.monomial_orthogonality_check(power4, MultiIndex((0,)), MultiIndex((2,)))
    assert v <= 1e-8
    with pytest.raises(ValueError):
        fd.monomial_orthogonality_check(fock1, MultiIndex((1,)), MultiIndex((1,)))


@pytest.mark.parametrize("weight, degree", [("fock2", 8), ("power4", 10)])
def test_dense_maps_match_per_index_formulas_exactly(duality_oracle, request, weight, degree):
    # on fock:2 every c_alpha / alpha! is about pi^2, where np.exp and
    # math.exp happen to agree; power:4:1 has scales on which they differ
    oracle = duality_oracle
    w = request.getfixturevalue(weight)
    n = w.n
    table = fd.moment_table(w, degree)
    table_star = fd.moment_table(fd.dual_weight(w), degree)
    sequences = []
    for s in range(5):
        b = fd.random_sequence(n, degree, np.random.default_rng(s))
        assert b.coeffs == oracle.random_sequence(n, degree, np.random.default_rng(s))
        sequences.append(b)
    sparse = {(0,) * n: 1.5 - 0.25j, (3,) + (0,) * (n - 1): -2e-3,
              (degree,) + (0,) * (n - 1): 7j}
    sequences.append(seq(n, degree, sparse))
    sequences.append(seq(n, degree, {}))
    for b in sequences:
        items = b.items()
        d = fd.forward_map(b, table)
        assert d.coeffs == oracle.forward(items, table)
        assert fd.inverse_map(b, table).coeffs == oracle.inverse(items, table)
        assert fd.norm_sq(b, table) == oracle.norm_sq(items, table)
        assert fd.norm_sq(d, table_star) == oracle.norm_sq(d.items(), table_star)
        assert fd.roundtrip_ulp_error(b, table) == oracle.roundtrip_ulp(items, table)
        assert (fd.duality.direct_forward_norm_sq(b, table, table_star)
                == oracle.direct_norm(items, table, table_star))


def _assert_rows_are_the_singles(batch, singles, table, table_star):
    """Each batch row gives, with ==, what its single sequence gives alone."""
    d = fd.forward_map(batch, table)
    back = fd.inverse_map(d, table)
    forward_norms = fd.norm_sq(d, table_star)
    ulps = fd.roundtrip_ulp_error(batch, table)
    direct = fd.duality.direct_forward_norm_sq(batch, table, table_star)
    norms = fd.norm_sq(batch, table)
    assert len(forward_norms) == len(ulps) == len(direct) == len(norms) == len(singles)
    for row, b in enumerate(singles):
        assert np.array_equal(batch.re[row], b.re) and np.array_equal(batch.im[row], b.im)
        single_d = fd.forward_map(b, table)
        assert forward_norms[row] == fd.norm_sq(single_d, table_star)
        back_row = fd.inverse_map(single_d, table)
        assert np.array_equal(back.re[row], back_row.re) and np.array_equal(back.im[row], back_row.im)
        assert ulps[row] == fd.roundtrip_ulp_error(b, table)
        assert direct[row] == fd.duality.direct_forward_norm_sq(b, table, table_star)
        assert norms[row] == fd.norm_sq(b, table)


@pytest.mark.parametrize("weight, degree", [("fock:2", 8), ("power:4:1", 10), ("sep1", 8)])
def test_batch_rows_equal_successive_single_sequences(weight, degree):
    w = fd.weight_from_json(SEP1) if weight == "sep1" else fd.parse_preset(weight)
    table = fd.moment_table(w, degree)
    table_star = fd.moment_table(fd.dual_weight(w), degree)
    batch = fd.random_sequence(w.n, degree, np.random.default_rng(3), count=100)
    rng = np.random.default_rng(3)
    singles = [fd.random_sequence(w.n, degree, rng) for _ in range(100)]
    _assert_rows_are_the_singles(batch, singles, table, table_star)


def test_batch_rows_with_different_zero_counts(table1, table1_star):
    # rows with no, some and only zero entries, a purely imaginary entry, and
    # a modulus whose term underflows to 0.0 (kept, unlike a zero modulus)
    rng = np.random.default_rng(11)
    re, im = rng.standard_normal((2, 5, 11))
    re[1, [0, 3, 4]] = im[1, [0, 3, 4]] = 0.0
    re[2] = im[2] = 0.0
    re[3, 1:] = im[3, 1:] = 0.0
    re[3, 0] = 0.0
    re[4, 2:9] = im[4, 2:9] = 0.0
    re[4, 5], im[4, 5] = 1e-200, 0.0
    batch = fd.CoefficientSequence.dense(1, 10, re, im)
    singles = [fd.CoefficientSequence.dense(1, 10, re[r].copy(), im[r].copy())
               for r in range(5)]
    assert fd.norm_sq(singles[2], table1) == 0.0
    _assert_rows_are_the_singles(batch, singles, table1, table1_star)


def test_norm_past_the_float_range_is_a_value_error(fock1):
    # ln c_200 = ln(pi 200!) is about 865, so the summed term e^{2 ln|b| + ln c}
    # overflows: the norm sums of a sequence are not carried in log space
    table = fd.moment_table(fock1, 200)
    b = seq(1, 200, {(200,): 1.0})
    with pytest.raises(ValueError, match="degree 200 exceeds the float range"):
        fd.norm_sq(b, table)
    with pytest.raises(ValueError, match="degree 200 exceeds the float range"):
        fd.duality.direct_forward_norm_sq(b, table, table)
    # the operator bounds are: they decide at this degree, from ln r_alpha
    rep = fd.isomorphism_bound_check(table, table, 2.0)
    assert len(rep.ln_r) == 201 and np.all(np.isfinite(rep.ln_r))
    assert rep.forward_ok and rep.inverse_ok


def test_roundtrip_with_a_nan_entry_is_not_a_pass(fock1):
    # the NaN entry is never recovered, so the sequence's error is NaN, and
    # `ulp <= 4` reads false
    table = fd.moment_table(fock1, 3)
    b = fd.CoefficientSequence.dense(1, 3, np.array([1.0, math.nan, 1.0, 1.0]), np.zeros(4))
    assert math.isnan(fd.roundtrip_ulp_error(b, table))
    batch = fd.CoefficientSequence.dense(
        1, 3, np.array([[1.0, 1.0, 1.0, 1.0], [1.0, math.nan, 1.0, 1.0]]), np.zeros((2, 4)))
    first, second = fd.roundtrip_ulp_error(batch, table)
    assert first <= 4.0 and math.isnan(second)


def test_map_scale_past_the_float_range_is_inf():
    # on power:1.5:1, ln c_alpha - ln alpha! passes the float range near
    # degree 420. The scale is inf there, and only there; the maps send an
    # absent entry to zero and a present one to inf, without a warning
    table = fd.moment_table(fd.parse_preset("power:1.5:1"), 460)
    ln_c, ln_fact, scale = table.dense_vectors(460)
    past = np.isinf(scale)
    assert 0 < np.count_nonzero(past) < len(scale)
    assert np.all(ln_c[past] - ln_fact[past] > 709) and np.all(ln_c[~past] - ln_fact[~past] < 710)
    re = np.where(past, 0.0, 0.75)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = fd.forward_map(fd.CoefficientSequence.dense(1, 460, re, np.zeros(461)), table)
        back = fd.inverse_map(d, table)
        top = fd.forward_map(seq(1, 460, {(460,): 1.0}), table)
    assert np.all(d.re[past] == 0.0) and np.all(back.re[past] == 0.0)
    assert np.array_equal(d.re[~past], 0.75 * scale[~past])
    assert np.max(np.abs(back.re - re)) <= 4 * math.ulp(0.75)
    assert top.re[460] == math.inf and np.all(top.re[:460] == 0.0)
