"""The transform pair against its per-index oracle, the Stirling envelope,
the volume-product scan against a root-finding oracle, and the operator
bounds."""

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

ROOT = Path(__file__).resolve().parents[1]
SEP1 = ROOT / "fdbench" / "weights" / "sep1.json"
README = ROOT / "README.md"


@pytest.fixture(scope="module")
def table1(fock1):
    return fd.moment_table(fock1, 10)


@pytest.fixture(scope="module")
def table1_star(fock1):
    return fd.moment_table(fd.dual_weight(fock1), 10)


@pytest.fixture(scope="module")
def seq(duality_oracle):
    """The dense sequence with the given {components: coefficient} entries."""
    return lambda n, degree, entries: duality_oracle.sequence(
        n, degree, {MultiIndex(a): c for a, c in entries.items()})


def test_parseval_cross_check_one_plus_z(duality_oracle, table1):
    # direct 2-real-dimensional quadrature of int |1+z|^2 e^{-|z|^2}
    L, count = 8.0, 1601
    x = np.linspace(-L, L, count)
    wts = np.ones(count)
    wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
    h = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    integrand = ((1 + X) ** 2 + Y**2) * np.exp(-(X**2) - Y**2)
    direct = float(wts @ integrand @ wts) * (h / 3) ** 2
    norm = duality_oracle.norm_sq([(MultiIndex((0,)), 1 + 0j), (MultiIndex((1,)), 1 + 0j)],
                                  table1)
    assert norm == pytest.approx(direct, rel=1e-5)
    assert direct == pytest.approx(2 * math.pi, rel=1e-9)


def entry(c, i):
    return complex(c.re[i], c.im[i])


def test_forward_and_inverse_examples(table1, seq):
    d = fd.forward_map(seq(1, 10, {(0,): 1.0}), table1)
    assert entry(d, 0) == pytest.approx(math.pi, rel=1e-12)
    d1 = fd.forward_map(seq(1, 10, {(1,): 1.0}), table1)
    assert entry(d1, 1) == pytest.approx(math.pi, rel=1e-9)
    zero = fd.forward_map(seq(1, 10, {}), table1)
    assert not np.any(zero.re) and not np.any(zero.im)
    g = fd.inverse_map(seq(1, 10, {(0,): math.pi}), table1)
    assert entry(g, 0) == pytest.approx(1.0, rel=1e-12)
    gi = fd.inverse_map(seq(1, 10, {(1,): math.pi * 1j}), table1)
    assert entry(gi, 1) == pytest.approx(-1j, rel=1e-9)
    # a sequence's arrays, given or mapped, are read-only
    for c in (seq(1, 10, {}), d, g):
        for a in (c.re, c.im):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 2.0


@given(
    re=st.floats(-5, 5), im=st.floats(-5, 5),
    scale_re=st.floats(-2, 2), scale_im=st.floats(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_forward_antilinearity(re, im, scale_re, scale_im, table1, seq):
    lam = complex(scale_re, scale_im)
    b = seq(1, 10, {(2,): complex(re, im)})
    lhs = entry(fd.forward_map(seq(1, 10, {(2,): lam * complex(re, im)}), table1), 2)
    rhs = lam.conjugate() * entry(fd.forward_map(b, table1), 2)
    assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-300)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_roundtrip_within_4_ulp(seed, table1, duality_oracle):
    rng = np.random.default_rng(seed)
    b = duality_oracle.sequence(1, 10, duality_oracle.random_sequence(1, 10, rng))
    assert fd.roundtrip_ulp_error(b, table1) <= 4.0


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
    # at degree 200, where ln c_200 = ln(pi 200!) is about 865 and the moments
    # pass the float range, the bounds still decide, from ln r_alpha
    rep = fd.isomorphism_bound_check(*[fd.moment_table(fock1, 200)] * 2, 2.0)
    assert len(rep.ln_r) == 201 and np.all(np.isfinite(rep.ln_r))
    assert rep.forward_ok and rep.inverse_ok


def test_bounds_hold_on_random_sequences(duality_oracle):
    # the sampled check the exact one replaced, kept as its oracle: each
    # sequence's forward ratio ||forward(b)||^2 / ||b||^2 is a weighted mean
    # of r_alpha, so no ratio exceeds max r_alpha (the forward norm) and no
    # inverse ratio, its reciprocal, exceeds max 1 / r_alpha (the inverse norm)
    oracle = duality_oracle
    norm_sq = lambda c, table: oracle.norm_sq(oracle.items(c), table)
    for weight, degree in (("fock:1", 10), ("power:4:1", 10), ("power:3:2", 8), ("sep1", 8)):
        w = fd.weight_from_json(SEP1) if weight == "sep1" else fd.parse_preset(weight)
        table = fd.moment_table(w, degree)
        table_star = fd.moment_table(fd.dual_weight(w), degree)
        rep = fd.isomorphism_bound_check(table, table_star, 2.24)
        assert rep.forward_ok and rep.inverse_ok, weight
        rng = np.random.default_rng(0)
        for _ in range(100):
            b = oracle.sequence(w.n, degree, oracle.random_sequence(w.n, degree, rng))
            d = fd.forward_map(b, table)
            ln_ratio = math.log(norm_sq(d, table_star)) - math.log(norm_sq(b, table))
            assert ln_ratio <= np.max(rep.ln_r) + 1e-12, weight
            assert -ln_ratio <= np.max(-rep.ln_r) + 1e-12, weight
            # inverse(forward(b)) is b: the inverse ratio is the reciprocal
            back = fd.inverse_map(d, table)
            ln_back = math.log(norm_sq(back, table)) - math.log(norm_sq(d, table_star))
            assert abs(ln_back + ln_ratio) <= 1e-12, weight


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


def test_transform_space_matches_for_fock(table1, table1_star):
    # self-conjugate weight: the two moment tables coincide numerically
    for alpha in iter_indices(1, 10):
        assert table1_star.ln(alpha) == pytest.approx(table1.ln(alpha), abs=1e-9)


def test_orthogonality(fock1, power4, table1, monomial_orthogonality):
    cases = [((0,), (1,)), ((1,), (3,)), ((0,), (2,))]
    for a, b in cases:
        v = monomial_orthogonality(fock1, MultiIndex(a), MultiIndex(b))
        ca = table1.entry(MultiIndex(a)).value
        cb = table1.entry(MultiIndex(b)).value
        assert v <= 1e-10 * math.sqrt(ca * cb)
    v = monomial_orthogonality(power4, MultiIndex((0,)), MultiIndex((2,)))
    assert v <= 1e-8
    with pytest.raises(ValueError):
        monomial_orthogonality(fock1, MultiIndex((1,)), MultiIndex((1,)))


def _same(c, d):
    return ((c.n, c.truncation_degree) == (d.n, d.truncation_degree)
            and np.array_equal(c.re, d.re) and np.array_equal(c.im, d.im))


@pytest.mark.parametrize("weight, degree", [("fock2", 8), ("power4", 10)])
def test_dense_maps_match_per_index_formulas_exactly(duality_oracle, seq, request, weight,
                                                    degree):
    # on fock:2 every c_alpha / alpha! is about pi^2, where np.exp and
    # math.exp happen to agree; power:4:1 has scales on which they differ
    oracle = duality_oracle
    w = request.getfixturevalue(weight)
    n = w.n
    table = fd.moment_table(w, degree)
    sequences = [oracle.sequence(n, degree,
                                 oracle.random_sequence(n, degree, np.random.default_rng(s)))
                 for s in range(5)]
    sparse = {(0,) * n: 1.5 - 0.25j, (3,) + (0,) * (n - 1): -2e-3,
              (degree,) + (0,) * (n - 1): 7j}
    sequences.append(seq(n, degree, sparse))
    # no, some and only zero entries, a purely imaginary entry, and a
    # 1e-200 modulus: each map scales exactly the nonzero parts
    re, im = np.random.default_rng(11).standard_normal((2, 5, len(sequences[0].re)))
    re[1, [0, 3, 4]] = im[1, [0, 3, 4]] = 0.0
    re[2] = im[2] = 0.0
    re[3, 1:] = im[3, 1:] = 0.0
    re[3, 0] = 0.0
    re[4, 2:9] = im[4, 2:9] = 0.0
    re[4, 5], im[4, 5] = 1e-200, 0.0
    sequences += [fd.CoefficientSequence(n, degree, re[r], im[r]) for r in range(5)]
    for b in sequences:
        items = oracle.items(b)
        for dense_map, per_index in ((fd.forward_map, oracle.forward),
                                     (fd.inverse_map, oracle.inverse)):
            want = oracle.sequence(n, degree, per_index(items, table))
            assert _same(dense_map(b, table), want)
        assert fd.roundtrip_ulp_error(b, table) == oracle.roundtrip_ulp(items, table)


def test_roundtrip_with_a_nan_entry_is_not_a_pass(fock1):
    # the NaN entry is never recovered, so the sequence's error is NaN, and
    # `ulp <= 4` reads false
    table = fd.moment_table(fock1, 3)
    b = fd.CoefficientSequence(1, 3, np.array([1.0, math.nan, 1.0, 1.0]), np.zeros(4))
    assert math.isnan(fd.roundtrip_ulp_error(b, table))


def test_map_scale_past_the_float_range_is_inf(seq):
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
        d = fd.forward_map(fd.CoefficientSequence(1, 460, re, np.zeros(461)), table)
        back = fd.inverse_map(d, table)
        top = fd.forward_map(seq(1, 460, {(460,): 1.0}), table)
    assert np.all(d.re[past] == 0.0) and np.all(back.re[past] == 0.0)
    assert np.array_equal(d.re[~past], 0.75 * scale[~past])
    assert np.max(np.abs(back.re - re)) <= 4 * math.ulp(0.75)
    assert top.re[460] == math.inf and np.all(top.re[:460] == 0.0)


def test_readme_library_example_prints_pi_squared(capsys):
    # the python block under "## Library example" runs as written; for the
    # quadratic weight every r_alpha is pi^2 and both bounds hold
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    _, forward_ok, inverse_ok, r_max = capsys.readouterr().out.split()
    assert (forward_ok, inverse_ok) == ("True", "True")
    assert float(r_max) == pytest.approx(math.pi**2, rel=1e-9)
