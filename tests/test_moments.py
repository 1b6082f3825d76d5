"""Moment integrals against the closed-form oracle, the two bound lemmas,
and table serialization."""

import itertools
import json
import math
import time

import numpy as np
import pytest

import fockdual as fd
from fockdual import cli
from fockdual.moments import MultiIndex, iter_indices


def test_multiindex_basics():
    a = MultiIndex((2, 3))
    assert a.degree == 5
    assert a.shifted() == (3, 4)
    assert a.log_factorial() == pytest.approx(math.log(12.0))
    assert MultiIndex((0, 1)) < MultiIndex((1, 0))
    with pytest.raises(ValueError):
        MultiIndex((-1,))
    with pytest.raises(ValueError):
        MultiIndex(())


def test_iter_indices_complete():
    idx = list(iter_indices(2, 3))
    assert len(idx) == 10  # C(3+2, 2)
    assert idx[0] == MultiIndex((0, 0))
    assert idx == sorted(idx)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iter_indices_equal_the_product_filter_oracle(n):
    for degree in range(7):
        oracle = [MultiIndex(c) for c in itertools.product(range(degree + 1), repeat=n)
                  if sum(c) <= degree]
        assert list(iter_indices(n, degree)) == oracle


def test_iter_indices_enumerate_only_the_bounded_indices():
    # (8 + 1)^9 = 387,420,489 tuples would be filtered; C(17, 9) are kept
    t0 = time.perf_counter()
    count = sum(1 for _ in iter_indices(9, 8))
    assert count == math.comb(17, 9) == 24310
    assert time.perf_counter() - t0 < 1.0


def test_fock_oracle_values():
    assert fd.fock_oracle(MultiIndex((0,)), 1).value == pytest.approx(math.pi)
    assert fd.fock_oracle(MultiIndex((2, 3)), 2).value == pytest.approx(
        12 * math.pi**2
    )
    assert fd.fock_oracle(MultiIndex((0, 0, 0)), 3).value == pytest.approx(math.pi**3)
    # log channel survives overflow
    big = fd.fock_oracle(MultiIndex((200,)), 1)
    assert big.value is None
    assert big.ln_value == pytest.approx(math.log(math.pi) + math.lgamma(201))


def test_radial_oracle_against_quadrature(fock1):
    # independent check of the closed form: 2 pi int r^{2a+1} e^{-r^2} dr
    r = np.linspace(0.0, 12.0, 1_000_001)
    for a in (0, 3):
        integrand = r ** (2 * a + 1) * np.exp(-(r**2))
        # the trapezoid rule written out (np.trapezoid needs numpy >= 2.0)
        oracle = 2 * math.pi * np.sum(np.diff(r) * (integrand[1:] + integrand[:-1]) / 2.0)
        assert fd.fock_oracle(MultiIndex((a,)), 1).value == pytest.approx(
            oracle, rel=1e-9
        )


def test_moment_matches_oracle(fock1, fock2):
    m = fd.moment(fock1, MultiIndex((0,)))
    assert m.value == pytest.approx(math.pi, rel=1e-9)
    m3 = fd.moment(fock1, MultiIndex((3,)))
    assert m3.value == pytest.approx(6 * math.pi, rel=1e-9)
    m11 = fd.moment(fock2, MultiIndex((1, 1)))
    assert m11.value == pytest.approx(math.pi**2, rel=1e-9)


def test_moment_dimension_mismatch(fock1):
    with pytest.raises(ValueError):
        fd.moment(fock1, MultiIndex((1, 1)))


def test_moment_table_invariants(fock1):
    table = fd.moment_table(fock1, 6)
    assert table.max_degree == 6
    for alpha in iter_indices(1, 6):
        e = table.entry(alpha)
        assert e.value > 0
        assert e.rel_error >= 0
    with pytest.raises(KeyError):
        table.entry(MultiIndex((7,)))
    with pytest.raises(ValueError):
        fd.MomentTable(phi_label="x", n=1, max_degree=7, entries=table.entries)


def test_moment_table_csv_roundtrip_bit_exact(fock1, tmp_path):
    table = fd.moment_table(fock1, 5)
    path = cli.write_table(tmp_path, "moments", ["alpha_1", "value", "ln_value", "rel_error"],
                           table.rows(), "csv")
    back = fd.MomentTable.from_csv(path, phi_label=table.phi_label)
    for alpha in iter_indices(1, 5):
        assert back.entry(alpha).ln_value == table.entry(alpha).ln_value
        assert back.entry(alpha).value == table.entry(alpha).value


def test_moment_table_json_roundtrip(fock2, tmp_path):
    table = fd.moment_table(fock2, 3)
    path = tmp_path / "moments.json"
    table.to_json(path)
    back = fd.MomentTable.from_json(path)
    assert back.n == 2 and back.max_degree == 3
    for alpha in iter_indices(2, 3):
        assert back.entry(alpha).ln_value == table.entry(alpha).ln_value


def test_lemma2_bounds(fock1):
    # (phi[e])^*(1) = -1/2 and (phi[e])^*(2) = ln 2 - 1 by 1-D brute force
    t = np.linspace(-20, 3, 2_000_001)
    conj1 = np.max(t - np.exp(2 * t) / 2)
    conj2 = np.max(2 * t - np.exp(2 * t) / 2)
    assert conj1 == pytest.approx(-0.5, abs=1e-9)
    assert conj2 == pytest.approx(math.log(2) - 1, abs=1e-9)

    r0 = fd.lemma2_check(fock1, MultiIndex((0,)))
    assert r0.ok
    assert r0.bound_ln == pytest.approx(math.log(math.pi / math.e), abs=1e-6)
    r1 = fd.lemma2_check(fock1, MultiIndex((1,)))
    assert r1.ok
    assert r1.bound_ln == pytest.approx(
        math.log(math.pi / 2) + 2 * (math.log(2) - 1), abs=1e-6
    )


def test_lemma2_all_entries(fock2, power4):
    for w in (fock2, power4):
        degree = 4 if w.n == 2 else 8
        table = fd.moment_table(w, degree)
        for alpha in iter_indices(w.n, degree):
            rep = fd.lemma2_check(w, alpha, entry=table.entry(alpha))
            assert rep.ok, alpha


def test_lemma4_bracket(fock1, power4):
    for w, degree in ((fock1, 5), (power4, 8)):
        for alpha in iter_indices(1, degree):
            rep = fd.lemma4_check(w, alpha)
            assert rep.ok, (w.label, alpha)
            assert rep.lo_ln <= rep.value_ln <= rep.hi_ln


def test_lemma4_two_dim(fock2):
    rep = fd.lemma4_check(fock2, MultiIndex((1, 2)))
    assert rep.ok
    assert rep.hi_ln - rep.lo_ln == pytest.approx(1 + math.log(3.0))


def test_growth_floor(fock1):
    table = fd.moment_table(fock1, 10)
    for rate in (2.0, 10.0):
        rep = fd.growth_floor(table, rate)
        assert rep.log_convex_ok
        assert math.isfinite(rep.floor_ln)
        # the witnessed constant C_M = exp(floor_ln) certifies c >= C M^|a|
        for alpha in iter_indices(1, 10):
            assert table.ln(alpha) >= rep.floor_ln + alpha.degree * math.log(rate) - 1e-9


def test_moments_in_log_space_for_large_degree(fock1):
    # degree ~ 30: the plain value overflows no double yet, but stays huge;
    # the ln channel must agree with the oracle regardless
    alpha = MultiIndex((30,))
    m = fd.moment(fock1, alpha)
    oracle = fd.fock_oracle(alpha, 1)
    assert m.ln_value == pytest.approx(oracle.ln_value, abs=1e-9)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_moment_table_rejects_a_value_that_is_not_positive_and_finite(value):
    entry = fd.MomentEntry(value=value, ln_value=800.0, rel_error=0.0)
    with pytest.raises(ValueError, match="must be positive and finite"):
        fd.MomentTable(phi_label="x", n=1, max_degree=0, entries={MultiIndex((0,)): entry})
    # past the float range a moment has no value, only its log
    absent = fd.MomentEntry(value=None, ln_value=800.0, rel_error=0.0)
    fd.MomentTable(phi_label="x", n=1, max_degree=0, entries={MultiIndex((0,)): absent})


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_moments_past_the_float_range_have_no_value(tmp_path, fmt):
    # c_a = pi a! passes the float range from a = 171 on: the value is left
    # out there (an empty CSV cell, a JSON null) and ln_value carries it
    assert cli.main(["moments", "--weight-preset", "fock:1", "--degree", "175",
                     "--format", fmt, "--out", str(tmp_path)]) == 0
    path = tmp_path / f"moments_table.{fmt}"
    if fmt == "csv":
        text = path.read_text(encoding="utf-8")
        assert "inf" not in text and text.count(",,") == 5
        table = fd.MomentTable.from_csv(path)
    else:
        for report in tmp_path.glob("*.json"):
            json.loads(report.read_text(encoding="utf-8"), parse_constant=_no_constant)
        table = fd.MomentTable.from_json(path)
    absent = [a.components[0] for a in iter_indices(1, 175) if table.entry(a).value is None]
    assert absent == [171, 172, 173, 174, 175]
    assert table.entry(MultiIndex((170,))).value == pytest.approx(
        math.pi * math.factorial(170), rel=1e-9)
    for a in absent:
        assert table.ln(MultiIndex((a,))) == pytest.approx(
            math.log(math.pi) + math.lgamma(a + 1), rel=1e-12)
