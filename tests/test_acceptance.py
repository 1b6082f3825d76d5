"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; independent oracles (closed-form
Gamma integrals, root finding, direct quadrature) live next to each check.
"""

import filecmp
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import fockdual as fd
from fockdual import cli, fenchel
from fockdual.fenchel import symmetrized_fn
from fockdual.moments import MultiIndex, iter_indices

PROBES_1D = [[v] for v in cli._PROBES_1D]
PROBES_2D = cli._probe_points(2)


def verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def fock1():
    return fd.make_fock(1)


@pytest.fixture(scope="module")
def fock2():
    return fd.make_fock(2)


@pytest.fixture(scope="module")
def power4_1():
    return fd.make_separable_power(1, 4.0)


@pytest.fixture(scope="module")
def table_fock1(fock1):
    return fd.moment_table(fock1, 10)


def test_criterion_1_fock_moment_oracle(fock1, fock2):
    worst = 0.0
    for w in (fock1, fock2):
        for alpha in iter_indices(w.n, 10):
            computed = fd.moment(w, alpha)
            oracle = fd.fock_oracle(alpha, w.n)
            worst = max(worst, abs(math.expm1(computed.ln_value - oracle.ln_value)))
    verdict(1, worst <= 1e-6,
            f"moment vs pi^n alpha! max rel err {worst:.2e} <= 1e-6")


def test_criterion_2_sandwich(fock1, fock2, power4_1):
    quartic2 = fd.make_separable_power(2, 4.0)
    cases = [
        (symmetrized_fn(fock1), [[v] for v in np.linspace(-2, 2, 9)]),
        (symmetrized_fn(quartic2), [[a, b] for a in (-1.5, 0.0, 1.5)
                                    for b in (-1.5, 0.0, 1.5)]),
        (symmetrized_fn(fock2), [[a, b] for a in (-1.5, 0.0, 1.5)
                                 for b in (-1.5, 0.0, 1.5)]),
    ]
    worst_eps = 0.0
    ok = True
    for h, grid_pts in cases:
        lo = math.exp(-1.0)
        hi = 1.0 + math.factorial(h.n)
        for y in grid_pts:
            rep = fd.sandwich_check(h, y)
            eps = rep.combined_rel_error * rep.ratio
            worst_eps = max(worst_eps, eps)
            ok = ok and (lo - eps <= rep.ratio <= hi + eps) and rep.verdict
    gauss = fd.sandwich_check(symmetrized_fn(fock1), [0.0])
    closed = math.sqrt(2 * math.pi) / (2 * math.sqrt(2))
    gauss_ok = abs(gauss.ratio - closed) <= 5e-3 and abs(closed - 0.88623) < 1e-5
    verdict(2, ok and worst_eps <= 0.02 and gauss_ok,
            f"ratios bracketed, eps {worst_eps:.3f} <= 0.02, "
            f"gaussian ratio {gauss.ratio:.5f} = {closed:.5f} +- 5e-3")


def test_criterion_3_two_sided_identities(fock1, fock2, power4_1):
    worst = 0.0
    worst_shrink = math.inf
    for w, probes in ((fock1, PROBES_1D), (fock2, PROBES_2D), (power4_1, PROBES_1D)):
        base = fd.verify_identities(w, probes)
        fine = fd.verify_identities(w, probes, fd.DEFAULT.refined())
        worst = max(worst, base.max_abs_residual)
        worst_shrink = min(worst_shrink,
                           base.max_abs_residual / fine.max_abs_residual)
    verdict(3, worst <= 1e-3 and worst_shrink >= 1.8,
            f"max |residual| {worst:.2e} <= 1e-3, "
            f"refinement shrink {worst_shrink:.2f} >= 1.8")


def test_criterion_4_one_sided_inequality():
    def ev(x):
        r = np.abs(np.asarray(x, dtype=float))[..., 0]
        return np.maximum(r**2 / 2, r**2 / 4 + r / 2 + 1)

    w = fd.WeightFunction(n=1, eval=ev, label="max-two-quadratics")
    rep = fd.verify_identities(w, PROBES_1D)
    verdict(4, rep.max_positive_residual <= 1e-3,
            f"one-sided residual {rep.max_positive_residual:.2e} <= 1e-3")


def test_criterion_5_k_condition(fock1):
    alphas = [MultiIndex((a,)) for a in range(1, 101)]
    rep = fd.k_condition_scan(fock1, alphas)
    products = np.array([rep.products[a] for a in alphas])

    def oracle(a):
        f = lambda s: math.exp(s) - 1.0 - s - 1.0 / a
        return 0.5 * (brentq(f, 1e-12, 60.0, xtol=1e-14)
                      - brentq(f, -60.0, -1e-12, xtol=1e-14))

    oracle_products = np.array([a * oracle(a) ** 2 for a in range(1, 101)])
    agree = float(np.max(np.abs(products - oracle_products)))
    ok = (products.min() >= 1.95 and products.max() <= 2.30
          and abs(rep.K_hat - 2.24) <= 0.05 and agree <= 0.02)
    verdict(5, ok,
            f"products in [{products.min():.3f}, {products.max():.3f}] "
            f"subset of [1.95, 2.30], K_hat {rep.K_hat:.3f} = 2.24 +- 0.05, "
            f"oracle gap {agree:.3f}")


def test_criterion_6_stirling_envelope(fock1, fock2):
    ok = True
    for w in (fock1, fock2):
        for alpha in iter_indices(w.n, 10):
            rep = fd.stirling_identity_check(w, alpha)
            ok = ok and rep.ok
    r0 = fd.stirling_identity_check(fock1, MultiIndex((0,)))
    value = math.exp(r0.ln_ratio)
    ok = ok and abs(value - 0.85033) <= 3e-3
    verdict(6, ok, f"envelope holds for |alpha| <= 10, n in {{1, 2}}; "
                   f"r(0) = {value:.5f} = 0.85033 +- 3e-3")


def test_criterion_7_isomorphism_bounds(fock1, table_fock1, duality_oracle):
    oracle = duality_oracle
    table_star = fd.moment_table(fd.dual_weight(fock1), 10)
    alphas = [MultiIndex((a,)) for a in range(1, 101)]
    K = fd.k_condition_scan(fock1, alphas).K_hat
    rep = fd.isomorphism_bound_check(table_fock1, table_star, K)
    # the exact operator norms bound the ratios of 100 random sequences
    ln_fwd, ln_inv = float(np.max(rep.ln_r)), float(np.max(-rep.ln_r))
    rng = np.random.default_rng(0)
    violations, worst_ulp = 0, 0.0
    for _ in range(100):
        b = oracle.sequence(1, 10, oracle.random_sequence(1, 10, rng))
        d = fd.forward_map(b, table_fock1)
        ln_ratio = (math.log(oracle.norm_sq(oracle.items(d), table_star))
                    - math.log(oracle.norm_sq(oracle.items(b), table_fock1)))
        violations += (ln_ratio > ln_fwd + 1e-12) + (-ln_ratio > ln_inv + 1e-12)
        worst_ulp = max(worst_ulp, fd.roundtrip_ulp_error(b, table_fock1))
    ok = rep.forward_ok and rep.inverse_ok and violations == 0 and worst_ulp <= 4.0
    verdict(7, ok, f"both bounds hold at K = {K:.4f}; {violations} of 100 sequences "
                   f"exceed the exact norms, round-trip max {worst_ulp:.1f} ulp <= 4")


def test_criterion_8_parseval_cross_check(table_fock1, duality_oracle):
    norm = duality_oracle.norm_sq([(MultiIndex((0,)), 1 + 0j), (MultiIndex((1,)), 1 + 0j)],
                                  table_fock1)
    # direct quadrature of int |1 + z|^2 e^{-|z|^2} over the plane
    count = 1601
    x = np.linspace(-8.0, 8.0, count)
    wts = np.ones(count)
    wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
    h = x[1] - x[0]
    X, Y = np.meshgrid(x, x, indexing="ij")
    direct = float(
        wts @ (((1 + X) ** 2 + Y**2) * np.exp(-(X**2) - Y**2)) @ wts
    ) * (h / 3) ** 2
    rel = abs(norm - direct) / direct
    verdict(8, rel <= 1e-5,
            f"norm {norm:.8f} vs quadrature {direct:.8f}, rel {rel:.1e} <= 1e-5")


def test_criterion_9_orthogonality(fock1, power4_1, monomial_orthogonality):
    worst = 0.0
    for w in (fock1, power4_1):
        table = fd.moment_table(w, 5)
        idx = list(iter_indices(1, 5))
        for i, a in enumerate(idx):
            for b in idx[i + 1:]:
                v = monomial_orthogonality(w, a, b)
                scale = math.exp(0.5 * (table.ln(a) + table.ln(b)))
                worst = max(worst, v / scale)
    verdict(9, worst <= 1e-8,
            f"max |(z^a, z^b)| / sqrt(c_a c_b) = {worst:.1e} <= 1e-8")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        # each run starts from an empty memo, as a fresh process does
        monkeypatch.setattr(fenchel, "_MEMO", {})
        code = cli.main(["all", "--weight-preset", "fock:1", "--seed", "0",
                         "--out", str(out)])
        assert code == 0
    names = sorted(p.name for p in out_a.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    verdict(10, bool(names) and not mismatch and not errors,
            f"{len(match)} report files byte-identical across reruns")
