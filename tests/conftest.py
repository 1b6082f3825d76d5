import math
from types import SimpleNamespace

import numpy as np
import pytest

from fockdual import (
    CoefficientSequence,
    WeightFunction,
    laplace_integral,
    log_image,
    make_fock,
    make_separable_power,
)
from fockdual.fenchel import scale_fn
from fockdual.moments import iter_indices


def _conjugate_bruteforce(f, dual_grid, chunk=4096):
    """Exhaustive max over every node of a `SampledFunction`: the oracle the
    scan-based grid conjugate is compared against."""
    dual_grid = tuple(dual_grid)
    mesh = np.meshgrid(*[a.nodes() for a in f.axes], indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=1)
    vals = f.values.ravel()
    duals = np.stack(
        [m.ravel() for m in np.meshgrid(*[g.nodes() for g in dual_grid], indexing="ij")],
        axis=1,
    )
    out = np.empty(len(duals))
    for start in range(0, len(duals), chunk):
        block = duals[start:start + chunk]
        out[start:start + chunk] = np.max(block @ nodes.T - vals, axis=1)
    return out.reshape(tuple(g.count for g in dual_grid))


@pytest.fixture(scope="session")
def conjugate_bruteforce():
    return _conjugate_bruteforce


def _hull_chain(y, f):
    """Andrew's monotone chain over every sample, one pop test at a time: the
    oracle `_scan.Hull` is compared against bit for bit. Returns the hull's
    nodes, values and edge slopes."""
    y = np.asarray(y, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    yv = memoryview(np.ascontiguousarray(y))
    fv = memoryview(np.ascontiguousarray(f))
    hull = np.empty(y.shape[0], dtype=np.intp)
    hv = memoryview(hull)
    h = 0
    for i in range(y.shape[0]):
        while h >= 2:
            a = hv[h - 2]
            b = hv[h - 1]
            if (fv[b] - fv[a]) * (yv[i] - yv[a]) >= (fv[i] - fv[a]) * (yv[b] - yv[a]):
                h -= 1
            else:
                break
        hv[h] = i
        h += 1
    hull = hull[:h]
    return y[hull], f[hull], np.diff(f[hull]) / np.diff(y[hull])


@pytest.fixture(scope="session")
def hull_chain():
    return _hull_chain


def _desc_sum(terms):
    arr = np.sort(np.asarray(list(terms), dtype=np.float64))[::-1]
    return float(arr.sum()) if arr.size else 0.0


def _oracle_scale(table, alpha):
    return math.exp(table.ln(alpha) - alpha.log_factorial())


def _oracle_random_sequence(n, degree, rng):
    coeffs = {}
    for alpha in iter_indices(n, degree):
        re, im = rng.standard_normal(2)
        coeffs[alpha] = complex(re, im) / math.sqrt(2.0)
    return coeffs


def _oracle_norm_sq(items, table):
    return _desc_sum(
        math.exp(2.0 * math.log(abs(a)) + table.ln(alpha))
        for alpha, a in items if abs(a) != 0.0
    )


def _oracle_forward(items, table):
    return {alpha: v.conjugate() * _oracle_scale(table, alpha) for alpha, v in items}


def _oracle_inverse(items, table):
    return {alpha: v.conjugate() / _oracle_scale(table, alpha) for alpha, v in items}


def _oracle_roundtrip_ulp(items, table):
    back = _oracle_inverse(_oracle_forward(items, table).items(), table)
    worst = 0.0
    for alpha, val in items:
        rec = back[alpha]
        for part, ref in ((rec.real, val.real), (rec.imag, val.imag)):
            ulp = math.ulp(abs(ref)) if ref != 0 else math.ulp(1.0)
            worst = max(worst, abs(part - ref) / ulp)
    return worst


def _oracle_items(c):
    """The nonzero (index, coefficient) pairs of a dense sequence, in index order."""
    return [(alpha, complex(re, im))
            for alpha, re, im in zip(iter_indices(c.n, c.truncation_degree), c.re, c.im)
            if re != 0 or im != 0]


def _oracle_sequence(n, degree, coeffs):
    """The dense sequence of an {index: coefficient} dict; other entries are 0."""
    positions = {alpha: i for i, alpha in enumerate(iter_indices(n, degree))}
    re, im = np.zeros(len(positions)), np.zeros(len(positions))
    for alpha, v in coeffs.items():
        v = complex(v)
        re[positions[alpha]], im[positions[alpha]] = v.real, v.imag
    return CoefficientSequence(n, degree, re, im)


@pytest.fixture(scope="session")
def duality_oracle():
    """The per-index `math` formulas of the coefficient maps and norms, taking
    (index, coefficient) pairs: the oracle the dense arrays are compared
    against bit for bit. ``items`` and ``sequence`` convert between those
    pairs (or an {index: coefficient} dict) and a dense sequence."""
    return SimpleNamespace(
        random_sequence=_oracle_random_sequence, norm_sq=_oracle_norm_sq,
        forward=_oracle_forward, inverse=_oracle_inverse,
        roundtrip_ulp=_oracle_roundtrip_ulp,
        items=_oracle_items, sequence=_oracle_sequence,
    )


def _monomial_orthogonality(phi, alpha, beta, angular_nodes=64):
    """|inner product of z^alpha and z^beta| by polar product quadrature.

    The integrand splits into per-axis angular harmonics times a radial
    factor; the uniform angular sums vanish to rounding whenever the
    harmonics differ, for any weight of the coordinate moduli.
    """
    if alpha == beta:
        raise ValueError("orthogonality check needs distinct indices")
    k = np.asarray(alpha.components) - np.asarray(beta.components)
    assert angular_nodes > int(np.max(np.abs(k))), "angular grid too coarse"
    theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    angular = 1.0
    for kj in k:
        angular *= abs(np.sum(np.exp(1j * kj * theta))) * (2.0 * math.pi / angular_nodes)
    # radial factor via the log substitution: exponent <a+b+2, t> - 2 phi[e]
    y = np.asarray(alpha.components, dtype=np.float64) + np.asarray(beta.components) + 2.0
    radial = laplace_integral(scale_fn(log_image(phi), 2.0), y)
    return float(angular * math.exp(radial.ln_value))


@pytest.fixture(scope="session")
def monomial_orthogonality():
    """The polar-quadrature inner product of two distinct monomials
    (`_monomial_orthogonality`): the oracle for the diagonal Gram matrix."""
    return _monomial_orthogonality


def _fenchel_young_loop(f, conj, seed):
    """200 seeded Fenchel-Young probes one at a time: per probe one primal,
    then one dual, index draw per axis and x @ xi on 1-D arrays. The sampled
    check that the conjugate suite's all-pairs worst gap must bound."""
    rng = np.random.default_rng(seed)
    primal_nodes = [a.nodes() for a in f.axes]
    dual_nodes = [a.nodes() for a in conj.axes]
    gaps = []
    for _ in range(200):
        i = tuple(rng.integers(0, a.count) for a in f.axes)
        k = tuple(rng.integers(0, a.count) for a in conj.axes)
        x = np.array([primal_nodes[j][i[j]] for j in range(f.n)])
        xi = np.array([dual_nodes[j][k[j]] for j in range(f.n)])
        gaps.append(float(x @ xi) - float(f.values[i]) - float(conj.values[k]))
    return gaps


@pytest.fixture(scope="session")
def fenchel_young_loop():
    return _fenchel_young_loop


def _ln_power_moment(a, p):
    """ln c_a of one axis of the weight x^p / p: with x = 2a + 2,
    c_a = 2 pi int_0^inf r^{2a+1} e^{-2 r^p / p} dr
        = (2 pi / p) (p/2)^{x/p} Gamma(x/p),
    the Gamma integral after the substitution u = 2 r^p / p."""
    x = 2.0 * a + 2.0
    return math.log(2.0 * math.pi / p) + (x / p) * math.log(p / 2.0) + math.lgamma(x / p)


@pytest.fixture(scope="session")
def ln_power_moment():
    """The closed-form per-axis moment of one power term (`_ln_power_moment`)."""
    return _ln_power_moment


@pytest.fixture(scope="session")
def fock1():
    return make_fock(1)


@pytest.fixture(scope="session")
def fock2():
    return make_fock(2)


@pytest.fixture(scope="session")
def power4():
    return make_separable_power(1, 4.0)


def _abs_r(x):
    return np.abs(np.asarray(x, dtype=float))[..., 0]


@pytest.fixture(scope="session")
def nonsmooth_convex():
    """Max of two quadratic pieces; convex, superlinear, kink at 1 + sqrt(5)."""

    def ev(x):
        r = _abs_r(x)
        return np.maximum(r**2 / 2, r**2 / 4 + r / 2 + 1)

    return WeightFunction(n=1, eval=ev, label="nonsmooth-max-quadratics")


@pytest.fixture(scope="session")
def nonconvex_double():
    """Min of two quadratics: superlinear and continuous but not convex,
    so the two-sided conjugation identity must fail while the one-sided
    inequality still holds."""

    def ev(x):
        r = _abs_r(x)
        return np.minimum(r**2, (r - 2) ** 2 + 3)

    return WeightFunction(n=1, eval=ev, label="nonconvex-min-quadratics")


@pytest.fixture(scope="session")
def linear_growth_double():
    """||x||: symmetric and monotone but not superlinear."""

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x, axis=-1)

    return WeightFunction(n=2, eval=ev, label="linear-growth")


@pytest.fixture(scope="session")
def odd_double():
    """x_1 extended oddly: breaks the symmetry requirement."""

    def ev(x):
        return np.asarray(x, dtype=float)[..., 0]

    return WeightFunction(n=1, eval=ev, label="odd-first-coordinate")


@pytest.fixture(scope="session")
def probes_1d():
    return [[v] for v in [0.0, 0.137, 0.31, 0.5, 0.731, 1.0, 1.37, 1.62,
                          2.0, 2.41, 2.89, 3.14, 3.7]]


@pytest.fixture(scope="session")
def probes_2d():
    vals = [0.0, 0.731, 1.37, 2.41, 3.14]
    return [[a, b] for a in vals for b in vals]
