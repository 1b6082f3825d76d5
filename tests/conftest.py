import numpy as np
import pytest

from fockdual import WeightFunction, make_fock, make_separable_power


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
