"""The per-process memo of sups, volumes and Laplace integrals, the shared
dual of the duality suite, and the single identity report per grid."""

from pathlib import Path

import numpy as np
import pytest

import fockdual as fd
from fockdual import cli, fenchel, laplace
from fockdual.config import T_FLOOR
from fockdual.fenchel import log_image, scale_fn, symmetrized_fn
from fockdual.moments import iter_indices

SEP1_WEIGHT = Path(__file__).resolve().parents[1] / "fdbench" / "weights" / "sep1.json"


@pytest.fixture
def memo(monkeypatch):
    """An empty memo for this test; the session's is restored after."""
    store = {}
    monkeypatch.setattr(fenchel, "_MEMO", store)
    return store


def _sups(memo) -> list:
    """The memo's sup entries; line sups and other results share the dict."""
    return [key for key in memo if key[1] == "sup"]


def _count(monkeypatch, module, name, points):
    """Replace ``module.name`` by a wrapper that records each call's dual point."""
    inner = getattr(module, name)

    def counting(fn, y, *rest):
        points.append(tuple(y))
        return inner(fn, y, *rest)

    monkeypatch.setattr(module, name, counting)


def test_moment_tables_compute_each_sup_and_integral_once(memo, monkeypatch, fock2):
    sups, integrals = [], []
    _count(monkeypatch, fenchel, "_truncated_sup", sups)
    _count(monkeypatch, laplace, "_laplace_integral", integrals)
    first = fd.moment_table(fock2, 4)
    again = fd.moment_table(fock2, 4)
    # fock:2 and its structural dual fock:2* have the same terms
    dual = fd.moment_table(fd.dual_weight(fock2), 4)
    assert again.entries == first.entries
    assert dual.entries == first.entries
    indices = len(list(iter_indices(2, 4)))
    assert len(sups) == indices and len(set(sups)) == indices
    assert len(integrals) == indices and len(set(integrals)) == indices


def test_separable_integrals_sum_each_axis_coordinate_once(memo, monkeypatch, fock2):
    parts = []
    inner = laplace._simpson_part

    def counting(psi, steps):
        parts.append(psi.shape)
        return inner(psi, steps)

    monkeypatch.setattr(laplace, "_simpson_part", counting)
    fd.moment_table(fock2, 8)
    axis_keys = [key for key in memo if key[1] == "axis_integral"]
    # y_j = 2 (alpha_j + 1) takes 9 values for alpha_j = 0, ..., 8, and the
    # box and curvature of an axis come from that coordinate's line sup:
    # 9 one-axis Simpson sums instead of two for each of the 45 integrals
    assert len(axis_keys) == 9
    assert len(parts) == 9 and all(len(shape) == 1 for shape in parts)
    fd.moment_table(fock2, 8)
    fd.moment_table(fd.dual_weight(fock2), 8)
    assert [key for key in memo if key[1] == "axis_integral"] == axis_keys
    assert len(parts) == 9


def test_separable_sups_solve_one_line_per_axis_coordinate(memo, monkeypatch, fock2):
    rows = []
    inner = fenchel._sup_lines

    def counting(prof, ys, *args, **kwargs):
        rows.extend(ys)
        return inner(prof, ys, *args, **kwargs)

    monkeypatch.setattr(fenchel, "_sup_lines", counting)
    fd.moment_table(fock2, 4)
    fd.moment_table(fd.dual_weight(fock2), 4)
    # fifteen sups at y = 2 (alpha + 1); their coordinates take five values,
    # solved as the rows of one batch
    assert sorted(rows) == [2.0, 4.0, 6.0, 8.0, 10.0]


def test_distinct_inputs_never_alias(memo, power4):
    h = log_image(power4)
    # small enough that the floor cuts the decay box
    y = np.array([0.2])
    cfg = fd.DEFAULT
    cases = [
        (h, cfg, None), (h, cfg, T_FLOOR), (h, cfg.refined(), None),
        (log_image(fd.dual_weight(power4)), cfg, None),
    ]
    def fields(res):
        return (res.value,) + tuple(tuple(a) for a in (res.argmax, res.lo, res.hi))

    results = [fields(fd.truncated_sup(fn, y, c, floor=f)) for fn, c, f in cases]
    assert len(set(results)) == len(cases)
    for (fn, c, f), res in zip(cases, results):
        assert res == fields(fenchel._truncated_sup(fn, y, c, f))
    assert len(_sups(memo)) == len(cases)

    h1 = symmetrized_fn(power4)
    objectives = [h1, scale_fn(h1, 2.0), symmetrized_fn(fd.dual_weight(power4))]
    integrals = [fd.laplace_integral(fn, y, cfg) for fn in objectives]
    assert len(set(integrals)) == len(objectives)
    for fn, est in zip(objectives, integrals):
        sup = fenchel._truncated_sup(fn, y, cfg, None)
        assert est == laplace._laplace_integral(fn, y, cfg, sup)
    spec = fd.make_sublevel_spec(h1, y, 1.0)
    half = fd.make_sublevel_spec(h1, y, 0.5)
    assert fd.sublevel_volume(spec) != fd.sublevel_volume(half)


def test_cached_sup_is_read_only(memo, fock1):
    res = fd.truncated_sup(log_image(fock1), [2.0])
    assert fd.truncated_sup(log_image(fock1), [2.0]) is res
    for a in (res.argmax, res.lo, res.hi, res.curvature):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_weights_without_terms_are_not_memoized(memo):
    def quadratic(x):
        return np.abs(np.asarray(x, dtype=float))[..., 0] ** 2 / 2

    def quartic(x):
        return np.abs(np.asarray(x, dtype=float))[..., 0] ** 4 / 4

    a = fd.WeightFunction(n=1, eval=quadratic, label="custom")
    b = fd.WeightFunction(n=1, eval=quartic, label="custom")
    y = [1.5]
    sa = fd.truncated_sup(log_image(a), y)
    sb = fd.truncated_sup(log_image(b), y)
    assert sa.value != sb.value
    assert sa.value == fd.truncated_sup(log_image(fd.make_fock(1)), y).value
    ia = fd.laplace_integral(symmetrized_fn(a), y)
    ib = fd.laplace_integral(symmetrized_fn(b), y)
    assert ia.ln_value != ib.ln_value
    # only the fock:1 sup was stored
    assert len(_sups(memo)) == 1


def test_stirling_with_shared_dual_is_bit_identical():
    w = fd.weight_from_json(SEP1_WEIGHT)
    shared = fd.dual_weight(w)
    # grow the shared table first, as the duality suite does
    fd.moment_table(shared, 8)
    for alpha in iter_indices(1, 8):
        assert (fd.stirling_identity_check(w, alpha, phi_dual=shared)
                == fd.stirling_identity_check(w, alpha))


@pytest.mark.parametrize("refine", [0, 1])
def test_separable_dual_tables_are_prefixes_of_one_grid(refine):
    # a separable table is np.linspace(0, E, ceil(E / h) + 1), with E a node of
    # `_sup_line`'s coarse grid (a multiple of 0.25): its nodes are exactly
    # i * h, so a grown table starts with the smaller one, and a shared, grown
    # dual gives the floats of a fresh one (see the Stirling test above)
    cfg = fd.NumericsConfig(refine)
    step = cfg.step_for(1, separable=True)
    dual = fenchel._NumericDual(fd.weight_from_json(SEP1_WEIGHT), cfg)
    tables = [dual._table(r_max)[:2] for r_max in (0.5, 3.75, 5.0, 12.0, 40.0)]
    assert len({len(nodes) for nodes, _ in tables}) == 4
    for (small, small_vals), (nodes, vals) in zip(tables, tables[1:]):
        assert nodes[-1] % 0.25 == 0
        assert np.array_equal(nodes, np.arange(len(nodes)) * step)
        assert np.array_equal(nodes[:len(small)], small)
        assert np.array_equal(vals[:len(small)], small_vals)


def test_numeric_dual_skips_extent_sup_inside_its_reach(monkeypatch):
    w = fd.weight_from_json(SEP1_WEIGHT)
    dual = fenchel._NumericDual(w, fd.DEFAULT)
    calls = []
    extent = dual._primal_extent
    monkeypatch.setattr(dual, "_primal_extent", lambda r: calls.append(r) or extent(r))
    dual.eval(np.array([[3.75]]))
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = rng.uniform(-3.75, 3.75, 16)
        dual.eval(q[:, None])
        dual.eval_on_axes([q])
        dual.profile(q)
    assert calls == [3.75]
    dual.eval(np.array([[5.0]]))
    assert calls == [3.75, 5.0]


def test_identities_compute_one_report_per_grid(monkeypatch, tmp_path):
    cfgs = []
    report = fenchel.verify_identities

    def counting(u, points, cfg):
        cfgs.append(cfg)
        return report(u, points, cfg)

    monkeypatch.setattr(fenchel, "verify_identities", counting)
    run = cli.RunConfig(weight_preset="fock:1", out_dir=str(tmp_path / "plain"))
    assert cli.cmd_identities(fd.make_fock(1), fd.NumericsConfig(run.refine), run).passed
    assert cfgs == [fd.DEFAULT]

    cfgs.clear()
    run = cli.RunConfig(weight_preset="fock:1", refine=1, out_dir=str(tmp_path / "fine"))
    cfg = fd.NumericsConfig(run.refine)
    assert cli.cmd_identities(fd.make_fock(1), cfg, run).passed
    assert cfgs == [cfg, cfg.refined()]
