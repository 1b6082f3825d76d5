"""The record classes: which stay dataclasses, and the checks their
constructors run."""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import fockdual as fd
from fockdual import cli
from fockdual.fenchel import SupResult, log_image, truncated_sup
from fockdual.moments import MomentEntry, MomentTable, MultiIndex

# Every other record is a named tuple; these stay dataclasses because
# `dataclasses` itself is used on them.
KEPT_DATACLASSES = {
    # fdbench/tracer.py wraps a numeric dual's evaluators with dataclasses.replace
    "weights.WeightFunction",
    # mutable: the tracer re-binds its evaluators and tags it with a key, and
    # tests build variants with dataclasses.replace
    "fenchel.GridFn",
    # tests build variants with dataclasses.replace
    "laplace.SublevelSpec",
}


def test_only_the_kept_classes_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(fd.__path__):
        module = importlib.import_module(f"fockdual.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == KEPT_DATACLASSES


_AXIS = fd.GridAxis(0.0, 1.0, 3)
_ENTRY = MomentEntry(value=1.0, ln_value=0.0, rel_error=0.0)


@pytest.mark.parametrize("make,error,message", [
    pytest.param(lambda: fd.PowerTerm("cubic", 3.0, 1.0), fd.WeightSpecError,
                 "unknown term type", id="term-kind"),
    pytest.param(lambda: fd.PowerTerm("power", 1.0, 1.0), fd.WeightSpecError,
                 "exponent must exceed 1", id="term-p"),
    pytest.param(lambda: fd.PowerTerm("radial_power", 2.0, 0.0), fd.WeightSpecError,
                 "coefficient must be positive", id="term-coef"),
    pytest.param(lambda: fd.GridAxis(0.0, 1.0, 1), ValueError, "at least 2 nodes",
                 id="axis-count"),
    pytest.param(lambda: fd.GridAxis(1.0, 1.0, 3), ValueError, "strictly increasing",
                 id="axis-order"),
    pytest.param(lambda: fd.SampledFunction((_AXIS,), np.zeros(4)), ValueError,
                 "grid shape", id="sampled-shape"),
    pytest.param(lambda: fd.SampledFunction((_AXIS,), np.array([0.0, math.inf, 0.0])),
                 ValueError, "finite at every node", id="sampled-finite"),
    pytest.param(lambda: fd.VolumeEstimate(-1.0, 0.0), ValueError, "must be nonnegative",
                 id="volume-value"),
    pytest.param(lambda: fd.VolumeEstimate(1.0, -0.5), ValueError, "must be nonnegative",
                 id="volume-half-width"),
    pytest.param(lambda: MultiIndex(()), ValueError, "nonnegative integer", id="index-empty"),
    pytest.param(lambda: MultiIndex((1, -1)), ValueError, "nonnegative integer",
                 id="index-negative"),
    pytest.param(lambda: MultiIndex((1.0,)), ValueError, "nonnegative integer",
                 id="index-float"),
    pytest.param(lambda: fd.KConditionReport({MultiIndex((1,)): 0.0}, 1.0), ValueError,
                 "volume products must be positive", id="kreport-product"),
    pytest.param(lambda: MomentTable("t", 1, 1, {MultiIndex((0,)): _ENTRY}), ValueError,
                 "table missing (1,)", id="table-missing"),
    pytest.param(lambda: MomentTable("t", 1, 0, {MultiIndex((0,)): MomentEntry(0.0, 0.0, 0.0)}),
                 ValueError, "must be positive and finite", id="table-value"),
    pytest.param(lambda: cli.RunConfig(max_degree=-1), fd.WeightSpecError,
                 "degree must be nonnegative", id="run-degree"),
    pytest.param(lambda: cli.RunConfig(fmt="xml"), fd.WeightSpecError,
                 "unknown report format 'xml'", id="run-format"),
    pytest.param(lambda: cli.RunConfig(seed=-2), fd.WeightSpecError,
                 "--seed must be nonnegative, got -2", id="run-seed"),
    pytest.param(lambda: cli.RunConfig(tol_identity=math.nan), fd.WeightSpecError,
                 "--tol-identity must be a finite positive tolerance", id="run-tolerance"),
])
def test_constructor_checks_raise(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert message in str(exc.value)


def test_sup_result_arrays_are_read_only(fock1):
    built = SupResult(1.0, np.zeros(1), np.zeros(1), np.ones(1), np.ones(1))
    memoized = truncated_sup(log_image(fock1), [1.5])
    for res in (built, memoized):
        for a in (res.argmax, res.lo, res.hi, res.curvature):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 2.0


def test_coefficient_sequences_compare_by_value():
    b = fd.CoefficientSequence(1, {MultiIndex((1,)): 2.0}, 2)
    same = fd.CoefficientSequence.dense(1, 2, np.array([0.0, 2.0, 0.0]), np.zeros(3))
    other = fd.CoefficientSequence.dense(1, 2, np.array([0.0, 3.0, 0.0]), np.zeros(3))
    assert b == same and not b != same
    assert b != other and not b == other
    with pytest.raises(TypeError):
        hash(b)


def test_moment_table_cache_is_not_a_field(fock1):
    table = fd.moment_table(fock1, 3)
    table.dense_vectors(3)
    assert table._dense and table._fields == ("phi_label", "n", "max_degree", "entries")
    assert table == fd.moment_table(fock1, 3)
    assert "_dense" not in repr(table)
