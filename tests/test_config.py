"""The numerics constants: the per-dimension lookups give the same numbers as
the former per-dimension fields, bit for bit."""

import pytest

import fockdual as fd
from fockdual.config import QUAD_MAX_NODES, VOLUME_CELLS, by_dim

# (conjugation step, volume cells, Simpson node cap) for n = 1, 2, 3, 4
_LITERALS = {1: (4e-4, 8192, 8193), 2: (0.02, 1024, 1537), 3: (0.25, 32, 161),
             4: (0.25, 32, 161)}


@pytest.mark.parametrize("refine", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lookups_equal_the_former_fields(n, refine):
    step, cells, nodes = _LITERALS[n]
    cfg = fd.NumericsConfig(refine)
    assert cfg.step_for(n, separable=False) == step * 0.5 ** refine
    assert cfg.step_for(n, separable=True) == 4e-4 * 0.5 ** refine
    assert cfg.refined() == fd.NumericsConfig(refine + 1)
    assert by_dim(VOLUME_CELLS, n) == cells
    assert by_dim(QUAD_MAX_NODES, n) == nodes
