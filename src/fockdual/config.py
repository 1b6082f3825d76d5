"""Shared numerics: one knob, ``refine``, and the fixed constants.

The only setting a caller varies is `NumericsConfig.refine` (the CLI's
``--refine``): it halves the per-point conjugation step that many times.
Every other budget, grid size and tolerance is a module constant here;
per-dimension ones are ``(n = 1, n = 2, n >= 3)`` tuples read by `by_dim`.
"""

from typing import NamedTuple

# sups and integrals are truncated where the concave exponent has dropped
# this far below its running maximum
DECAY_BUDGET = 40.0
# lower box end along directions where the objective is monotone (zero dual
# coordinates), where the sup is only approached as t -> -inf
T_FLOOR = -40.0
# per-point conjugate evaluation: grid step along each axis (separable
# objectives take the n = 1 step); the 1-D step must keep the parabolic-peak
# error below the Stirling envelope margin, which decays cubically in the
# shifted index (~4e-6 at degree 10)
CONJ_STEP = (4e-4, 0.02, 0.25)
# sublevel-set volumes: cells per axis for the grid method, sized so the
# surface-cell error bound stays well under the sandwich error budget;
# Monte-Carlo samples beyond n = 3
VOLUME_CELLS = (8192, 1024, 32)
MC_SAMPLES = 1_000_000
# quadrature: hard cap on Simpson nodes per axis, and the target number of
# nodes per peak standard deviation
QUAD_MAX_NODES = (8193, 1537, 161)
QUAD_PEAK_NODES = 16
# largest node count of one tensor-grid array: the Laplace quadrature of a
# non-separable objective and the face probes of a sublevel bounding box
TENSOR_NODES_MAX = 5e7
# identity residual tolerance (the CLI's --tol-identity default), and the
# least residual shrink factor one refinement must show
TOL_IDENTITY = 1e-3
REFINE_SHRINK = 1.8


def by_dim(values: tuple, n: int):
    """The entry of an ``(n = 1, n = 2, n >= 3)`` tuple for dimension n."""
    return values[min(n, 3) - 1]


class NumericsConfig(NamedTuple):
    """``refine``: halve the per-point conjugation step this many times."""

    refine: int = 0

    def step_for(self, n: int, separable: bool) -> float:
        return by_dim(CONJ_STEP, 1 if separable else n) * 0.5 ** self.refine

    def refined(self, times: int = 1) -> "NumericsConfig":
        return NumericsConfig(self.refine + times)


DEFAULT = NumericsConfig()
