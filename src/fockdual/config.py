"""Shared numerical defaults: decay budgets, grid steps, tolerances."""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class NumericsConfig:
    """Resolution and tolerance knobs used across the library.

    ``decay_budget`` truncates sups and integrals where the concave exponent
    has dropped that far below its running maximum; ``t_floor`` bounds the
    box along directions where the objective is monotone (zero dual
    coordinates), where the sup is only approached as t -> -inf.
    """

    decay_budget: float = 40.0
    t_floor: float = -40.0
    # per-point conjugate evaluation: grid step along each axis; the 1-D
    # step must keep the parabolic-peak error below the Stirling envelope
    # margin, which decays cubically in the shifted index (~4e-6 at degree 10)
    conj_step_1d: float = 4e-4          # separable / one-dimensional path
    conj_step_nd: float = 0.02          # full tensor path, n == 2
    conj_step_3d: float = 0.25          # full tensor path, n >= 3
    refine: int = 0                     # halve steps this many times
    # sublevel-set volumes: cells per axis for the grid method; sized so the
    # surface-cell error bound stays well under the sandwich error budget
    volume_cells_1d: int = 8192
    volume_cells_2d: int = 1024
    volume_cells_3d: int = 32
    mc_samples: int = 1_000_000
    # quadrature: hard cap on Simpson nodes per axis
    quad_max_nodes_1d: int = 8193
    quad_max_nodes_2d: int = 1537
    quad_max_nodes_3d: int = 161
    quad_peak_nodes: int = 16           # target nodes per peak standard deviation
    tol_identity: float = 1e-3
    refine_shrink: float = 1.8

    def step_for(self, n: int, separable: bool) -> float:
        scale = 0.5 ** self.refine
        if separable or n == 1:
            return self.conj_step_1d * scale
        if n == 2:
            return self.conj_step_nd * scale
        return self.conj_step_3d * scale

    def volume_cells(self, n: int) -> int:
        if n == 1:
            return self.volume_cells_1d
        if n == 2:
            return self.volume_cells_2d
        return self.volume_cells_3d

    def quad_max_nodes(self, n: int) -> int:
        if n == 1:
            return self.quad_max_nodes_1d
        if n == 2:
            return self.quad_max_nodes_2d
        return self.quad_max_nodes_3d

    def refined(self, times: int = 1) -> "NumericsConfig":
        return replace(self, refine=self.refine + times)


DEFAULT = NumericsConfig()
