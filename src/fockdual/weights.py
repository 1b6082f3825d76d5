"""Weight functions: a validated catalog plus JSON-specified sums of powers.

A weight is a convex function of the coordinate moduli, nondecreasing on
[0, inf)^n and superlinear at infinity. Catalog and JSON weights are
positive combinations of power terms with p > 1, so they are in the class
by construction; a weight given only by an evaluator is certified by
sampling (symmetry, axis monotonicity, two-radius growth), not by proof.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np


class WeightSpecError(ValueError):
    """Malformed weight description (bad JSON, bad preset, bad parameters)."""


def add_on_axes(tensor: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Add ``vectors[j]`` along axis j of a product-grid tensor, for every
    axis j in order, in place, and return the tensor."""
    n = len(vectors)
    for j, v in enumerate(vectors):
        sl = [None] * n
        sl[j] = slice(None)
        tensor += np.asarray(v)[tuple(sl)]
    return tensor


class PowerTerm(namedtuple("PowerTerm", "kind p coef")):
    """One additive term: coef * sum_j x_j**p / p ("power") or
    coef * ||x||**p / p ("radial_power"), on moduli x >= 0."""

    __slots__ = ()

    def __new__(cls, kind: str, p: float, coef: float):
        if kind not in ("power", "radial_power"):
            raise WeightSpecError(f"unknown term type {kind!r}")
        for name, v in (("p", p), ("coef", coef)):
            # bool is an int subclass; an int past the float range fails too
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not abs(v) <= sys.float_info.max):
                raise WeightSpecError(f"term {name!r} must be a finite number, got {v!r}")
        p, coef = float(p), float(coef)
        if not p > 1.0:
            raise WeightSpecError("term exponent must exceed 1 (superlinearity)")
        if not coef > 0.0:
            raise WeightSpecError("term coefficient must be positive")
        return super().__new__(cls, kind, p, coef)

    @property
    def separable(self) -> bool:
        """True when the term is the sum over the axes of `axis_value`: a power
        term, or a radial one with p = 2 (c ||x||^2 / 2 = sum_j c x_j^2 / 2)."""
        return self.kind == "power" or self.p == 2.0

    def axis_value(self, r: np.ndarray) -> np.ndarray:
        """1-D profile coef * r**p / p at moduli r >= 0: the term itself at
        n = 1, and its share of each axis when it is separable."""
        return self.coef * r ** self.p / self.p

    def value(self, x: np.ndarray) -> np.ndarray:
        """The term at moduli ``x`` with a trailing coordinate axis."""
        if self.separable:
            return self.axis_value(x).sum(axis=-1)
        return self.coef * (x**2).sum(axis=-1) ** (self.p / 2.0) / self.p

    def add_on_grid(self, tensor: np.ndarray, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Add the term on the product grid of the moduli ``axes`` to
        ``tensor``, in place, and return the tensor."""
        if self.separable:
            return add_on_axes(tensor, [self.axis_value(a) for a in axes])
        r2 = add_on_axes(np.zeros(tensor.shape), [np.asarray(a) ** 2 for a in axes])
        tensor += self.coef * r2 ** (self.p / 2.0) / self.p
        return tensor

    def dual(self) -> "PowerTerm":
        # sup_x (x*y - c*x^p/p) = c^(1-q) * y^q / q with 1/p + 1/q = 1;
        # the same rule holds radially for nondecreasing profiles.
        q = self.p / (self.p - 1.0)
        if not q > 1.0:
            raise WeightSpecError(f"the dual exponent of p = {self.p!r} is {q!r}, "
                                  "which does not exceed 1")
        try:
            return PowerTerm(self.kind, q, self.coef ** (1.0 - q))
        except OverflowError as exc:
            raise WeightSpecError(f"the dual of coefficient {self.coef!r} overflows") from exc


@dataclass(frozen=True)
class WeightFunction:
    """A weight (or candidate): finite evaluator on [0, inf)^n.

    ``eval`` is vectorized over a trailing coordinate axis of length ``n``.
    ``terms`` (catalog/JSON weights) gives the closed-form conjugate (`dual`).
    The constructors, `_from_terms` and `fenchel.numeric_dual_weight`, set
    ``grid_eval`` (product grids), ``separable_profile`` (the shared per-axis
    profile, if any) and ``convex``: a positive sum of power terms and a
    conjugate (a sup of affine functions, and even) are convex and monotone
    on [0, inf)^n. A weight given only by an evaluator is never assumed so.
    ``memo_token`` names a separable numeric dual in memo keys.
    """

    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    terms: Optional[tuple[PowerTerm, ...]] = None
    grid_eval: Optional[Callable[[Sequence[np.ndarray]], np.ndarray]] = None
    separable_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None
    convex: bool = False
    memo_token: Optional[int] = None

    def symmetrized(self, x: np.ndarray) -> np.ndarray:
        """g(x) = eval(|x_1|, ..., |x_n|), even in each coordinate exactly."""
        return self.eval(np.abs(np.asarray(x, dtype=np.float64)))

    @property
    def is_separable(self) -> bool:
        return self.separable_profile is not None or self.n == 1

    def axis_profile(self) -> Callable[[np.ndarray], np.ndarray]:
        """Shared per-axis profile f with eval(x) = sum_j f(x_j); separable only."""
        if self.separable_profile is not None:
            return self.separable_profile
        if self.n == 1:
            return lambda r: self.eval(np.abs(np.asarray(r, dtype=np.float64))[..., None])
        raise ValueError(f"{self.label} is not separable")

    def eval_on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate on the product grid of per-axis node arrays."""
        if len(axes) != self.n:
            raise ValueError("axis count mismatch")
        axes = [np.abs(np.asarray(a, dtype=np.float64)) for a in axes]
        if self.grid_eval is not None:
            return self.grid_eval(axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        return self.eval(np.stack(mesh, axis=-1))

    def dual(self) -> Optional["WeightFunction"]:
        """The conjugate weight in closed form (one power term), else None."""
        if self.terms is None or len(self.terms) != 1:
            return None
        return _from_terms(self.n, [self.terms[0].dual()], self.label + "*")


def _from_terms(n: int, terms: Sequence[PowerTerm], label: str) -> WeightFunction:
    """The weight sum(terms) on n coordinates with its evaluators; it has a
    per-axis profile when every term is separable or n = 1."""
    terms = tuple(terms)

    def evaluate(x: np.ndarray) -> np.ndarray:
        x = np.abs(np.asarray(x, dtype=np.float64))
        total = np.zeros(x.shape[:-1])
        for term in terms:
            total += term.value(x)
        return total

    def grid_eval(axes: Sequence[np.ndarray]) -> np.ndarray:
        total = np.zeros(tuple(len(a) for a in axes))
        for term in terms:
            term.add_on_grid(total, axes)
        return total

    def profile(r: np.ndarray) -> np.ndarray:
        r = np.abs(np.asarray(r, dtype=np.float64))
        out = np.zeros(r.shape)
        for term in terms:
            out += term.axis_value(r)
        return out

    separable = n == 1 or all(t.separable for t in terms)
    return WeightFunction(n=n, eval=evaluate, label=label, terms=terms, grid_eval=grid_eval,
                          separable_profile=profile if separable else None, convex=True)


def _checked(n: int, terms: Sequence[PowerTerm], label: str) -> WeightFunction:
    """`_from_terms` for user input: a valid dimension, and with one term a
    valid dual term (the conjugate, `WeightFunction.dual`)."""
    # bool is an int subclass: reject True as a dimension
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise WeightSpecError(f"invalid dimension {n!r}")
    if len(terms) == 1:
        terms[0].dual()
    return _from_terms(n, terms, label)


def make_fock(n: int) -> WeightFunction:
    """Quadratic weight ||x||^2 / 2; self-conjugate."""
    return _checked(n, [PowerTerm("power", 2.0, 1.0)], f"fock:{n}")


def make_separable_power(n: int, p: float) -> WeightFunction:
    """Separable weight sum_j x_j**p / p with conjugate sum_j y_j**q / q."""
    return _checked(n, [PowerTerm("power", float(p), 1.0)], f"power:{p:g}:{n}")


def weight_from_json(source) -> WeightFunction:
    """Build a weight from the JSON form {"n": int, "terms": [...]}.

    Each term is {"type": "power"|"radial_power", "p": float, "coef": float}
    with p > 1 and coef > 0, so the result is convex, symmetric, monotone
    and superlinear by construction.
    """
    if isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # JSONDecodeError, int digit limit
            raise WeightSpecError(f"cannot read weight spec: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise WeightSpecError("weight spec must be a JSON object")
    try:
        n = obj["n"]
        raw_terms = obj["terms"]
    except (KeyError, TypeError) as exc:
        raise WeightSpecError("weight spec needs 'n' and 'terms'") from exc
    if not isinstance(raw_terms, list) or not raw_terms:
        raise WeightSpecError("'terms' must be a non-empty list")
    terms = []
    for entry in raw_terms:
        if not isinstance(entry, dict):
            raise WeightSpecError("each term must be an object")
        try:
            kind, p, coef = entry["type"], entry["p"], entry["coef"]
        except KeyError as exc:
            raise WeightSpecError(f"term missing field {exc}") from exc
        terms.append(PowerTerm(kind, p, coef))
    label = "json:" + ",".join(f"{t.kind[0]}{t.p:g}x{t.coef:g}" for t in terms)
    return _checked(n, terms, label)


def parse_preset(name: str) -> WeightFunction:
    """Presets: "fock:N" and "power:P:N"."""
    parts = name.split(":")
    try:
        if parts[0] == "fock" and len(parts) == 2:
            return make_fock(int(parts[1]))
        if parts[0] == "power" and len(parts) == 3:
            return make_separable_power(int(parts[2]), float(parts[1]))
    except ValueError as exc:
        raise WeightSpecError(f"bad preset {name!r}: {exc}") from exc
    raise WeightSpecError(f"unknown preset {name!r}")


# sampling plan of validate_class_V for an evaluator-only weight: the box
# [0, _BOX_RADIUS]^n gridded with _POINTS_PER_AXIS (>= 3) nodes per axis;
# growth probed on two spheres of radii R1 < R2 along the axes and
# _N_DIRECTIONS random directions, relative to R1 (the class is closed under
# positive scaling): c r^p / p grows by 2^(p-1) - 1 for every c, so the
# margin accepts p >= 1 + log2(1.1875) = 1.248
_BOX_RADIUS = 8.0
_POINTS_PER_AXIS = 5
_RADII = (8.0, 16.0)
_N_DIRECTIONS = 64
_GROWTH_MARGIN = 0.1875
_TOLERANCE = 1e-9
_SEED = 0


class ClassVReport(NamedTuple):
    symmetric_ok: bool
    monotone_ok: bool
    superlinear_ok: bool
    worst_violation: float


def validate_class_V(phi: WeightFunction) -> ClassVReport:
    """Certify symmetry, axis monotonicity and superlinear growth.

    A weight with terms passes without a sample: a positive sum of power
    terms with p > 1 is even, monotone and superlinear by construction. A
    weight given only by an evaluator is sampled. Failures never raise;
    they are carried in the report flags.
    """
    if phi.terms is not None:
        return ClassVReport(True, True, True, 0.0)
    rng = np.random.default_rng(_SEED)
    n = phi.n
    axis = np.linspace(0.0, _BOX_RADIUS, _POINTS_PER_AXIS)
    grid = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1).reshape(-1, n)

    # symmetry: does the raw evaluator already agree with its symmetrization?
    signs = rng.choice([-1.0, 1.0], size=grid.shape)
    flipped = grid * signs
    sym_viol = float(np.max(np.abs(np.asarray(phi.eval(flipped), dtype=float) - phi.eval(grid))))
    if not math.isfinite(sym_viol):
        sym_viol = math.inf

    # monotonicity along each axis on [0, inf)^n
    mono_viol = 0.0
    delta = _BOX_RADIUS / (2.0 * (_POINTS_PER_AXIS - 1))
    base_vals = phi.eval(grid)
    for j in range(n):
        shifted = grid.copy()
        shifted[:, j] += delta
        drop = np.max(base_vals - phi.eval(shifted))
        mono_viol = max(mono_viol, float(drop))

    # superlinearity: min over directions of g(R d)/R, positive at R1, must
    # grow from there by the margin relative to its value at R1
    dirs = np.eye(n)
    if n > 1:
        extra = np.abs(rng.standard_normal((_N_DIRECTIONS, n)))
        dirs = np.vstack([dirs, extra / np.linalg.norm(extra, axis=1, keepdims=True)])
    r1, r2 = _RADII
    ratio1 = float(np.min(phi.eval(dirs * r1) / r1))
    ratio2 = float(np.min(phi.eval(dirs * r2) / r2))
    growth = (ratio2 - ratio1) / ratio1 if ratio1 > 0 else -math.inf
    super_viol = max(0.0, _GROWTH_MARGIN - growth)

    return ClassVReport(
        symmetric_ok=sym_viol <= _TOLERANCE,
        monotone_ok=mono_viol <= _TOLERANCE,
        superlinear_ok=super_viol <= 0.0,
        worst_violation=max(sym_viol, mono_viol, super_viol, 0.0),
    )
