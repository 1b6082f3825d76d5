"""Discrete Young-Fenchel conjugation and its log-substitution identities.

Two conjugation surfaces live here:

* one grid-to-grid engine, `conjugate_values` (iterated per-axis scans on
  the lower-hull kernel of `_scan`), behind `conjugate_nd` and the numeric
  dual, used for dual tables and biconjugation, per axis for sums of profiles;
* per-point truncated sups (`truncated_sup`, `log_conj`)
  over decay-budget boxes, used by the identity verifier
  (`verify_identities`) and by the Laplace/moment modules. Every line sup
  is a row of one batched solver, `_sup_lines`; a check loop first hands
  its points to `prefetch_sups` (which raises no numeric failure), so its
  per-point calls read the memo. The curvature at a maximizer stays three
  0-d profile calls; separable numeric duals are memoized under a token.

The grid transforms compute the exact max over sample nodes (lower
conjugate), which keeps the Fenchel-Young inequality exact at nodes and
gives the tests' brute-force oracle a well-defined target. The per-point sups
additionally lift the argmax node through a parabolic fit so their error
is smooth in the grid step instead of alignment-quantized.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ._scan import Hull, conjugate_lines
from ._supline import _EXPAND_CAP, DivergenceError, _sup_line, _sup_lines
from .config import CONJ_STEP, DECAY_BUDGET, DEFAULT, T_FLOOR, NumericsConfig
from .weights import WeightFunction, add_on_axes


# ---------------------------------------------------------------------------
# sampled functions on uniform tensor grids


class GridAxis(namedtuple("GridAxis", "lo hi count")):
    """Uniform 1-D grid with count >= 2 nodes on [lo, hi]."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float, count: int):
        if count < 2:
            raise ValueError("grid needs at least 2 nodes")
        if not hi > lo:
            raise ValueError("grid axis must be strictly increasing")
        return super().__new__(cls, lo, hi, count)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.count - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


class SampledFunction(namedtuple("SampledFunction", "axes values parts")):
    """Tensor-grid sampling of a scalar function on a box; ``parts``, for a sum
    of per-axis profiles, holds one sample vector per axis (`separable`)."""

    __slots__ = ()

    def __new__(cls, axes: tuple[GridAxis, ...], values: np.ndarray,
                parts: Optional[tuple[np.ndarray, ...]] = None):
        shape = tuple(a.count for a in axes)
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} != grid shape {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite at every node")
        return super().__new__(cls, axes, values, parts)

    @classmethod
    def separable(cls, axes: Sequence[GridAxis], parts: Sequence[np.ndarray]):
        return cls(axes, add_on_axes(np.zeros([a.count for a in axes]), parts), tuple(parts))

    @property
    def n(self) -> int:
        return len(self.axes)


# ---------------------------------------------------------------------------
# objectives evaluatable on product grids


@dataclass
class GridFn:
    """Function of n variables evaluatable both pointwise and on product grids.

    ``axis_profiles`` is set when the function splits as a sum of 1-D
    profiles, which unlocks the exact per-axis conjugation fast path.
    ``key`` names the function by value (see `_weight_image`); sups, volumes
    and integrals of a keyed function are memoized on it (see `memoized`).
    A keyed separable function has the same profile on every axis.
    ``convex`` is set when the function is convex by construction, so that
    <y, t> - fn(t) is concave in t for every y (see `_sup_line`).
    """

    n: int
    at: Callable[[np.ndarray], np.ndarray]
    on_axes: Callable[[Sequence[np.ndarray]], np.ndarray]
    axis_profiles: Optional[tuple[Callable[[np.ndarray], np.ndarray], ...]] = None
    key: Optional[tuple] = None
    convex: bool = False


def _weight_image(w: WeightFunction, kind: str, at, on_axes,
                  profile=lambda prof: prof) -> GridFn:
    """The image ``kind`` ("sym" or "log") of the weight ``w``: it splits over
    the axes when ``w`` does (``profile`` maps w's axis profile to its own)
    and is convex when ``w`` is. Its key is w's terms, which define the
    evaluators (fock:N and its structural dual fock:N* give one key), or a
    separable numeric dual's token; any other weight (a non-separable
    numeric dual, a custom evaluator) gives none."""
    profiles = (profile(w.axis_profile()),) * w.n if w.is_separable else None
    name = w.terms if w.terms is not None else w.memo_token
    return GridFn(n=w.n, at=at, on_axes=on_axes, axis_profiles=profiles,
                  key=None if name is None else (kind, (w.n, name)), convex=w.convex)


def symmetrized_fn(w: WeightFunction) -> GridFn:
    """The even extension g(x) = eval(abs x) as a grid function on R^n; it is
    convex when w is convex and nondecreasing on [0, inf)^n."""
    return _weight_image(w, "sym", w.symmetrized, w.eval_on_axes)


def _of_exp(f: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """t -> f(e^t), with e^t overflowing to inf."""

    def g(t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return f(np.exp(np.asarray(t, dtype=np.float64)))

    return g


def log_image(w: WeightFunction) -> GridFn:
    """The log substitution t -> eval(e^{t_1}, ..., e^{t_n}); it is convex
    when w is convex and nondecreasing on [0, inf)^n."""

    def on_axes(axes: Sequence[np.ndarray]) -> np.ndarray:
        with np.errstate(over="ignore"):
            return w.eval_on_axes([np.exp(np.asarray(a)) for a in axes])

    return _weight_image(w, "log", _of_exp(w.eval), on_axes, _of_exp)


def scale_fn(fn: GridFn, c: float) -> GridFn:
    profiles = None
    if fn.axis_profiles is not None:
        profiles = tuple((lambda t, p=p: c * p(t)) for p in fn.axis_profiles)
    return GridFn(
        n=fn.n,
        at=lambda x: c * fn.at(x),
        on_axes=lambda axes: c * fn.on_axes(axes),
        axis_profiles=profiles,
        key=None if fn.key is None else ("scale", fn.key, float(c)),
        convex=fn.convex and c > 0,
    )


def key_terms(key: tuple) -> tuple[int, int]:
    """The number of terms of the weight a keyed grid function is made from
    (a numeric dual counts one: its grid sums one hull value per axis), and
    how many times `scale_fn` scaled it."""
    scalings = 0
    while key[0] == "scale":
        key, scalings = key[1], scalings + 1
    name = key[1][1]
    return len(name) if isinstance(name, tuple) else 1, scalings


def tilt(tensor: np.ndarray, y, axes: Sequence[np.ndarray], sign: float = 1.0) -> np.ndarray:
    """Add ``sign * y_j * a_j`` along axis j of a product-grid tensor, for
    every axis j, in place, and return the tensor.

    The caller owns ``tensor``: pass an array it made (``-fn.on_axes(...)``,
    ``fn.on_axes(...) + c``), never one that an evaluator returned. With
    sign -1 the floats equal those of ``tensor - y_j * a_j``.
    """
    return add_on_axes(tensor, [sign * y[j] * np.asarray(a) for j, a in enumerate(axes)])


# ---------------------------------------------------------------------------
# grid-to-grid conjugation


def _scan_axis(nodes: np.ndarray, tensor: np.ndarray, dual_nodes: np.ndarray,
               axis: int) -> np.ndarray:
    """Apply the 1-D scan along ``axis``: max over nodes of x*node - tensor."""
    moved = np.moveaxis(tensor, axis, -1)
    lead = moved.shape[:-1]
    rows = np.ascontiguousarray(moved.reshape(-1, moved.shape[-1]))
    out = conjugate_lines(nodes, rows, np.asarray(dual_nodes, dtype=np.float64))
    return np.moveaxis(out.reshape(lead + (len(dual_nodes),)), -1, axis)


def conjugate_values(axes_nodes: Sequence[np.ndarray], values: np.ndarray,
                     dual_nodes: Sequence[np.ndarray]) -> np.ndarray:
    """Discrete conjugate on arbitrary ascending node arrays.

    Returns max over all primal grid nodes x of <xi, x> - values(x), for xi
    on the product of ``dual_nodes``, via iterated per-axis scans (the
    iterated max over a product grid factors exactly).
    """
    n = len(axes_nodes)
    if n != len(dual_nodes):
        raise ValueError("dual grid dimension mismatch")
    t = np.asarray(values, dtype=np.float64)
    for j in range(n):
        if j > 0:
            t = -t
        t = _scan_axis(np.asarray(axes_nodes[j], dtype=np.float64), t, dual_nodes[j], j)
    return t


def conjugate_nd(f: SampledFunction, dual_grid: Sequence[GridAxis]) -> SampledFunction:
    """n-dimensional discrete conjugate by iterated per-axis scans, one part at
    a time for an ``f`` with ``parts`` (equal up to roundoff; the dual has parts)."""
    dual_grid = tuple(dual_grid)
    if len(dual_grid) != f.n:
        raise ValueError("dual grid dimension mismatch")
    if f.parts is not None:
        return SampledFunction.separable(dual_grid, [
            conjugate_values([a.nodes()], part, [g.nodes()])
            for a, part, g in zip(f.axes, f.parts, dual_grid)])
    return SampledFunction(dual_grid, conjugate_values(
        [a.nodes() for a in f.axes], f.values, [g.nodes() for g in dual_grid]))


# ---------------------------------------------------------------------------
# per-point truncated sups


class SupResult(namedtuple("SupResult", "value argmax lo hi curvature")):
    """Truncated sup of a concave objective with its decay box.

    The arrays are made read-only: the memo hands one result to every caller.
    """

    __slots__ = ()

    def __new__(cls, value: float, argmax: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                curvature: np.ndarray):
        for a in (argmax, lo, hi, curvature):
            a.flags.writeable = False
        return super().__new__(cls, value, argmax, lo, hi, curvature)


# Per-process memo of sups, sublevel volumes and Laplace integrals of keyed
# objectives, and of the 1-D line sups of keyed separable objectives, one per
# axis coordinate (see `_truncated_sup`); each entry is a small result object,
# and a run holds a few hundred of them.
_MEMO: dict = {}


def memoized(fn_key: Optional[tuple], inputs: tuple, compute: Callable[[], object]):
    """``compute()``, computed once per process for each objective key and
    the remaining ``inputs`` that decide its result; an objective without a
    key (``fn_key`` None) is never memoized."""
    if fn_key is None:
        return compute()
    key = (fn_key,) + inputs
    try:
        return _MEMO[key]
    except KeyError:
        out = _MEMO[key] = compute()
        return out


def value_bytes(a) -> bytes:
    """An array's float64 value as a memo key component (-0.0 and 0.0 differ)."""
    return np.asarray(a, dtype=np.float64).tobytes()


def _finite(vals: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(vals), vals, -np.inf)


def _coordinate_argmax(fn: GridFn, y: np.ndarray, floor: Optional[float]) -> np.ndarray:
    """Approximate maximizer of <y, t> - fn(t) by per-coordinate bisection
    on the sign of the directional derivative (concave objectives)."""
    n = fn.n
    t = np.zeros(n)
    h = 1e-5
    lo_default = floor if floor is not None else -_EXPAND_CAP

    def dpsi(j: int, tj: float) -> float:
        a = t.copy()
        a[j] = tj + h
        b = t.copy()
        b[j] = tj - h
        return float(y[j] - (fn.at(a) - fn.at(b)) / (2 * h))

    for _ in range(5):
        for j in range(n):
            lo, hi = lo_default, 2.0
            if dpsi(j, lo) <= 0.0:
                t[j] = lo
                continue
            while dpsi(j, hi) > 0.0:
                hi = hi * 2 if hi >= 1 else hi + 2
                if hi > _EXPAND_CAP:
                    raise DivergenceError("no finite maximizer (superlinearity fails)")
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if dpsi(j, mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            t[j] = 0.5 * (lo + hi)
    return t


def _axis_box(fn: GridFn, t_star: np.ndarray, y: np.ndarray,
              floor: Optional[float]) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis decay box around the maximizer for the full objective."""
    n = fn.n
    psi_star = float(np.dot(y, t_star) - fn.at(t_star))
    lo = np.empty(n)
    hi = np.empty(n)
    for j in range(n):
        for sign, store in ((1.0, "hi"), (-1.0, "lo")):
            d = 0.5
            while True:
                probe = t_star.copy()
                probe[j] += sign * d
                if floor is not None and sign < 0 and probe[j] <= floor:
                    edge = floor
                    break
                val = float(np.dot(y, probe) - fn.at(probe))
                if not math.isfinite(val) or val <= psi_star - DECAY_BUDGET:
                    edge = probe[j]
                    break
                d *= 2.0
                if d > _EXPAND_CAP:
                    raise DivergenceError("objective does not decay (superlinearity fails)")
            if store == "hi":
                hi[j] = edge
            else:
                lo[j] = edge
    return lo, hi


def _peak_curvature(fn: GridFn, t_star: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|second difference| of the objective along each axis at the maximizer."""
    n = fn.n
    h = 1e-3
    out = np.empty(n)
    mid = float(np.dot(y, t_star) - fn.at(t_star))
    for j in range(n):
        a = t_star.copy()
        a[j] += h
        b = t_star.copy()
        b[j] -= h
        va = float(np.dot(y, a) - fn.at(a))
        vb = float(np.dot(y, b) - fn.at(b))
        out[j] = abs(va + vb - 2 * mid) / h**2
    return out


def _curvature(prof: Callable[[np.ndarray], np.ndarray], tj: float) -> float:
    """|second difference| of a profile at ``tj``, from three 0-d calls: a
    0-d call can round apart from an array call (a scalar ``r ** p``)."""
    h = 1e-3
    return abs(
        float(prof(np.array(tj + h)) + prof(np.array(tj - h)) - 2 * prof(np.array(tj)))
    ) / h**2


def truncated_sup(fn: GridFn, y, cfg: NumericsConfig = DEFAULT,
                  floor: Optional[float] = None) -> SupResult:
    """sup over t of <y, t> - fn(t), truncated to the decay-budget box.

    Separable objectives are maximized axis by axis (exact factorization);
    otherwise the box is gridded and the max taken over nodes. Computed
    once per process for each keyed ``fn`` and each (y, cfg, floor).
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape != (fn.n,):
        raise ValueError("dual point dimension mismatch")
    return memoized(fn.key, ("sup", value_bytes(y), cfg, floor),
                    lambda: _truncated_sup(fn, y, cfg, floor))


def _truncated_sup(fn: GridFn, y: np.ndarray, cfg: NumericsConfig,
                   floor: Optional[float]) -> SupResult:
    if fn.axis_profiles is not None:
        step = cfg.step_for(fn.n, separable=True)

        def line(prof, yj):
            got, = _sup_lines(prof, [yj], step, floor, fn.convex)
            if isinstance(got, DivergenceError):
                raise got
            return got + (_curvature(prof, got[1]),)

        # every axis of a keyed function has one profile, so a line depends on
        # the axis coordinate alone
        lines = [memoized(fn.key, ("line", value_bytes(y[j]), cfg, floor),
                          lambda p=prof, yj=y[j]: line(p, yj))
                 for j, prof in enumerate(fn.axis_profiles)]
        total = 0.0
        for got in lines:
            total += got[0]
        arg, lo, hi, curv = (np.array(col) for col in list(zip(*lines))[1:])
        return SupResult(total, arg, lo, hi, curv)

    # every weight sets axis_profiles at n = 1 (it is separable there), so
    # only hand-built functions reach the tensor path in one dimension
    step = cfg.step_for(fn.n, separable=False)
    t_star = _coordinate_argmax(fn, y, floor)
    lo, hi = _axis_box(fn, t_star, y, floor)
    axes = []
    total_nodes = 1
    for j in range(fn.n):
        intervals = 1 << max(1, math.ceil(math.log2((hi[j] - lo[j]) / step)))
        axes.append(np.linspace(lo[j], hi[j], intervals + 1))
        total_nodes *= intervals + 1
    if total_nodes > 6e7:
        raise ValueError("probe box too large; coarsen the conjugation step")
    psi = _finite(tilt(-fn.on_axes(axes), y, axes))
    flat = int(np.argmax(psi))
    idx = np.unravel_index(flat, psi.shape)
    arg = np.array([axes[j][idx[j]] for j in range(fn.n)])
    return SupResult(float(psi[idx]), arg, lo, hi, _peak_curvature(fn, arg, y))


def prefetch_sups(fn: GridFn, ys, cfg: NumericsConfig = DEFAULT,
                  floor: Optional[float] = None) -> None:
    """Store the sups of a keyed separable ``fn`` at the dual points ``ys``
    in the memo, under `truncated_sup`'s keys and with its floats, for a
    loop that then reads them there: the lines the memo lacks in one
    `_sup_lines` call (their curvature from 0-d calls, as a point's own
    solve), then each point from its lines. Any other ``fn`` is left alone.
    It raises no numeric failure: a line that fails is left to the loop's
    own call."""
    if fn.key is None or fn.axis_profiles is None:
        return
    try:
        ys = np.asarray(ys, dtype=np.float64).reshape(-1, fn.n)
        if not np.isfinite(ys).all():
            return
        prof, step = fn.axis_profiles[0], cfg.step_for(fn.n, separable=True)
        raw = ys.tobytes()  # each coordinate's and each point's `value_bytes`
        coords = [raw[i:i + 8] for i in range(0, len(raw), 8)]
        lines = {c: (fn.key, "line", c, cfg, floor) for c in coords}
        todo = [c for c, key in lines.items() if key not in _MEMO]
        if todo:
            solved = _sup_lines(prof, np.frombuffer(b"".join(todo)), step, floor, fn.convex)
            for c, got in zip(todo, solved):
                if not isinstance(got, DivergenceError):
                    _MEMO[lines[c]] = got + (_curvature(prof, got[1]),)
        for r, y in enumerate(ys):
            point = coords[r * fn.n:(r + 1) * fn.n]
            if all(lines[c] in _MEMO for c in point):
                memoized(fn.key, ("sup", b"".join(point), cfg, floor),
                         lambda: _truncated_sup(fn, y, cfg, floor))
    except (ArithmeticError, RuntimeError, ValueError):
        # a numeric failure on the batch (a profile that overflows, a numeric
        # dual's extent sup that diverges): the loop's own calls raise it
        return


# ---------------------------------------------------------------------------
# numeric duals (weights without a closed-form conjugate)


class _NumericDual:
    """Conjugate of a weight evaluated through hull queries of its samples."""

    def __init__(self, w: WeightFunction, cfg: NumericsConfig):
        self.w = w
        self.cfg = cfg
        self.n = w.n
        # (nodes, values, hull): the axis profile on [0, extent] with its lower
        # hull for a separable weight; else one node axis, the weight on its
        # n-fold product grid, and no hull
        self._samples: Optional[tuple[np.ndarray, np.ndarray, Optional[Hull]]] = None
        # largest r_max the table is known to serve: the extent grows with
        # r_max, so a query at or below it needs no extent sup
        self._reach = -math.inf

    def _primal_extent(self, r_max: float) -> float:
        if self.w.is_separable:
            prof = self.w.axis_profile()
            _, _, _, hi = _sup_line(lambda t: max(r_max, 1.0) * t - prof(t),
                                    step=0.5, floor=0.0)
            return hi
        slope = max(r_max * self.n, 1.0)
        _, _, _, hi = _sup_line(
            lambda t: slope * t - self.w.eval(np.repeat(t[:, None], self.n, axis=1)),
            step=0.5, floor=0.0,
        )
        return hi

    def _table(self, r_max: float) -> tuple[np.ndarray, np.ndarray, Optional[Hull]]:
        """Samples reaching far enough for duals up to ``r_max``; they are
        rebuilt only when the extent grows."""
        if not r_max <= self._reach:
            extent = self._primal_extent(r_max)
            if self._samples is None or self._samples[0][-1] < extent - 1e-12:
                sep = self.w.is_separable
                # a non-separable weight is sampled at the unrefined n = 2
                # step, whatever its dimension and ``refine``
                step = (self.cfg.step_for(1, separable=True) if sep
                        else max(CONJ_STEP[1], extent / 1200))
                nodes = np.linspace(0.0, extent, int(math.ceil(extent / step)) + 1)
                vals = (self.w.axis_profile()(nodes) if sep
                        else self.w.eval_on_axes([nodes] * self.n))
                self._samples = (nodes, vals, Hull(nodes, vals) if sep else None)
            self._reach = r_max
        return self._samples

    def profile(self, r: np.ndarray) -> np.ndarray:
        """Per-axis conjugate at |r|, for separable weights."""
        r = np.abs(np.asarray(r, dtype=np.float64))
        _, _, hull = self._table(float(r.max()) if r.size else 1.0)
        return hull.conjugate(r)

    def eval(self, pts: np.ndarray) -> np.ndarray:
        pts = np.abs(np.asarray(pts, dtype=np.float64))
        out_shape = pts.shape[:-1]
        flat = pts.reshape(-1, self.n)
        r_max = float(flat.max()) if flat.size else 1.0
        p_nodes, vals, hull = self._table(r_max)
        if hull is not None:
            total = np.zeros(flat.shape[0])
            for j in range(self.n):
                total += hull.conjugate(flat[:, j])
            return total.reshape(out_shape)
        mesh = np.meshgrid(*([p_nodes] * self.n), indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=1)
        flat_vals = vals.ravel()
        out = np.empty(flat.shape[0])
        for start in range(0, flat.shape[0], 512):
            block = flat[start:start + 512]
            out[start:start + 512] = np.max(block @ nodes.T - flat_vals, axis=1)
        return out.reshape(out_shape)

    def eval_on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        axes = [np.abs(np.asarray(a, dtype=np.float64)) for a in axes]
        r_max = max(float(a.max()) for a in axes)
        p_nodes, vals, hull = self._table(r_max)
        if hull is not None:
            return add_on_axes(np.zeros(tuple(len(a) for a in axes)),
                               [hull.conjugate(a) for a in axes])
        return conjugate_values([p_nodes] * self.n, vals, axes)


# the memo tokens of separable numeric duals: drawn once each, never reused
_DUAL_TOKENS = itertools.count()


def numeric_dual_weight(w: WeightFunction, cfg: NumericsConfig = DEFAULT) -> WeightFunction:
    """Conjugate weight computed from sampled hulls (no closed form needed).
    A separable one is memoized under a token drawn here (never a reference
    to it): its table is a prefix of one fixed grid, so no value moves as it
    grows. A non-separable table is resampled as it grows: no token."""
    nd = _NumericDual(w, cfg)
    return WeightFunction(
        n=w.n,
        eval=nd.eval,
        label=w.label + "*",
        grid_eval=nd.eval_on_axes,
        # the conjugate of a sum of per-axis profiles is the per-axis conjugate sum
        separable_profile=nd.profile if w.is_separable else None,
        convex=True,
        memo_token=next(_DUAL_TOKENS) if w.is_separable else None,
    )


def dual_weight(w: WeightFunction, cfg: NumericsConfig = DEFAULT) -> WeightFunction:
    """The conjugate weight: the closed form `WeightFunction.dual` when there
    is one, else numeric."""
    structural = w.dual()
    return structural if structural is not None else numeric_dual_weight(w, cfg)


# ---------------------------------------------------------------------------
# the log-substituted conjugates and the identity verifier


def _check_probe(x: np.ndarray, n: int) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (n,):
        raise ValueError(f"probe must have {n} coordinates")
    if np.any(x < 0):
        raise ValueError("probe outside [0, inf)^n: the conjugate is +inf there")
    return x


def log_conj(w: WeightFunction, x, cfg: NumericsConfig = DEFAULT) -> float:
    """(u[e])^*(x) = sup_t (<x, t> - u(e^t)) for x in [0, inf)^n."""
    x = _check_probe(x, w.n)
    return truncated_sup(log_image(w), x, cfg, floor=T_FLOOR).value


def entropy_sum(x: np.ndarray) -> float:
    """sum over nonzero coordinates of x_j ln x_j - x_j."""
    x = np.asarray(x, dtype=np.float64)
    nz = x[x > 0]
    return float(np.sum(nz * np.log(nz) - nz))


class IdentityReport(NamedTuple):
    points: tuple[tuple[float, ...], ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    max_abs_residual: float
    max_positive_residual: float


def verify_identities(u: WeightFunction, points,
                      cfg: NumericsConfig = DEFAULT) -> IdentityReport:
    """The sum of log-substituted conjugates against the entropy sum at each
    probe: lhs = (u[e])^*(x) + (u^*[e])^*(x), rhs = sum_j x_j ln x_j - x_j.

    One report carries both verdicts. ``max_positive_residual`` is the
    one-sided check of Prop. 3: lhs never exceeds rhs, for any continuous
    superlinear u. ``max_abs_residual`` is the two-sided check of
    Props. 6-7: for convex symmetric monotone weights lhs equals rhs,
    including boundary probes (some x_j = 0) and the origin.
    """
    w_dual = dual_weight(u, cfg)
    for w in (u, w_dual):
        prefetch_sups(log_image(w), points, cfg, T_FLOOR)
    pts = []
    lhs = []
    rhs = []
    for x in points:
        x = _check_probe(x, u.n)
        left = log_conj(u, x, cfg) + log_conj(w_dual, x, cfg)
        pts.append(tuple(float(v) for v in x))
        lhs.append(left)
        rhs.append(entropy_sum(x))
    resid = np.array(lhs) - np.array(rhs)
    return IdentityReport(
        points=tuple(pts),
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        max_abs_residual=float(np.max(np.abs(resid))),
        max_positive_residual=float(max(np.max(resid), 0.0)),
    )


class DivergenceProfile(NamedTuple):
    rows: tuple[tuple[float, float], ...]
    witness_sups: tuple[float, ...]


def divergence_profile(u: WeightFunction, directions, radii,
                       cfg: NumericsConfig = DEFAULT) -> DivergenceProfile:
    """Growth profile of the log-substituted conjugate.

    For each radius r: min over the given nonnegative unit directions d of
    (u[e])^*(r d) / r (superlinear growth of the conjugate). Also witnesses
    divergence outside [0, inf)^n: the running sup of <x, t> - u(e^t) over
    expanding boxes for a probe x with a negative coordinate.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    dirs = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if dirs.shape[1] != u.n:
        raise ValueError("direction dimension mismatch")
    norms = np.linalg.norm(dirs, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero direction rejected")
    if np.any(dirs < 0):
        raise ValueError("directions must lie in [0, inf)^n")
    dirs = dirs / norms[:, None]

    prefetch_sups(log_image(u), [r * d for r in radii for d in dirs], cfg, T_FLOOR)
    rows = []
    for r in radii:
        ratios = [log_conj(u, r * d, cfg) / r for d in dirs]
        rows.append((r, float(min(ratios))))

    witness = np.zeros(u.n)
    witness[0] = -1.0
    fn = log_image(u)
    sups = []
    for r in radii:
        if fn.axis_profiles is not None:
            total = 0.0
            for j, prof in enumerate(fn.axis_profiles):
                t = np.linspace(-r, r, max(int(2 * r / 0.01) + 1, 9))
                total += float(np.max(witness[j] * t - prof(t)))
            sups.append(total)
        else:
            axes = [np.linspace(-r, r, 201)] * u.n
            sups.append(float(tilt(-fn.on_axes(axes), witness, axes).max()))
    return DivergenceProfile(rows=tuple(rows), witness_sups=tuple(sups))
