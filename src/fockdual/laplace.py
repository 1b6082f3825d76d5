"""Sublevel sets of the Fenchel-Young gap, their volumes, and the
two-sided volume-based bounds for Laplace integrals.

The central objects: for a convex h and dual point y with finite h*(y),
the set D = {x : h(x) + h*(y) - <x, y> <= p} collects the points where the
Fenchel-Young inequality is nearly tight; its volume brackets the integral
of e^{<x,y> - h(x)} between e^{-1} V e^{h*(y)} and (1 + n!) V e^{h*(y)}.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .config import (DECAY_BUDGET, DEFAULT, MC_SAMPLES, QUAD_MAX_NODES, QUAD_PEAK_NODES,
                     TENSOR_NODES_MAX, VOLUME_CELLS, NumericsConfig, by_dim)
from .fenchel import (DivergenceError, GridFn, SupResult, key_terms, memoized, tilt,
                      truncated_sup, value_bytes)


@dataclass(frozen=True)
class SublevelSpec:
    """Membership data for D_y(p) = {x : h(x) + h*(y) - <x, y> <= p}."""

    h: GridFn
    y: np.ndarray
    p: float
    hstar_y: float
    argmax: np.ndarray

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("slack p must be positive")
        if not math.isfinite(self.hstar_y):
            raise ValueError("h*(y) must be finite (y inside the dual domain)")


def make_sublevel_spec(h: GridFn, y, p: float,
                       cfg: NumericsConfig = DEFAULT) -> SublevelSpec:
    """Compute h*(y) by truncated sup and package the sublevel membership."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    sup = truncated_sup(h, y, cfg)
    return SublevelSpec(h=h, y=y, p=float(p), hstar_y=sup.value, argmax=sup.argmax)


class VolumeEstimate(namedtuple("VolumeEstimate", "value half_width")):
    __slots__ = ()

    def __new__(cls, value: float, half_width: float):
        if value < 0 or half_width < 0:
            raise ValueError("volume and error bound must be nonnegative")
        return super().__new__(cls, value, half_width)


_MAX_EXPANSIONS = 200


def _bounding_box(spec: SublevelSpec, probe_per_axis: int = 17) -> tuple[np.ndarray, np.ndarray]:
    """Expand a box from the gap minimizer until every face is outside D,
    probing both faces of an axis in one call (a numeric dual's table grows on
    the largest |r| read: for a log image the hi face, as in a one-face probe).
    A face holds 2 probe_per_axis^(n - 1) nodes; past `TENSOR_NODES_MAX` it
    raises a ValueError before any is built. A face of a keyed separable 2-D
    ``spec.h`` is decided from per-axis parts where they can (`_separable_faces`)."""
    n = spec.h.n
    face_nodes = 2 * probe_per_axis ** (n - 1)
    if face_nodes > TENSOR_NODES_MAX:
        raise ValueError(f"the sublevel bounding-box face probe needs {face_nodes} nodes at "
                         f"n = {n}, past the tensor-grid budget of {TENSOR_NODES_MAX:.0e}")
    lo = spec.argmax - 1.0
    hi = spec.argmax + 1.0
    for _ in range(_MAX_EXPANSIONS):
        grew = False
        for j in range(n):
            member = _separable_faces(spec, j, lo, hi, probe_per_axis) if _per_axis(spec) else None
            if member is None:
                axes = [np.array([lo[i], hi[i]]) if i == j
                        else np.linspace(lo[i], hi[i], probe_per_axis) for i in range(n)]
                member = np.moveaxis(_membership(spec, axes), j, 0).reshape(2, -1).any(axis=1)
            width = hi[j] - lo[j]
            if member[1]:
                hi[j] += 0.5 * width
            if member[0]:
                lo[j] -= 0.5 * width
            grew = grew or bool(member.any())
        if not grew:
            return lo, hi
    raise DivergenceError(
        "sublevel set appears unbounded (h not superlinear or y outside dual domain)"
    )


def _membership(spec: SublevelSpec, axes: Sequence[np.ndarray]) -> np.ndarray:
    return tilt(spec.h.on_axes(list(axes)) + spec.hstar_y, spec.y, axes, -1.0) <= spec.p


def _cells(member: np.ndarray) -> tuple[int, int]:
    """Member and surface cell counts of a membership grid; a surface cell
    has a neighbour along some axis with the other membership."""
    n = member.ndim
    surface = np.zeros_like(member)
    for j in range(n):
        ahead = [slice(None)] * n
        behind = [slice(None)] * n
        ahead[j] = slice(1, None)
        behind[j] = slice(None, -1)
        flip = member[tuple(ahead)] != member[tuple(behind)]
        surface[tuple(ahead)] |= flip
        surface[tuple(behind)] |= flip
    return int(np.count_nonzero(member)), int(np.count_nonzero(surface))


def _spread(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min and max of each entry of ``u`` and its neighbours."""
    e = np.concatenate((u[:1], u, u[-1:]))
    return (np.minimum(np.minimum(e[:-2], e[1:-1]), e[2:]),
            np.maximum(np.maximum(e[:-2], e[1:-1]), e[2:]))


class _AxisPart(NamedTuple):
    """A vector, its summands' summed moduli and their max (finite only if every
    value is), its stable sort order and sorted values, and `_spread`, also sorted."""

    values: np.ndarray
    modulus: np.ndarray
    widest: float
    order: np.ndarray
    sorted: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    lo_sorted: np.ndarray
    hi_sorted: np.ndarray


def _part(values: np.ndarray, modulus: np.ndarray) -> _AxisPart:
    order = np.argsort(values, kind="stable")
    lo, hi = _spread(values)
    return _AxisPart(values, modulus, float(np.max(modulus)), order, values[order],
                     lo, hi, np.sort(lo), np.sort(hi))


def _threshold_cells(c: np.ndarray, c_sorted: np.ndarray, at: np.ndarray,
                     v: _AxisPart) -> tuple[int, int]:
    """`_cells` of the grid member[i, k] = v[k] <= c[i], from c, its sorted
    values, at = searchsorted(v.sorted, c, "right") and v's part.

    Cell (i, k) differs from a neighbour along axis 0 iff v[k] lies in
    (min, max] of c over i and its neighbours (case A), and along axis 1
    iff c[i] lies in [min, max) of v over k and its neighbours (case B).
    Both cases are counted by binary search (searchsorted is monotone, so
    row i of A spans the `_spread` of ``at``); the cells of A, as many as
    the surface has, are listed and tested for B.
    """
    first, last = _spread(at)
    lengths = last - first
    in_b = int(np.searchsorted(c_sorted, v.hi_sorted, "left").sum()
               - np.searchsorted(c_sorted, v.lo_sorted, "left").sum())
    # the cells of A: row i holds the sorted positions first[i], ...,
    # first[i] + lengths[i] - 1
    rows = np.repeat(np.arange(c.shape[0]), lengths)
    offsets = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    ks = v.order[offsets + np.arange(rows.shape[0])]
    ci = c[rows]
    in_both = int(np.count_nonzero((v.lo[ks] <= ci) & (ci < v.hi[ks])))
    return int(at.sum()), int(lengths.sum()) + in_b - in_both


def _per_axis(spec: SublevelSpec) -> bool:
    """Whether ``spec.h`` takes the per-axis parts of `sublevel_volume`."""
    return spec.h.n == 2 and spec.h.key is not None and spec.h.axis_profiles is not None


def _centres(lo: float, hi: float, cells: int) -> np.ndarray:
    return lo + (hi - lo) / cells * (np.arange(cells) + 0.5)


def _axis_part(spec: SublevelSpec, j: int, lo: float, hi: float, count: int,
               centred: bool) -> _AxisPart:
    """The part f(a) - y_j a of axis j on the ``count`` cell centres of
    [lo, hi] (``centred``) or on ``np.linspace(lo, hi, count)``, memoized
    (key space ``"volume_part"``) on the keyed ``spec.h`` and the axis's
    coordinate, box and nodes: a keyed function has one profile on every axis."""
    y = spec.y[j]

    def compute() -> _AxisPart:
        a = _centres(lo, hi, count) if centred else np.linspace(lo, hi, count)
        prof = spec.h.axis_profiles[j](a)
        tilt_term = -y * a
        return _part(prof + tilt_term, np.abs(prof) + np.abs(tilt_term))

    return memoized(spec.h.key, ("volume_part", value_bytes(y), value_bytes([lo, hi]),
                                 count, centred), compute)


def _tolerance(spec: SublevelSpec, modulus) -> np.ndarray:
    """Twice the bound on how far v - c may lie from the grid path's gap float,
    for the summed moduli ``modulus`` of two parts (see `sublevel_volume`)."""
    # the grid path's gap float rounds at most m times: 2 * terms sums of the
    # power terms of both axes (`weights.PowerTerm.add_on_grid`), one product
    # per scaling, then h*(y) and the two tilts; each part rounds fewer
    terms, scalings = key_terms(spec.h.key)
    m = 2 * terms + scalings + 3
    u = 2.0 ** -53  # the unit roundoff of float64
    # 2 gamma_m times the summed moduli of the inputs, with a safety factor
    # of 2 (it also covers the rounding of v - c)
    return 4 * (m * u / (1 - m * u)) * (abs(spec.p) + abs(spec.hstar_y) + modulus)


def _separable_faces(spec: SublevelSpec, j: int, lo: np.ndarray, hi: np.ndarray,
                     probes: int) -> Optional[np.ndarray]:
    """Membership of the lo and hi faces of axis j in 2-D: a face is a member iff
    the least value of the other axis's probe part lies at or below its c, or
    None when that value lies within the bound of either c."""
    i = 1 - j
    face = _axis_part(spec, j, lo[j], hi[j], 2, False)
    probe = _axis_part(spec, i, lo[i], hi[i], probes, False)
    least = float(probe.sorted[0])
    c = [(spec.p - spec.hstar_y) - value for value in face.values.tolist()]
    # a part that is not finite has an infinite or NaN bound, which decides nothing
    if not all(math.isfinite(x) and abs(x - least) > _tolerance(spec, m + probe.widest)
               for x, m in zip(c, face.modulus.tolist())):
        return None
    return np.array([least <= x for x in c])


def _separable_cells(spec: SublevelSpec, lo: np.ndarray, hi: np.ndarray,
                     cells: int) -> Optional[tuple[int, int]]:
    """`_cells` of the 2-D membership grid of a keyed separable function from
    the cell parts of its two axes, or None when a cell is too close to the
    threshold to be certified (see `sublevel_volume`)."""
    p0, p1 = (_axis_part(spec, j, lo[j], hi[j], cells, True) for j in range(2))
    k = spec.p - spec.hstar_y
    c = k - p0.values
    if not (math.isfinite(p1.widest) and np.all(np.isfinite(c))):
        return None
    at = np.searchsorted(p1.sorted, c, "right")
    # the nearest v on either side of c[i]: p1.sorted[at - 1] <= c[i] < p1.sorted[at]
    near = np.concatenate(([-np.inf], p1.sorted, [np.inf]))
    if np.any(np.minimum(c - near[at], near[at + 1] - c)
              <= _tolerance(spec, p0.modulus + p1.widest)):
        return None
    # x -> fl(k - x) is monotone, so c sorted is p0 sorted, mirrored
    return _threshold_cells(c, k - p0.sorted[::-1], at, p1)


def sublevel_volume(spec: SublevelSpec) -> VolumeEstimate:
    """Volume of D_y(p): cell counting for n <= 3, Monte-Carlo beyond.

    The grid has `VOLUME_CELLS` cells per axis and counts those whose
    centers satisfy the membership predicate; its half_width is the total
    volume of surface cells (cells adjacent to a membership flip). A count
    of 0 bounds nothing (the set lies between the centres, so no cell is
    on its surface either): it raises a ValueError. Monte-Carlo always
    draws `MC_SAMPLES` points of one fixed stream and reports a 99% Wilson
    interval scaled by the bounding-box volume. Computed once per process
    for each keyed ``spec.h`` and each set of remaining inputs.

    In 2-D, when ``spec.h`` is keyed and separable (`GridFn.key` and
    `GridFn.axis_profiles` set: log images, symmetrizations and scalings of
    weights of separable terms), no 2-D array is built at all. The gap is
    a sum of parts f(a_j) - y_j a_j on each axis's nodes a_j, each computed
    once per process for its coordinate, box and nodes (`_axis_part`). With
    c = (p - h*(y)) - part_0 and v = part_1 on the cell centres, cell (i, k)
    is a member iff v[k] <= c[i]; the count and the surface come from the
    sorted parts by binary search (`_threshold_cells`), and a bounding-box
    face is decided alike (`_separable_faces`). v[k] - c[i] and the gap
    float of the grid path are two float sums of the same float inputs (the
    power terms' values, h*(y), the products y_j a_j, p), so they differ by
    at most 2 gamma_m times the sum of the inputs' moduli, m the longer
    number of roundings (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2). If a deciding v[k] lies within twice that bound
    of c[i], the face or the volume takes the grid path; otherwise it has
    the grid path's membership, and the count and the surface are the
    whole-grid integers. This rests on the arithmetic alone, not on convexity.
    """
    inputs = ("volume", value_bytes(spec.y), spec.p, spec.hstar_y, value_bytes(spec.argmax))
    est = memoized(spec.h.key, inputs, lambda: _sublevel_volume(spec, None, 0))
    if est.value == 0:
        raise ValueError("the sublevel set holds no cell centre of the volume grid (no sample "
                         "at n > 3), so its volume cannot be bounded")
    return est


def _sublevel_volume(spec: SublevelSpec, resolution: Optional[int], seed: int) -> VolumeEstimate:
    """Unmemoized `sublevel_volume` on a grid of ``resolution`` or Monte-Carlo stream ``seed``."""
    n = spec.h.n
    lo, hi = _bounding_box(spec)
    if n > 3:
        return _monte_carlo_volume(spec, lo, hi, MC_SAMPLES, seed)
    cells = resolution if resolution is not None else by_dim(VOLUME_CELLS, n)
    counts = _separable_cells(spec, lo, hi, cells) if _per_axis(spec) else None
    if counts is None:
        counts = _cells(_membership(spec, [_centres(lo[j], hi[j], cells) for j in range(n)]))
    count, surface = counts
    cell_vol = float(np.prod(hi - lo)) / cells**n
    return VolumeEstimate(value=count * cell_vol, half_width=float(surface) * cell_vol)


def _monte_carlo_volume(spec: SublevelSpec, lo: np.ndarray, hi: np.ndarray,
                        samples: int, seed: int) -> VolumeEstimate:
    """Volume of D_y(p) from seeded uniform samples of the box [lo, hi]."""
    box_vol = float(np.prod(hi - lo))
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = rng.uniform(size=(samples, spec.h.n)) * (hi - lo) + lo
    gap = spec.h.at(pts) + spec.hstar_y - pts @ spec.y
    hits = int(np.count_nonzero(gap <= spec.p))
    p_hat = hits / samples
    z = 2.5758293035489004  # 99% two-sided normal quantile
    denom = 1.0 + z**2 / samples
    half = z * math.sqrt(p_hat * (1 - p_hat) / samples + z**2 / (4 * samples**2)) / denom
    return VolumeEstimate(value=p_hat * box_vol, half_width=half * box_vol)


def exp_in_range(ln_value: float) -> Optional[float]:
    """e^ln_value, or None past the float range, where only the log is kept."""
    try:
        return math.exp(ln_value)
    except OverflowError:
        return None


class IntegralEstimate(NamedTuple):
    value: Optional[float]  # None past the float range
    ln_value: float
    rel_error: float


def _simpson_weights(count: int) -> np.ndarray:
    if count < 3 or count % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    w = np.ones(count)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _quad_count(box_len: float, sigma: float, n: int) -> int:
    target = box_len / 512
    if math.isfinite(sigma) and sigma > 0:
        target = min(target, sigma / QUAD_PEAK_NODES)
    count = int(math.ceil(box_len / max(target, 1e-12))) + 1
    count = max(count, 65)
    count = min(count, by_dim(QUAD_MAX_NODES, n))
    # force count = 4k + 1 so the stride-2 Simpson subgrid is itself valid
    rem = (count - 1) % 4
    if rem:
        count += 4 - rem
    return count


def laplace_integral(h: GridFn, y, cfg: NumericsConfig = DEFAULT,
                     sup: Optional[SupResult] = None) -> IntegralEstimate:
    """integral of e^{<x, y> - h(x)} dx by composite Simpson on the decay box.

    The box is where the exponent has dropped `DECAY_BUDGET` below its
    max, so the relative truncation error is on the e^{-DECAY_BUDGET}
    scale; the reported rel_error adds a stride-2 Simpson comparison.
    Computed once per process for each keyed ``h``, ``y``, ``cfg`` and box.

    When ``h`` splits over the axes (`GridFn.axis_profiles`), the integral
    is by Fubini the product of n 1-D integrals: each axis is evaluated on
    its own node array, the same nodes the tensor grid would have, and the
    fine and coarse Simpson sums are the products of the per-axis sums,
    scaled by e to the summed per-axis peaks. Memory and time then grow
    with n, not with nodes^n, and the `TENSOR_NODES_MAX` guard applies only
    to the tensor. At n = 1 the two paths give the same floats; at n >= 2 the
    value moves only by roundoff. Once Simpson has converged, rel_error
    is itself roundoff (about 1e-16) plus e^{-DECAY_BUDGET}.
    """
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if sup is None:
        sup = truncated_sup(h, y, cfg)
    inputs = ("integral", value_bytes(y), cfg,
              value_bytes(sup.lo), value_bytes(sup.hi), value_bytes(sup.curvature))
    return memoized(h.key, inputs, lambda: _laplace_integral(h, y, cfg, sup))


def _simpson_part(psi: np.ndarray, steps: Sequence[float]) -> tuple[float, float, float]:
    """(max, fine and stride-2 Simpson sums of e^(psi - max)) of an exponent
    ``psi`` on a product grid with the given axis steps; ``psi`` is overwritten."""
    peak = float(psi.max())
    psi -= peak
    np.exp(psi, out=psi)
    sums = []
    for stride in (1, 2):
        t = psi[(slice(None, None, stride),) * psi.ndim].copy()
        scale = 1.0
        for i, step in enumerate(steps):
            t *= _simpson_weights(t.shape[i]).reshape((-1,) + (1,) * (t.ndim - 1 - i))
            scale *= float(step) * stride / 3.0
        sums.append(float(t.sum()) * scale)
    return peak, sums[0], sums[1]


def _laplace_integral(h: GridFn, y: np.ndarray, cfg: NumericsConfig,
                      sup: SupResult) -> IntegralEstimate:
    """A separable ``h`` gives one `_simpson_part` per axis, memoized (key space
    ``"axis_integral"``) on the keyed ``h`` and the axis's coordinate, box and
    curvature; the parts are combined in axis order, so no float changes."""
    n = h.n
    curvs = sup.curvature

    def axis(j: int) -> tuple[np.ndarray, float]:
        box_len = sup.hi[j] - sup.lo[j]
        sigma = 1.0 / math.sqrt(curvs[j]) if curvs[j] > 0 else math.inf
        count = _quad_count(box_len, sigma, n)
        return np.linspace(sup.lo[j], sup.hi[j], count), box_len / (count - 1)

    def axis_part(j: int, prof) -> tuple[float, float, float]:
        nodes, step = axis(j)
        return _simpson_part(y[j] * nodes - prof(nodes), [step])

    if h.axis_profiles is not None:
        parts = [memoized(h.key, ("axis_integral", value_bytes(y[j]), cfg, n,
                                  value_bytes([sup.lo[j], sup.hi[j], curvs[j]])),
                          lambda j=j, prof=prof: axis_part(j, prof))
                 for j, prof in enumerate(h.axis_profiles)]
    else:
        axes, steps = zip(*map(axis, range(n)))
        if math.prod(len(a) for a in axes) > TENSOR_NODES_MAX:
            raise ValueError("integration grid too large for this dimension")
        parts = [_simpson_part(tilt(-h.on_axes(axes), y, axes), steps)]
    peak, fine, coarse = 0.0, 1.0, 1.0
    for part_peak, part_fine, part_coarse in parts:
        peak += part_peak
        fine *= part_fine
        coarse *= part_coarse
    if fine <= 0:
        raise DivergenceError("integrand underflowed to zero on the whole box")
    rel = abs(fine - coarse) / fine + math.exp(-DECAY_BUDGET)
    ln_value = float(peak + math.log(fine))
    return IntegralEstimate(value=exp_in_range(ln_value), ln_value=ln_value,
                            rel_error=float(rel))


class SandwichReport(NamedTuple):
    integral: Optional[float]  # None past the float range
    volume: VolumeEstimate
    hstar_y: float
    ratio: float
    verdict: bool
    combined_rel_error: float


def sandwich_check(h: GridFn, y, cfg: NumericsConfig = DEFAULT) -> SandwichReport:
    """Verdict on e^{-1} <= integral / (V e^{h*(y)}) <= 1 + n! at slack p = 1."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    sup = truncated_sup(h, y, cfg)
    spec = SublevelSpec(h=h, y=y, p=1.0, hstar_y=sup.value, argmax=sup.argmax)
    volume = sublevel_volume(spec)
    integral = laplace_integral(h, y, cfg, sup=sup)
    ln_ratio = integral.ln_value - math.log(volume.value) - sup.value
    ratio = math.exp(ln_ratio)
    rel = integral.rel_error + volume.half_width / volume.value
    slack = ratio * rel
    lo_bound = math.exp(-1.0)
    hi_bound = 1.0 + math.factorial(h.n)
    verdict = (ratio + slack >= lo_bound) and (ratio - slack <= hi_bound)
    return SandwichReport(
        integral=integral.value,
        volume=volume,
        hstar_y=sup.value,
        ratio=ratio,
        verdict=verdict,
        combined_rel_error=rel,
    )
