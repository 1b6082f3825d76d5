"""Batched 1-D truncated sups: the line solver behind `fenchel._lines` (a
separable objective's sup is a sum of line sups, one per axis coordinate)
and behind a numeric dual's sampling extent.

`_sup_lines` maximizes y t - prof(t) for many y against one profile. Each
pass reads the profile once, on the joined nodes of every row taking part,
so a check loop's sups cost a few profile calls instead of a few per sup.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .config import DECAY_BUDGET


class DivergenceError(RuntimeError):
    """Objective failed to decay within the expansion cap (not superlinear,
    or the dual point lies outside the finite-conjugate region)."""


_EXPAND_CAP = 600.0
# coarse search step of `_sup_lines`, and the half-width of its fine window
_COARSE = 0.25
_WINDOW = 2 * _COARSE
# node stride of the first pass over a concave objective's fine window
_STRIDE = 32


def _fine_nodes(lo, hi, intervals, a, b, stride: int = 1) -> np.ndarray:
    """``np.linspace(lo, hi, intervals + 1)[a:b:stride]`` for
    ``0 <= a < b <= intervals + 1``, built from those indices alone with
    numpy's formula (index times step plus ``lo``, the last node ``hi``),
    so every node is the same float as in the whole grid. Given arrays, one
    slice per row, joined in row order."""
    lo, hi = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (lo, hi))
    intervals, a, b = (np.atleast_1d(np.asarray(v, dtype=np.intp)) for v in (intervals, a, b))
    lens = (b - a + stride - 1) // stride
    row = np.repeat(np.arange(lens.size), lens)
    idx = a[row] + stride * (np.arange(row.size) - (np.cumsum(lens) - lens)[row])
    delta = hi - lo
    step = delta / intervals
    nodes = idx * step[row]
    # numpy divides first when the step underflows to zero
    zero = np.flatnonzero(step == 0)
    if zero.size:
        at = np.isin(row, zero)
        nodes[at] = idx[at] / intervals[row[at]] * delta[row[at]]
    nodes += lo[row]
    last = idx == intervals[row]
    nodes[last] = hi[row[last]]
    return nodes


def _row_argmax(vals: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The first argmax of each row of ``vals`` (rows of lengths ``lens``
    joined in order): a 1-D argmax per row, on one -inf-padded 2-D array."""
    pad = np.full((lens.size, int(lens.max())), -np.inf)
    pad[np.arange(pad.shape[1]) < lens[:, None]] = vals
    return pad.argmax(axis=1)


def _sup_lines(prof: Callable[[np.ndarray], np.ndarray], ys, step: float,
               floor: Optional[float], concave: bool = False) -> list:
    """Maximize y t - prof(t) over its decay box, for each y of ``ys``: per
    row (value, argmax, lo, hi, curvature) or the row's DivergenceError.

    The box grows until the objective has dropped `DECAY_BUDGET` below its
    running max at both ends (a floor pins the lower end). Its coarse probe
    reads lo + i `_COARSE`, lo the floor or an even integer: every row's
    probe is a slice of one lattice, and a round reads ``prof`` only where
    none has. The max is then taken on a fine power-of-two grid over the
    box, reading only the nodes a pass needs (`_fine_nodes`). A ``concave``
    objective (``prof`` convex by construction, `GridFn.convex`) is read at
    every `_STRIDE`-th node within two coarse steps of the coarse argmax,
    then within two strides of that pass's argmax, where a concave function
    peaks; a max on an edge where a span cuts the grid widens the span
    (the window, then the whole grid). So every float is the whole grid's.
    Each pass is one ``prof`` call on the joined nodes of the rows taking
    part: ``prof`` rounds a node as alone (numpy's elementwise arithmetic on
    an array; a 0-d call need not: a scalar ``r ** p``), so a row has a
    one-row call's floats. A last call on [t + h, t - h, t] at every row's
    argmax t gives the curvatures |prof(t + h) + prof(t - h) - 2 prof(t)| / h^2.
    """
    ys = np.asarray(ys, dtype=np.float64)
    out: list = [None] * ys.size

    def objective(which: np.ndarray, nodes: np.ndarray, lens: np.ndarray) -> np.ndarray:
        vals = np.repeat(ys[which], lens) * nodes
        vals -= prof(nodes)
        vals[~np.isfinite(vals)] = -np.inf
        return vals

    lo0 = -2.0 if floor is None else floor
    lo, hi = np.full(ys.size, lo0), np.full(ys.size, 2.0)
    t = np.arange(lo0, 2.0 + _COARSE / 2, _COARSE)
    vals = prof(t)
    box = np.empty((3, ys.size))  # box ends and coarse argmax, per row
    act = np.arange(ys.size)
    while act.size:
        start = np.rint((lo[act] - t[0]) / _COARSE).astype(np.intp)
        end = start + np.ceil((hi[act] + _COARSE / 2 - lo[act]) / _COARSE).astype(np.intp)
        # one (rows, lattice) array, built in place: the batch's largest
        psi = ys[act, None] * t
        psi -= vals
        col = np.arange(t.size)
        psi[~np.isfinite(psi) | (col < start[:, None]) | (col >= end[:, None])] = -np.inf
        r = np.arange(act.size)
        peak = psi.argmax(axis=1)
        bar = psi[r, peak] - DECAY_BUDGET
        dead = ~np.isfinite(bar)
        need_hi = ~dead & (psi[r, end - 1] > bar)
        need_lo = ~dead & (psi[r, start] > bar) & (floor is None)
        done = ~(dead | need_hi | need_lo)
        keep = (psi > bar[:, None])[done]
        box[0, act[done]] = t[np.maximum(keep.argmax(axis=1) - 1, start[done])]
        box[1, act[done]] = t[np.minimum(t.size - keep[:, ::-1].argmax(axis=1), end[done] - 1)]
        box[2, act[done]] = t[peak[done]]
        g = act[need_hi]
        hi[g] = np.where(hi[g] >= 1, hi[g] * 2, hi[g] + 2)
        g = act[need_lo]
        lo[g] = np.where(lo[g] <= -1, lo[g] * 2, lo[g] - 2)
        over = (hi[act] > _EXPAND_CAP) | (lo[act] < -_EXPAND_CAP)
        for i in act[dead]:
            out[i] = DivergenceError("objective is -inf on the whole probe box")
        for i in act[over]:
            out[i] = DivergenceError("objective does not decay (superlinearity fails)")
        act = act[(need_hi | need_lo) & ~over]
        if act.size:  # read the lattice nodes the grown boxes add
            grid = np.arange(min(lo[act].min(), t[0]), max(hi[act].max(), t[-1]) + _COARSE / 2,
                             _COARSE)
            off = round((t[0] - grid[0]) / _COARSE)
            fresh = np.concatenate((grid[:off], grid[off + t.size:]))
            got = prof(fresh) if fresh.size else fresh
            t, vals = grid, np.concatenate((got[:off], vals, got[off:]))

    fin = np.flatnonzero([o is None for o in out])
    if not fin.size:
        return out
    lo_box, hi_box, peak_t = box[:, fin]
    if floor is not None:
        lo_box = np.maximum(lo_box, floor)
    spans = []
    for lo_b, hi_b, t_pk in zip(lo_box.tolist(), hi_box.tolist(), peak_t.tolist()):
        # power-of-two interval count: halving the step inserts exact
        # midpoints, so refinement never loses a node
        intervals = 1 << max(1, math.ceil(math.log2((hi_b - lo_b) / step)))
        h = (hi_b - lo_b) / intervals
        spans.append((intervals, max(math.floor((t_pk - _WINDOW - lo_b) / h) - 1, 0),
                      min(math.ceil((t_pk + _WINDOW - lo_b) / h) + 2, intervals + 1)))
    intervals, a, b = np.array(spans, dtype=np.intp).T
    count = intervals + 1
    levels = [(np.zeros_like(count), count)]
    if concave:
        lens = (b - a + _STRIDE - 1) // _STRIDE
        mid = a + _STRIDE * _row_argmax(
            objective(fin, _fine_nodes(lo_box, hi_box, intervals, a, b, _STRIDE), lens), lens)
        levels = [(np.maximum(mid - 2 * _STRIDE, a), np.minimum(mid + 2 * _STRIDE + 1, b)),
                  (a, b)] + levels
    level = np.zeros(fin.size, dtype=np.intp)
    todo = np.arange(fin.size)
    while todo.size:
        sa, sb = (np.choose(level[todo], [span[e][todo] for span in levels]) for e in (0, 1))
        lens = sb - sa
        nodes = _fine_nodes(lo_box[todo], hi_box[todo], intervals[todo], sa, sb)
        vals = objective(fin[todo], nodes, lens)
        k = _row_argmax(vals, lens)
        cut = ((k == 0) & (sa > 0)) | ((k == lens - 1) & (sb < count[todo]))
        # past the widening, k is interior to its span exactly when the node
        # is interior to the fine grid
        at, inner = np.cumsum(lens) - lens + k, (k > 0) & (k < lens - 1)
        for j, interior, v, v_lo, v_hi, node in zip(
                todo[~cut].tolist(), inner[~cut].tolist(),
                *(c[~cut].tolist() for c in (vals[at], vals[at - inner], vals[at + inner],
                                             nodes[at]))):
            value = v
            if interior and math.isfinite(v_lo) and math.isfinite(v_hi):
                # parabolic peak lift through the bracketing triple: it removes
                # the alignment-quantized part of the node-max error
                den = v_hi - 2.0 * v + v_lo
                if den < 0.0:
                    value += (v_hi - v_lo) * (v_hi - v_lo) / (-8.0 * den)
            out[fin[j]] = (value, node, float(lo_box[j]), float(hi_box[j]))
        level[todo[cut]] += 1
        todo = todo[cut]
    h = 1e-3
    ts = np.array([out[i][1] for i in fin])
    up, down, mid = prof(np.concatenate((ts + h, ts - h, ts))).reshape(3, -1)
    for i, k in zip(fin.tolist(), (np.abs(up + down - 2 * mid) / h**2).tolist()):
        out[i] += (k,)
    return out

