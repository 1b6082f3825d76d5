"""Discrete Legendre transform kernel.

Lucet's Linear-time Legendre Transform (Numer. Algorithms 16, 1997): the
discrete conjugate max_i (x * y_i - f_i) only ever picks a node of the lower
convex hull of the samples (y_i, f_i), and along that hull the maximizing
node moves right as x grows. A `Hull` is built once per sampled function;
each query then finds its node by binary search on the hull's edge slopes.

The hull is built by Andrew's monotone chain, which pops the stack top
while it lies on or above the chord from the node below it to the next
sample. Samples of a convex function pop nothing, so one vectorized pass
first runs that same pop test on every consecutive triple, and the
sequential chain starts only at the first triple that pops (see `Hull`).
`row_hulls` runs that pass for many rows over the same nodes at once.
"""

import numpy as np

_QUERY_CHUNK = 8192  # queries per vectorized pass; bounds the temporaries
_POP_BLOCK = 65536  # samples per 2-D pop test over a block of rows


class Hull:
    """Lower convex hull of the samples (y_i, f_i), queried for conjugates.

    ``y`` must be strictly increasing. Middle points on or above a chord are
    dropped, so the hull keeps only the nodes a conjugate can pick.

    Until the chain first pops, its stack is 0..i-1 when it reaches sample
    i, so its one test there is the triple (i-2, i-1, i). The test is
    therefore evaluated for every consecutive triple at once, with the
    loop's own float expression (the same subtractions and products, each
    rounded once, then ``>=``), which decides exactly what the loop would.
    If the first triple that pops ends at ``start``, the stack holds
    0..start-1 there, and the loop runs only from ``start``; if none pops,
    every sample is a hull node and the loop does not run.
    """

    def __init__(self, y, f):
        f = np.asarray(f, dtype=np.float64)
        if np.ndim(y) != 1 or f.shape != np.shape(y):
            raise ValueError("hull needs 1-D node and value arrays of equal length")
        (self.y, self.f, self.slopes), = row_hulls(y, f[None, :])

    def conjugate(self, x) -> np.ndarray:
        """max_i (x * y_i - f_i) for queries ``x`` of any shape and order.

        The binary search lands one node below the first edge whose slope
        reaches x; from there a query climbs while its value strictly rises.
        On a float tie the smaller node wins, as in a left-to-right scan.
        """
        return _conjugate(self.y, self.f, self.slopes, x)


def _first_pops(y: np.ndarray, f: np.ndarray) -> np.ndarray:
    """For each row of ``f`` (shape (L, N)), the end index of the first
    consecutive triple the chain pops at, or N when none pops."""
    rows, n = f.shape
    start = np.full(rows, n, dtype=np.intp)
    if n >= 3:
        # the chain's pop test on every triple (i-2, i-1, i) = (a, b, i)
        ya, yb, yi = y[:-2], y[1:-1], y[2:]
        fa, fb, fi = f[:, :-2], f[:, 1:-1], f[:, 2:]
        pops = (fb - fa) * (yi - ya) >= (fi - fa) * (yb - ya)
        first = np.argmax(pops, axis=1)
        hit = pops[np.arange(rows), first]
        start[hit] = first[hit] + 2
    return start


def _chain(yv: memoryview, f: np.ndarray, start: int) -> np.ndarray:
    """Indices of the lower hull: the stack 0..start-1, then the monotone
    chain from sample ``start`` on."""
    # memoryview items are Python floats: they round exactly like float64
    # scalars, index faster and need no list copy of the samples
    fv = memoryview(np.ascontiguousarray(f))
    n = len(fv)
    hull = np.arange(n, dtype=np.intp)
    hv = memoryview(hull)
    h = start
    for i in range(start, n):
        while h >= 2:
            a = hv[h - 2]
            b = hv[h - 1]
            if (fv[b] - fv[a]) * (yv[i] - yv[a]) >= (fv[i] - fv[a]) * (yv[b] - yv[a]):
                h -= 1
            else:
                break
        hv[h] = i
        h += 1
    return hull[:h]


def _conjugate(y: np.ndarray, f: np.ndarray, slopes: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    out = np.empty(flat_x.shape[0])
    last = y.shape[0] - 1
    for start in range(0, flat_x.shape[0], _QUERY_CHUNK):
        xc = flat_x[start:start + _QUERY_CHUNK]
        k = np.searchsorted(slopes, xc)
        np.maximum(k - 1, 0, out=k)
        best = xc * y[k] - f[k]
        while True:
            up = np.minimum(k + 1, last)
            cand = xc * y[up] - f[up]
            rises = cand > best
            if not rises.any():
                break
            np.copyto(k, up, where=rises)
            np.copyto(best, cand, where=rises)
        out[start:start + _QUERY_CHUNK] = best
    return out.reshape(x.shape)


def row_hulls(y, vals: np.ndarray):
    """The lower hull of each row of the float array ``vals`` (shape (L, N))
    over the common nodes ``y``, as (nodes, values, edge slopes) per row.

    ``y`` is checked and wrapped once, and the pop test of a block of rows
    is one 2-D expression; only a row that pops runs the sequential chain.
    A row that pops nothing is its own hull: it is yielded with ``y`` and
    the row itself, not copies. The floats are those of the sequential
    chain over every sample (see `Hull`).
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape[0] == 0:
        raise ValueError("empty grid")
    if not np.all(y[1:] > y[:-1]):
        raise ValueError("hull nodes must be strictly increasing")
    yv = memoryview(y)
    dy = np.diff(y)
    block = max(1, _POP_BLOCK // y.shape[0])
    for first in range(0, vals.shape[0], block):
        rows = vals[first:first + block]
        starts = _first_pops(y, rows)
        for f, start in zip(rows, starts):
            if start == y.shape[0]:
                yield y, f, np.diff(f) / dy
            else:
                hull = _chain(yv, f, int(start))
                hy, hf = y[hull], f[hull]
                yield hy, hf, np.diff(hf) / np.diff(hy)


def conjugate_lines(y, vals, x):
    """Row-wise discrete conjugate: out[l, k] = max_i (x[k] * y[i] - vals[l, i]).

    ``y`` has shape (N,) and must be strictly increasing; ``vals`` has shape
    (L, N); ``x`` has shape (M,) in any order. One hull per row (see
    `row_hulls`), then one query of all of ``x``: O(L * (N + M log N)).
    """
    vals = np.asarray(vals, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if vals.ndim != 2 or np.ndim(y) != 1 or vals.shape[1] != np.shape(y)[0]:
        raise ValueError("vals must have shape (L, len(y))")
    if x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("empty grid")
    out = np.empty((vals.shape[0], x.shape[0]))
    for row, hull in enumerate(row_hulls(y, vals)):
        out[row] = _conjugate(*hull, x)
    return out
