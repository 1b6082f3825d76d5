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
"""

import numpy as np

_QUERY_CHUNK = 8192  # queries per vectorized pass; bounds the temporaries


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
        y = np.asarray(y, dtype=np.float64)
        f = np.asarray(f, dtype=np.float64)
        if y.ndim != 1 or f.shape != y.shape:
            raise ValueError("hull needs 1-D node and value arrays of equal length")
        if y.shape[0] == 0:
            raise ValueError("empty grid")
        if not np.all(y[1:] > y[:-1]):
            raise ValueError("hull nodes must be strictly increasing")
        n = y.shape[0]
        start = n
        if n >= 3:
            # the chain's pop test on every triple (i-2, i-1, i) = (a, b, i)
            ya, yb, yi = y[:-2], y[1:-1], y[2:]
            fa, fb, fi = f[:-2], f[1:-1], f[2:]
            pops = (fb - fa) * (yi - ya) >= (fi - fa) * (yb - ya)
            first = int(np.argmax(pops))
            if pops[first]:
                start = first + 2
        # memoryview items are Python floats: they round exactly like float64
        # scalars, index faster and need no list copy of the samples
        yv = memoryview(np.ascontiguousarray(y))
        fv = memoryview(np.ascontiguousarray(f))
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
        hull = hull[:h]
        self.y = y[hull]
        self.f = f[hull]
        self.slopes = np.diff(self.f) / np.diff(self.y)

    def conjugate(self, x) -> np.ndarray:
        """max_i (x * y_i - f_i) for queries ``x`` of any shape and order.

        The binary search lands one node below the first edge whose slope
        reaches x; from there a query climbs while its value strictly rises.
        On a float tie the smaller node wins, as in a left-to-right scan.
        """
        x = np.asarray(x, dtype=np.float64)
        flat_x = x.reshape(-1)
        out = np.empty(flat_x.shape[0])
        last = self.y.shape[0] - 1
        for start in range(0, flat_x.shape[0], _QUERY_CHUNK):
            xc = flat_x[start:start + _QUERY_CHUNK]
            k = np.searchsorted(self.slopes, xc)
            np.maximum(k - 1, 0, out=k)
            best = xc * self.y[k] - self.f[k]
            while True:
                up = np.minimum(k + 1, last)
                cand = xc * self.y[up] - self.f[up]
                rises = cand > best
                if not rises.any():
                    break
                np.copyto(k, up, where=rises)
                np.copyto(best, cand, where=rises)
            out[start:start + _QUERY_CHUNK] = best
        return out.reshape(x.shape)


def conjugate_lines(y, vals, x):
    """Row-wise discrete conjugate: out[l, k] = max_i (x[k] * y[i] - vals[l, i]).

    ``y`` has shape (N,) and must be strictly increasing; ``vals`` has shape
    (L, N); ``x`` has shape (M,) in any order. One hull per row, then one
    query of all of ``x``: O(L * (N + M log N)).
    """
    y = np.asarray(y, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if vals.ndim != 2 or y.ndim != 1 or vals.shape[1] != y.shape[0]:
        raise ValueError("vals must have shape (L, len(y))")
    if y.shape[0] == 0 or x.ndim != 1 or x.shape[0] == 0:
        raise ValueError("empty grid")
    out = np.empty((vals.shape[0], x.shape[0]))
    for row in range(vals.shape[0]):
        out[row] = Hull(y, vals[row]).conjugate(x)
    return out
