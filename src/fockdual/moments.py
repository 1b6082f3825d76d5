"""Monomial moments of weighted Fock-type spaces.

The moment of a multi-index alpha is the squared weighted L^2 norm of the
monomial z^alpha; after polar coordinates and a log substitution it is
(2 pi)^n times a Laplace integral with exponent <2 (alpha+1), t> - 2 phi[e](t),
which is where the volume bounds and conjugate lower bounds attach.
Everything is tracked in log space: moments grow super-geometrically.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections import namedtuple
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional

import numpy as np

from .config import DEFAULT, NumericsConfig
from .fenchel import log_image, prefetch_sups, scale_fn, truncated_sup
from .laplace import exp_in_range, laplace_integral, make_sublevel_spec, sublevel_volume
from .weights import WeightFunction

LN_2PI = math.log(2.0 * math.pi)


class MultiIndex(namedtuple("MultiIndex", "components")):
    """Element of Z_+^n indexing monomials and moments; indices order as
    their component tuples."""

    __slots__ = ()

    def __new__(cls, components: tuple[int, ...]):
        if not components or any(not isinstance(c, int) or c < 0 for c in components):
            raise ValueError("multi-index needs nonnegative integer components")
        return super().__new__(cls, components)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def degree(self) -> int:
        return sum(self.components)

    def shifted(self) -> tuple[int, ...]:
        """alpha + 1 elementwise (the polar-Jacobian shift)."""
        return tuple(c + 1 for c in self.components)

    def log_factorial(self) -> float:
        return sum(math.lgamma(c + 1) for c in self.components)


def _bounded(n: int, budget: int) -> list:
    """The n-tuples of nonnegative ints with sum at most ``budget``, in
    lexicographic order, built from those alone."""
    if n == 0:
        return [()] if budget >= 0 else []
    return [(c,) + rest for c in range(budget + 1) for rest in _bounded(n - 1, budget - c)]


def iter_indices(n: int, max_degree: int) -> Iterator[MultiIndex]:
    """All alpha with |alpha| <= max_degree, in lexicographic order."""
    return map(MultiIndex, _bounded(n, max_degree))


@functools.lru_cache(maxsize=None)
def index_positions(n: int, max_degree: int) -> Mapping[MultiIndex, int]:
    """Read-only {alpha: position} over iter_indices(n, max_degree), in that
    order; built once per shape and shared."""
    return MappingProxyType({alpha: i for i, alpha in enumerate(iter_indices(n, max_degree))})


class MomentEntry(NamedTuple):
    value: Optional[float]  # None past the float range
    ln_value: float
    rel_error: float


def moment(phi: WeightFunction, alpha: MultiIndex,
           cfg: NumericsConfig = DEFAULT) -> MomentEntry:
    """c_alpha = (2 pi)^n * integral of e^{<2(alpha+1), t> - 2 phi[e](t)} dt."""
    if alpha.n != phi.n:
        raise ValueError("multi-index dimension mismatch")
    h = scale_fn(log_image(phi), 2.0)
    y = 2.0 * np.asarray(alpha.shifted(), dtype=np.float64)
    est = laplace_integral(h, y, cfg)
    ln_value = phi.n * LN_2PI + est.ln_value
    return MomentEntry(value=exp_in_range(ln_value), ln_value=ln_value,
                       rel_error=est.rel_error)


class FockMoment(NamedTuple):
    value: Optional[float]  # None past the float range
    ln_value: float


def fock_oracle(alpha: MultiIndex, n: int) -> FockMoment:
    """Closed form pi^n * alpha! for the quadratic weight.

    From 2 phi = ||z||^2 and per-axis radial integrals
    2 pi * int r^{2a+1} e^{-r^2} dr = pi * a!. The log channel stays valid
    when the plain value overflows.
    """
    if alpha.n != n:
        raise ValueError("multi-index dimension mismatch")
    ln_value = n * math.log(math.pi) + alpha.log_factorial()
    return FockMoment(value=exp_in_range(ln_value), ln_value=ln_value)


class MomentTable(namedtuple("MomentTable", "phi_label n max_degree entries")):
    """Moments for all |alpha| <= max_degree, with per-entry error estimates.
    A value past the float range is None (an empty CSV cell, JSON null).

    An instance has a ``__dict__`` of its own for one attribute, ``_dense``,
    the cache of `dense_vectors`: it is not a field, so it is neither
    compared nor shown."""

    def __new__(cls, phi_label: str, n: int, max_degree: int, entries: dict):
        for alpha in iter_indices(n, max_degree):
            if alpha not in entries:
                raise ValueError(f"table missing {alpha.components}")
        for alpha, e in entries.items():
            if not (e.value is None or 0 < e.value < math.inf):
                raise ValueError(f"moment at {alpha.components} must be positive and finite")
        table = super().__new__(cls, phi_label, n, max_degree, entries)
        table._dense = {}
        return table

    def entry(self, alpha: MultiIndex) -> MomentEntry:
        try:
            return self.entries[alpha]
        except KeyError:
            raise KeyError(f"moment table has no entry for {alpha.components}") from None

    def ln(self, alpha: MultiIndex) -> float:
        return self.entry(alpha).ln_value

    def dense_vectors(self, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ln c_alpha, ln alpha!, c_alpha / alpha!) over iter_indices(n, degree),
        computed once per degree. The scale is math.exp(ln c_alpha - ln alpha!)
        entry by entry (np.exp does not always round the same way), and inf
        past the float range, where only the logs are kept."""
        if degree not in self._dense:
            alphas = index_positions(self.n, degree)
            ln_c = [self.ln(a) for a in alphas]
            ln_fact = [a.log_factorial() for a in alphas]
            scale = [math.inf if s is None else s
                     for s in (exp_in_range(c - f) for c, f in zip(ln_c, ln_fact))]
            self._dense[degree] = tuple(np.array(v) for v in (ln_c, ln_fact, scale))
        return self._dense[degree]

    def rows(self) -> list[tuple]:
        out = []
        for alpha in iter_indices(self.n, self.max_degree):
            e = self.entries[alpha]
            out.append(alpha.components + (e.value, e.ln_value, e.rel_error))
        return out

    def to_json(self, path) -> None:
        payload = {
            "phi_label": self.phi_label,
            "n": self.n,
            "max_degree": self.max_degree,
            "entries": [
                {
                    "alpha": list(row[: self.n]),
                    "value": row[self.n],
                    "ln_value": row[self.n + 1],
                    "rel_error": row[self.n + 2],
                }
                for row in self.rows()
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_csv(cls, path, phi_label: str = "", max_degree: Optional[int] = None) -> "MomentTable":
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            n = sum(1 for name in header if name.startswith("alpha_"))
            entries = {}
            best_degree = 0
            for row in reader:
                alpha = MultiIndex(tuple(int(v) for v in row[:n]))
                best_degree = max(best_degree, alpha.degree)
                entries[alpha] = MomentEntry(
                    value=float(row[n]) if row[n] else None,
                    ln_value=float(row[n + 1]),
                    rel_error=float(row[n + 2]),
                )
        degree = max_degree if max_degree is not None else best_degree
        return cls(phi_label=phi_label, n=n, max_degree=degree, entries=entries)

    @classmethod
    def from_json(cls, path) -> "MomentTable":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        entries = {
            MultiIndex(tuple(e["alpha"])): MomentEntry(
                value=e["value"], ln_value=e["ln_value"], rel_error=e["rel_error"]
            )
            for e in payload["entries"]
        }
        return cls(
            phi_label=payload["phi_label"],
            n=payload["n"],
            max_degree=payload["max_degree"],
            entries=entries,
        )


def moment_table(phi: WeightFunction, max_degree: int,
                 cfg: NumericsConfig = DEFAULT) -> MomentTable:
    alphas = list(iter_indices(phi.n, max_degree))
    prefetch_sups(scale_fn(log_image(phi), 2.0),
                  2.0 * np.array([a.shifted() for a in alphas], dtype=np.float64), cfg)
    entries = {}
    for alpha in alphas:
        entries[alpha] = moment(phi, alpha, cfg)
    return MomentTable(
        phi_label=phi.label, n=phi.n, max_degree=max_degree, entries=entries
    )


class Lemma2Report(NamedTuple):
    bound_ln: float
    value_ln: float
    ok: bool


def lemma2_check(phi: WeightFunction, alpha: MultiIndex,
                 cfg: NumericsConfig = DEFAULT,
                 entry: Optional[MomentEntry] = None) -> Lemma2Report:
    """Lower bound pi^n / prod(alpha_j + 1) * e^{2 (phi[e])^*(alpha+1)} <= c_alpha."""
    if entry is None:
        entry = moment(phi, alpha, cfg)
    shifted = np.asarray(alpha.shifted(), dtype=np.float64)
    conj = truncated_sup(log_image(phi), shifted, cfg).value
    bound_ln = (
        phi.n * math.log(math.pi) - float(np.sum(np.log(shifted))) + 2.0 * conj
    )
    slack = entry.rel_error + 1e-9
    return Lemma2Report(
        bound_ln=bound_ln,
        value_ln=entry.ln_value,
        ok=entry.ln_value >= bound_ln - slack,
    )


class Lemma4Report(NamedTuple):
    lo_ln: float
    value_ln: float
    hi_ln: float
    ok: bool


def lemma4_check(phi: WeightFunction, alpha: MultiIndex,
                 cfg: NumericsConfig = DEFAULT,
                 entry: Optional[MomentEntry] = None) -> Lemma4Report:
    """Two-sided volume bracket for c_alpha at slack 1/2.

    (2 pi)^n e^{-1} V e^{2 s} <= c_alpha <= (2 pi)^n (1 + n!) V e^{2 s}
    where V is the volume of the slack-1/2 sublevel set of phi[e] at the
    shifted index and s is the log-substituted conjugate there.
    """
    if entry is None:
        entry = moment(phi, alpha, cfg)
    shifted = np.asarray(alpha.shifted(), dtype=np.float64)
    spec = make_sublevel_spec(log_image(phi), shifted, 0.5, cfg)
    vol = sublevel_volume(spec)
    base = phi.n * LN_2PI + math.log(vol.value) + 2.0 * spec.hstar_y
    lo_ln = base - 1.0
    hi_ln = base + math.log(1.0 + math.factorial(phi.n))
    slack = vol.half_width / vol.value + entry.rel_error + 1e-9
    ok = (entry.ln_value >= lo_ln - slack) and (entry.ln_value <= hi_ln + slack)
    return Lemma4Report(
        lo_ln=lo_ln,
        value_ln=entry.ln_value,
        hi_ln=hi_ln,
        ok=ok,
    )


class GrowthReport(NamedTuple):
    floor_ln: float
    log_convex_ok: bool


def growth_floor(table: MomentTable, rate: float, tol: float = 1e-6) -> GrowthReport:
    """Witness for super-geometric growth: ln c_alpha - |alpha| ln M is
    bounded below with axiswise log-convex increments."""
    floor_ln = math.inf
    ok = True
    ln_rate = math.log(rate)
    for alpha in iter_indices(table.n, table.max_degree):
        floor_ln = min(floor_ln, table.ln(alpha) - alpha.degree * ln_rate)
        for j in range(table.n):
            comp = list(alpha.components)
            comp[j] += 1
            mid = MultiIndex(tuple(comp))
            comp[j] += 1
            top = MultiIndex(tuple(comp))
            if top.degree <= table.max_degree:
                second = table.ln(top) - 2 * table.ln(mid) + table.ln(alpha)
                if second < -tol:
                    ok = False
    return GrowthReport(floor_ln=floor_ln, log_convex_ok=ok)
