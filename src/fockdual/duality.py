"""Coefficient-level duality: norms, the diagonal transform pair, the
Stirling envelope, the volume-product condition and the operator bounds.

A continuous functional with Riesz representer sum b_alpha z^alpha has
transform coefficients d_alpha = c_alpha(phi) conj(b_alpha) / alpha!; the
inverse recovers g_alpha = conj(d_alpha) alpha! / c_alpha(phi). Bounding
these maps between the weighted sequence norms is exactly what the
volume-product condition certifies. The weight depends only on the moduli,
so the monomials are orthogonal and the pair is diagonal: its squared
operator norms are max r_alpha and max 1 / r_alpha, with
ln r_alpha = ln c_alpha + ln c*_alpha - 2 ln alpha!. The operator bounds
compare these in log space, from the moment tables alone, at any degree.
The norms of a given sequence exponentiate each term, so a norm whose
terms pass the float range raises ValueError.

Every map and norm takes one sequence or a batch of them (`random_sequence`
with ``count``) and gives one value per sequence.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULT, NumericsConfig
from .fenchel import dual_weight, log_image, scale_fn, truncated_sup
from .laplace import laplace_integral, make_sublevel_spec, sublevel_volume
from .moments import LN_2PI, MomentTable, MultiIndex, index_positions
from .weights import WeightFunction


class CoefficientSequence(namedtuple("CoefficientSequence", "n truncation_degree re im")):
    """Finite coefficient family alpha -> complex; absent entries are zero.

    Stored dense: read-only real and imaginary float arrays ``re`` and
    ``im`` with one entry per iter_indices(n, truncation_degree) index, in
    that order. Entries that are exactly zero count as absent. A batch of B
    sequences holds (B, N) arrays, one row per sequence; ``items``, ``get``
    and the JSON form read a single sequence. Two sequences are equal when
    their shapes and arrays are.
    """

    __slots__ = ()

    def __new__(cls, n: int, coeffs: dict, truncation_degree: int):
        positions = index_positions(n, truncation_degree)
        re = np.zeros(len(positions))
        im = np.zeros(len(positions))
        for alpha, c in coeffs.items():
            if alpha.n != n:
                raise ValueError("coefficient index dimension mismatch")
            if alpha.degree > truncation_degree:
                raise ValueError(
                    f"index {alpha.components} exceeds truncation degree"
                )
            c = complex(c)
            re[positions[alpha]] = c.real
            im[positions[alpha]] = c.imag
        return cls.dense(n, truncation_degree, re, im)

    @classmethod
    def dense(cls, n: int, truncation_degree: int, re: np.ndarray,
              im: np.ndarray) -> "CoefficientSequence":
        """A sequence from arrays already in iter_indices order."""
        re.flags.writeable = False
        im.flags.writeable = False
        return tuple.__new__(cls, (n, truncation_degree, re, im))

    def __eq__(self, other):
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        return (self.n == other.n
                and self.truncation_degree == other.truncation_degree
                and np.array_equal(self.re, other.re)
                and np.array_equal(self.im, other.im))

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    @property
    def coeffs(self) -> dict:
        return dict(self.items())

    def items(self) -> list[tuple[MultiIndex, complex]]:
        """The nonzero (index, coefficient) pairs in index order."""
        alphas = list(index_positions(self.n, self.truncation_degree))
        return [
            (alphas[i], complex(self.re[i], self.im[i]))
            for i in np.flatnonzero((self.re != 0) | (self.im != 0))
        ]

    def get(self, alpha: MultiIndex) -> complex:
        i = index_positions(self.n, self.truncation_degree).get(alpha)
        return 0j if i is None else complex(self.re[i], self.im[i])

    def to_json(self, path) -> None:
        payload = {
            "n": self.n,
            "degree": self.truncation_degree,
            "terms": [
                {"alpha": list(a.components), "re": c.real, "im": c.imag}
                for a, c in self.items()
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_json(cls, path) -> "CoefficientSequence":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        coeffs = {
            MultiIndex(tuple(t["alpha"])): complex(t["re"], t["im"])
            for t in payload["terms"]
        }
        return cls(n=payload["n"], coeffs=coeffs, truncation_degree=payload["degree"])


def random_sequence(n: int, degree: int, rng: np.random.Generator,
                    count: Optional[int] = None) -> CoefficientSequence:
    """Dense standard-complex-normal coefficients up to the given degree; one
    (re, im) draw per index, in index order. With ``count``, a batch of that
    many sequences: the same draws as ``count`` successive single calls."""
    shape = (len(index_positions(n, degree)), 2)
    z = rng.standard_normal(shape if count is None else (count,) + shape) / math.sqrt(2.0)
    return CoefficientSequence.dense(n, degree, z[..., 0], z[..., 1])


def _each(c: CoefficientSequence, values: list):
    """The values of a batch, one per row, or the one value of a sequence."""
    return values if c.re.ndim == 2 else values[0]


def _exp_sums(c: CoefficientSequence, exponent) -> list[float]:
    """Per sequence, sum e^{exponent(ln|c_alpha|, positions)} over its nonzero
    entries. math.log and math.exp entry by entry: their numpy counterparts
    round differently. numpy's reduction is pairwise, and each row's terms are
    sorted by magnitude and summed as their own array (never padded, which
    would move the pairwise blocks), so wildly scaled terms stay well
    conditioned."""
    mag = np.hypot(np.atleast_2d(c.re), np.atleast_2d(c.im))  # abs(complex)
    nonzero = mag != 0
    cols = np.nonzero(nonzero)[1]
    ln_mag = np.fromiter(map(math.log, mag[nonzero].tolist()), float, len(cols))
    try:
        terms = np.fromiter(map(math.exp, exponent(ln_mag, cols).tolist()), float, len(cols))
    except OverflowError:
        raise ValueError(
            f"a weighted norm at degree {c.truncation_degree} exceeds the float range"
        ) from None
    ends = np.cumsum(np.count_nonzero(nonzero, axis=1)).tolist()
    return [float(np.sort(terms[a:b])[::-1].sum()) for a, b in zip([0] + ends, ends)]


def _dense_table(c: CoefficientSequence, table: MomentTable):
    if table.max_degree < c.truncation_degree:
        raise KeyError("moment table does not cover the truncation degree")
    return table.dense_vectors(c.truncation_degree)


def norm_sq(c: CoefficientSequence, table: MomentTable) -> float | list[float]:
    """Squared weighted norm sum |a_alpha|^2 c_alpha (diagonal Gram matrix)."""
    ln_c = _dense_table(c, table)[0]
    return _each(c, _exp_sums(c, lambda ln_m, j: 2.0 * ln_m + ln_c[j]))


def _conj_scaled(c: CoefficientSequence, scale: np.ndarray, op) -> CoefficientSequence:
    """conj(c_alpha) op scale_alpha on the present entries; an absent entry
    stays zero whatever its scale (0, or inf past the float range)."""
    re, im = c.re.copy(), -c.im
    op(re, scale, out=re, where=c.re != 0)
    op(im, scale, out=im, where=c.im != 0)
    return CoefficientSequence.dense(c.n, c.truncation_degree, re, im)


def forward_map(b: CoefficientSequence, table_phi: MomentTable) -> CoefficientSequence:
    """Transform coefficients d_alpha = c_alpha conj(b_alpha) / alpha!."""
    return _conj_scaled(b, _dense_table(b, table_phi)[2], np.multiply)


def inverse_map(d: CoefficientSequence, table_phi: MomentTable) -> CoefficientSequence:
    """Inverse g_alpha = conj(d_alpha) alpha! / c_alpha; dividing by the same
    stored scale makes inverse_map(forward_map(b)) exact to rounding."""
    return _conj_scaled(d, _dense_table(d, table_phi)[2], np.divide)


def direct_forward_norm_sq(b: CoefficientSequence, table_phi: MomentTable,
                           table_phi_star: MomentTable) -> float | list[float]:
    """||forward(b)||^2 in the dual weight's norm, summed straight from b:
    sum e^{2 (ln c_alpha + ln|b_alpha| - ln alpha!) + ln c*_alpha}."""
    ln_c, ln_fact, _ = _dense_table(b, table_phi)
    ln_c_star = _dense_table(b, table_phi_star)[0]
    return _each(b, _exp_sums(
        b, lambda ln_m, j: 2.0 * (ln_c[j] + ln_m - ln_fact[j]) + ln_c_star[j]))


class StirlingReport(NamedTuple):
    ln_ratio: float
    ln_lower: float
    ok: bool


def stirling_identity_check(phi: WeightFunction, alpha: MultiIndex,
                            cfg: NumericsConfig = DEFAULT,
                            phi_dual: Optional[WeightFunction] = None) -> StirlingReport:
    """Envelope check for the normalized conjugate-sum ratio.

    r = e^{2 (s + s*)} / alpha!^2 * (2 pi)^n / prod(alpha_j + 1), with s and
    s* the log-substituted conjugates of the weight and its dual at the
    shifted index, must lie in (prod e^{-1/(6 (alpha_j + 1))}, 1].
    """
    if phi_dual is None:
        phi_dual = dual_weight(phi, cfg)
    shifted = np.asarray(alpha.shifted(), dtype=np.float64)
    s = truncated_sup(log_image(phi), shifted, cfg).value
    s_dual = truncated_sup(log_image(phi_dual), shifted, cfg).value
    ln_ratio = (
        2.0 * (s + s_dual)
        - 2.0 * alpha.log_factorial()
        + phi.n * LN_2PI
        - float(np.sum(np.log(shifted)))
    )
    ln_lower = float(np.sum(-1.0 / (6.0 * shifted)))
    ok = (ln_ratio > ln_lower) and (ln_ratio <= 1e-12)
    return StirlingReport(ln_ratio=ln_ratio, ln_lower=ln_lower, ok=ok)


class KConditionReport(namedtuple("KConditionReport", "products K_hat")):
    """Volume products V(phi-side) V(dual-side) prod(alpha_j) over a scan range.

    K_hat is the smallest constant certifying the two-sided condition on
    the scanned set (reports state the range; the full condition ranges
    over all strictly positive indices).
    """

    __slots__ = ()

    def __new__(cls, products: dict, K_hat: float):
        if any(p <= 0 for p in products.values()):
            raise ValueError("volume products must be positive")
        return super().__new__(cls, products, K_hat)


def _half_slack_volume(w: WeightFunction, y: np.ndarray, cfg: NumericsConfig) -> float:
    spec = make_sublevel_spec(log_image(w), y, 0.5, cfg)
    return sublevel_volume(spec).value


def k_condition_scan(phi: WeightFunction, alphas,
                     cfg: NumericsConfig = DEFAULT,
                     phi_dual: Optional[WeightFunction] = None) -> KConditionReport:
    """Scan the volume-product condition over strictly positive indices."""
    if phi_dual is None:
        phi_dual = dual_weight(phi, cfg)
    products = {}
    k_hat = 1.0
    for alpha in sorted(alphas):
        if any(c < 1 for c in alpha.components):
            raise ValueError("scan indices must have strictly positive components")
        y = np.asarray(alpha.components, dtype=np.float64)
        v1 = _half_slack_volume(phi, y, cfg)
        v2 = _half_slack_volume(phi_dual, y, cfg)
        prod = v1 * v2 * float(np.prod(y))
        products[alpha] = prod
        k_hat = max(k_hat, prod, 1.0 / prod)
    return KConditionReport(products=products, K_hat=k_hat)


class BoundReport(NamedTuple):
    """The transform pair's squared operator norms against their bounds, in
    log space: ``ln_r`` holds ln r_alpha per iter_indices index, and
    ln ||forward||^2 = max ln r_alpha, ln ||inverse||^2 = max -ln r_alpha.
    Its ``ln_r`` is an array, so two reports are not compared."""

    ln_r: np.ndarray
    ln_m1: float
    ln_c_inv: float
    forward_ok: bool
    inverse_ok: bool


def isomorphism_bound_check(table_phi: MomentTable, table_phi_star: MomentTable,
                            K: float) -> BoundReport:
    """Operator bounds for the transform pair at a certified constant K, up to
    the degree of the weight's table (the dual weight's must cover it).

    Forward: ||forward(b)||^2 (dual weight) <= (2 pi)^n (1 + n!)^2 K ||b||^2.
    Inverse: for G = forward(b), ||inverse(G)||^2 <= K e^2 (2 e pi)^n ||G||^2.
    Both are decided exactly from r_alpha = c_alpha c*_alpha / alpha!^2, with
    a relative tolerance of 1e-9.
    """
    degree, n = table_phi.max_degree, table_phi.n
    ln_c, ln_fact, _ = table_phi.dense_vectors(degree)
    ln_r = ln_c + table_phi_star.dense_vectors(degree)[0] - 2.0 * ln_fact
    ln_r.flags.writeable = False
    ln_k = math.log(K)
    ln_m1 = n * LN_2PI + 2.0 * math.log1p(math.factorial(n)) + ln_k
    ln_c_inv = ln_k + 2.0 + n * (1.0 + LN_2PI)
    tol = math.log1p(1e-9)
    return BoundReport(ln_r=ln_r, ln_m1=ln_m1, ln_c_inv=ln_c_inv,
                       forward_ok=float(np.max(ln_r)) <= ln_m1 + tol,
                       inverse_ok=float(np.max(-ln_r)) <= ln_c_inv + tol)


def roundtrip_ulp_error(b: CoefficientSequence, table_phi: MomentTable) -> float | list[float]:
    """Max per-component ulp distance of inverse(forward(b)) from b."""
    back = inverse_map(forward_map(b, table_phi), table_phi)
    worst = 0.0
    for rec, ref in ((back.re, b.re), (back.im, b.im)):
        # np.spacing(|x|) is math.ulp(|x|); a NaN entry, never recovered,
        # makes its sequence's error NaN (np.maximum propagates it)
        ulp = np.where(ref != 0, np.spacing(np.abs(ref)), math.ulp(1.0))
        worst = np.maximum(worst, np.max(np.abs(rec - ref) / ulp, axis=-1))
    return _each(b, np.atleast_1d(worst).tolist())


def monomial_orthogonality_check(phi: WeightFunction, alpha: MultiIndex,
                                 beta: MultiIndex,
                                 cfg: NumericsConfig = DEFAULT,
                                 angular_nodes: int = 64) -> float:
    """|inner product of z^alpha and z^beta| by polar product quadrature.

    The integrand splits into per-axis angular harmonics times a radial
    factor; the uniform angular sums vanish to rounding whenever the
    harmonics differ, for any weight of the coordinate moduli.
    """
    if alpha == beta:
        raise ValueError("orthogonality check needs distinct indices")
    if alpha.n != phi.n or beta.n != phi.n:
        raise ValueError("multi-index dimension mismatch")
    k = np.asarray(alpha.components) - np.asarray(beta.components)
    if angular_nodes <= int(np.max(np.abs(k))):
        raise ValueError("angular grid too coarse for these harmonics")
    theta = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    angular = 1.0
    for kj in k:
        angular *= abs(np.sum(np.exp(1j * kj * theta))) * (2.0 * math.pi / angular_nodes)
    # radial factor via the log substitution: exponent <a+b+2, t> - 2 phi[e]
    y = (
        np.asarray(alpha.components, dtype=np.float64)
        + np.asarray(beta.components, dtype=np.float64)
        + 2.0
    )
    h = scale_fn(log_image(phi), 2.0)
    radial = laplace_integral(h, y, cfg)
    return float(angular * math.exp(radial.ln_value))
