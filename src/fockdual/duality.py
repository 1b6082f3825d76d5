"""Coefficient-level duality: the diagonal transform pair, the Stirling
envelope, the volume-product condition and the operator bounds.

A continuous functional with Riesz representer sum b_alpha z^alpha has
transform coefficients d_alpha = c_alpha(phi) conj(b_alpha) / alpha!; the
inverse recovers g_alpha = conj(d_alpha) alpha! / c_alpha(phi). Bounding
these maps between the weighted sequence norms is exactly what the
volume-product condition certifies. The weight depends only on the moduli,
so the monomials are orthogonal and the pair is diagonal: its squared
operator norms are max r_alpha and max 1 / r_alpha, with
ln r_alpha = ln c_alpha + ln c*_alpha - 2 ln alpha!. The operator bounds
compare these in log space, from the moment tables alone, at any degree.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional

import numpy as np

from .config import DEFAULT, NumericsConfig
from .fenchel import dual_weight, log_image, prefetch_sups, truncated_sup
from .laplace import make_sublevel_spec, sublevel_volume
from .moments import LN_2PI, MomentTable, MultiIndex
from .weights import WeightFunction


class CoefficientSequence(namedtuple("CoefficientSequence", "n truncation_degree re im")):
    """Coefficients alpha -> re + i im with read-only float arrays, one entry
    per iter_indices(n, truncation_degree) index, in that order. An entry
    that is exactly zero is absent."""

    __slots__ = ()

    def __new__(cls, n: int, truncation_degree: int, re: np.ndarray, im: np.ndarray):
        re.flags.writeable = False
        im.flags.writeable = False
        return super().__new__(cls, n, truncation_degree, re, im)


def _dense_table(c: CoefficientSequence, table: MomentTable):
    if table.max_degree < c.truncation_degree:
        raise KeyError("moment table does not cover the truncation degree")
    return table.dense_vectors(c.truncation_degree)


def _conj_scaled(c: CoefficientSequence, scale: np.ndarray, op) -> CoefficientSequence:
    """conj(c_alpha) op scale_alpha on the present entries; an absent entry
    stays zero whatever its scale (0, or inf past the float range)."""
    re, im = c.re.copy(), -c.im
    op(re, scale, out=re, where=c.re != 0)
    op(im, scale, out=im, where=c.im != 0)
    return CoefficientSequence(c.n, c.truncation_degree, re, im)


def forward_map(b: CoefficientSequence, table_phi: MomentTable) -> CoefficientSequence:
    """Transform coefficients d_alpha = c_alpha conj(b_alpha) / alpha!."""
    return _conj_scaled(b, _dense_table(b, table_phi)[2], np.multiply)


def inverse_map(d: CoefficientSequence, table_phi: MomentTable) -> CoefficientSequence:
    """Inverse g_alpha = conj(d_alpha) alpha! / c_alpha; dividing by the same
    stored scale makes inverse_map(forward_map(b)) exact to rounding."""
    return _conj_scaled(d, _dense_table(d, table_phi)[2], np.divide)


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
    alphas = sorted(alphas)
    for w in (phi, phi_dual):
        prefetch_sups(log_image(w), [a.components for a in alphas], cfg)
    products = {}
    k_hat = 1.0
    for alpha in alphas:
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


def roundtrip_ulp_error(b: CoefficientSequence, table_phi: MomentTable) -> float:
    """Max per-component ulp distance of inverse(forward(b)) from b."""
    back = inverse_map(forward_map(b, table_phi), table_phi)
    worst = 0.0
    for rec, ref in ((back.re, b.re), (back.im, b.im)):
        # np.spacing(|x|) is math.ulp(|x|); a NaN entry, never recovered,
        # makes the error NaN (np.maximum propagates it)
        ulp = np.where(ref != 0, np.spacing(np.abs(ref)), math.ulp(1.0))
        worst = np.maximum(worst, np.max(np.abs(rec - ref) / ulp))
    return float(worst)
