"""Numerical toolkit for weighted Fock-type spaces: Fenchel conjugation,
Laplace-integral sandwich bounds, monomial moments, and the coefficient-level
duality transform with its operator bounds."""

from .config import DEFAULT, NumericsConfig
from .duality import (
    BoundReport,
    CoefficientSequence,
    KConditionReport,
    StirlingReport,
    forward_map,
    inverse_map,
    isomorphism_bound_check,
    k_condition_scan,
    monomial_orthogonality_check,
    norm_sq,
    random_sequence,
    roundtrip_ulp_error,
    stirling_identity_check,
)
from .fenchel import (
    DivergenceError,
    DivergenceProfile,
    GridAxis,
    GridFn,
    IdentityReport,
    SampledFunction,
    conjugate_nd,
    divergence_profile,
    dual_weight,
    log_conj,
    log_image,
    numeric_dual_weight,
    symmetrized_fn,
    truncated_sup,
    verify_identities,
)
from .laplace import (
    IntegralEstimate,
    SandwichReport,
    SublevelSpec,
    VolumeEstimate,
    laplace_integral,
    make_sublevel_spec,
    sandwich_check,
    sublevel_volume,
)
from .moments import (
    FockMoment,
    GrowthReport,
    Lemma2Report,
    Lemma4Report,
    MomentEntry,
    MomentTable,
    MultiIndex,
    fock_oracle,
    growth_floor,
    iter_indices,
    lemma2_check,
    lemma4_check,
    moment,
    moment_table,
)
from .weights import (
    ClassVReport,
    PowerTerm,
    WeightFunction,
    WeightSpecError,
    convexity_violation,
    make_fock,
    make_separable_power,
    parse_preset,
    validate_class_V,
    weight_from_json,
)

__version__ = "0.1.0"
