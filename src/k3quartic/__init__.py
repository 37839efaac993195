"""Exact arithmetic toolkit for a one-parameter family of quartic surfaces:
isotrivial elliptic fibrations, degree-four cyclic covers, even lattices,
and the unit-disc period groups that act on them.
"""

__version__ = "0.1.0"

from .fields import (
    FieldContext,
    FieldElement,
    ReducibilityError,
    eighth_root_field,
    gaussian_field,
    quartic_root_field,
    sqrt_field,
    with_imaginary_unit,
)
from .polynomials import (
    Poly,
    RationalFunction,
    poly_gcd,
    poly_nth_root,
    rational_roots,
    squarefree_decompose,
)
from .multipoly import MultiPoly, QuotientContext, QuotientFraction
from .quartic import (
    ALPHA,
    ALPHA_INFINITY,
    Stable,
    Unstable,
    build_quartic,
    singular_points,
    stability,
)
from .fibration import (
    WeierstrassFibration,
    classify_fibers,
    degeneration_model,
    form_scaling_order,
    parity_refine,
    shioda_tate_bound,
    standard_family,
    twist_minimize,
)
from .curves import (
    CurveMap,
    CurveModel,
    base_elliptic_rhs,
    ec_add,
    ec_neg,
    j_invariant,
    on_curve,
    quotient_map,
    verify_involution,
    verify_map,
)
from .periods import (
    Inconclusive,
    IsogenousToE,
    NotDetected,
    cm_isogeny_check,
    period_ratio_numeric,
    tau_from_cubic,
)
from .covers import (
    ContainedInBranch,
    CoverDoesNotSplit,
    CoverSplits,
    Parametrization,
    SPLIT_PARAM_QUARTIC,
    SPLIT_PARAM_SEXTIC,
    displayed_section,
    fourth_power_test,
    lift_two_section,
    sum_sections,
    verify_cover_map,
)
from .lattices import (
    Obstructed,
    RealizationVector,
    gram_build,
    kummer_tn,
    lattice_invariants,
    neron_severi_gram,
    rank4_classification_check,
    smith_normal_form,
    tn_gram,
    tn_search,
    transcendental_gram,
)
from .moduli import (
    GroupMembershipReport,
    cayley,
    fricke_checks,
    gaussian_form_check,
    inverse_cayley,
    membership,
    period_point,
    su11_samples,
)
