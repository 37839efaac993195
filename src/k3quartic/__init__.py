"""Exact arithmetic toolkit for a one-parameter family of quartic surfaces:
isotrivial elliptic fibrations, degree-four cyclic covers, even lattices,
and the unit-disc period groups that act on them.

Importing the package executes none of its library modules.  Each one is
registered in ``sys.modules`` as a lazy module (``importlib.util.LazyLoader``)
and bound as a package attribute, so ``from k3quartic import lattices`` is
free and the module runs on its first attribute access.  The names re-exported
here resolve through ``_MODULE_OF`` (PEP 562 ``__getattr__``) and load only
their own module and its imports.  ``k3quartic.cli`` is not registered:
``python -m k3quartic.cli`` runs it as ``__main__``, and runpy warns when
the module is already in ``sys.modules``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# each library module with the names the package re-exports from it
_EXPORTS = {
    "fields": (
        "FieldContext", "FieldElement", "ReducibilityError", "eighth_root_field",
        "gaussian_field", "quartic_root_field", "sqrt_field", "with_imaginary_unit",
    ),
    "polynomials": (
        "Poly", "RationalFunction", "poly_gcd", "poly_nth_root", "rational_roots",
        "squarefree_decompose",
    ),
    "multipoly": ("MultiPoly", "QuotientContext", "QuotientFraction"),
    "quartic": (
        "ALPHA", "ALPHA_INFINITY", "Stable", "Unstable", "build_quartic",
        "singular_points", "stability",
    ),
    "fibration": (
        "WeierstrassFibration", "classify_fibers", "degeneration_model",
        "form_scaling_order", "parity_refine", "shioda_tate_bound", "standard_family",
        "twist_minimize",
    ),
    "curves": (
        "CurveMap", "CurveModel", "base_elliptic_rhs", "ec_add", "j_invariant",
        "on_curve", "quotient_map", "verify_involution",
    ),
    "periods": (
        "Inconclusive", "IsogenousToE", "NotDetected", "cm_isogeny_check",
        "period_ratio_numeric", "tau_from_cubic",
    ),
    "covers": (
        "ContainedInBranch", "CoverDoesNotSplit", "CoverSplits", "Parametrization",
        "SPLIT_PARAM_QUARTIC", "SPLIT_PARAM_SEXTIC", "displayed_section",
        "fourth_power_test", "verify_cover_map",
    ),
    "lattices": (
        "Obstructed", "RealizationVector", "gram_build", "kummer_tn",
        "lattice_invariants", "neron_severi_gram", "rank4_classification_check",
        "tn_gram", "tn_search", "transcendental_gram",
    ),
    "moduli": (
        "GroupMembershipReport", "cayley", "fricke_checks", "gaussian_form_check",
        "inverse_cayley", "membership", "period_point", "su11_samples",
    ),
    "report": (),
    "serialize": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def _register_lazily(short):
    """Put k3quartic.<short> into sys.modules unexecuted: its code runs on the
    first attribute access (the recipe of the importlib documentation)."""
    spec = importlib.util.find_spec("%s.%s" % (__name__, short))
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


for _short in _EXPORTS:
    globals()[_short] = _register_lazily(_short)
del _short


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
