"""mpmath is loaded only by the code that computes a period, and the test-only
oracles sympy and hypothesis by no command at all.

Each case runs in a fresh interpreter: this test process has already imported
mpmath through the periods tests.
"""

import os
import subprocess
import sys

import pytest

from k3quartic.cli import SUITES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every name the package re-exported when mpmath became a deferred import
PACKAGE_NAMES = (
    "FieldContext", "FieldElement", "ReducibilityError", "eighth_root_field",
    "gaussian_field", "quartic_root_field", "sqrt_field", "with_imaginary_unit",
    "Poly", "RationalFunction", "poly_gcd", "poly_nth_root", "rational_roots",
    "squarefree_decompose",
    "MultiPoly", "QuotientContext", "QuotientFraction",
    "ALPHA", "ALPHA_INFINITY", "Stable", "Unstable", "build_quartic",
    "singular_points", "stability",
    "WeierstrassFibration", "classify_fibers", "degeneration_model",
    "form_scaling_order", "parity_refine", "shioda_tate_bound", "standard_family",
    "twist_minimize",
    "CurveMap", "CurveModel", "base_elliptic_rhs", "ec_add", "ec_neg",
    "j_invariant", "on_curve", "quotient_map", "verify_involution", "verify_map",
    "Inconclusive", "IsogenousToE", "NotDetected", "cm_isogeny_check",
    "period_ratio_numeric", "tau_from_cubic",
    "ContainedInBranch", "CoverDoesNotSplit", "CoverSplits", "Parametrization",
    "SPLIT_PARAM_QUARTIC", "SPLIT_PARAM_SEXTIC", "displayed_section",
    "fourth_power_test", "lift_two_section", "sum_sections", "verify_cover_map",
    "Obstructed", "RealizationVector", "gram_build", "kummer_tn",
    "lattice_invariants", "neron_severi_gram", "rank4_classification_check",
    "smith_normal_form", "tn_gram", "tn_search", "transcendental_gram",
    "GroupMembershipReport", "cayley", "fricke_checks", "gaussian_form_check",
    "inverse_cayley", "membership", "period_point", "su11_samples",
)

# runs cli.main(argv) and reports on stderr whether mpmath and the test-only
# oracles got loaded
MAIN_SCRIPT = """\
import sys
from k3quartic.cli import main
code = main(sys.argv[1:] + ["--json"])
sys.stderr.write("mpmath loaded: %s\\n" % ("mpmath" in sys.modules))
sys.stderr.write("oracles loaded: %s\\n"
                 % [m for m in ("sympy", "hypothesis") if m in sys.modules])
sys.exit(code)
"""

EXACT_COMMANDS = [
    ("analyze", "81/49"),
    ("fibers", "81/49"),
    ("lattice", "invariants", "--gram", "N"),
    ("lattice", "tn", "--n", "7"),
    ("split",),
    ("moduli", "--check", "all"),
] + [("verify", suite) for suite in SUITES if suite not in ("cm", "all")]

NUMERIC_COMMANDS = [("cm", "--beta4", "7/9"), ("verify", "cm")]


def python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=env)


@pytest.mark.parametrize("module", ["k3quartic", "k3quartic.cli"])
def test_import_leaves_mpmath_unloaded(module):
    proc = python("-c", "import sys, %s; assert 'mpmath' not in sys.modules" % module)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_every_package_module():
    proc = python("-c", "import sys, k3quartic.cli; print(' '.join(sorted("
                        "m for m in sys.modules if m.startswith('k3quartic.'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "k3quartic.%s" % m for m in (
            "cli", "covers", "curves", "fibration", "fields", "lattices", "moduli",
            "multipoly", "periods", "polynomials", "quartic", "report", "serialize")]


def test_package_names_import_without_mpmath():
    proc = python("-c", "import sys\nfrom k3quartic import %s\n"
                        "assert 'mpmath' not in sys.modules" % ", ".join(PACKAGE_NAMES))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_command_leaves_mpmath_unloaded(argv):
    proc = python("-c", MAIN_SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "mpmath loaded: False\noracles loaded: []\n"


@pytest.mark.parametrize("argv", NUMERIC_COMMANDS, ids=" ".join)
def test_numeric_command_loads_mpmath(argv):
    proc = python("-c", MAIN_SCRIPT, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "mpmath loaded: True\noracles loaded: []\n"
