"""Each command executes only the package modules it calls, mpmath is loaded
only by the code that computes a period, and the test-only oracles sympy and
hypothesis by no command at all.

Each case runs in a fresh interpreter: this test process has already imported
mpmath through the periods tests, and every package module through the others.
"""

import os
import subprocess
import sys

import pytest

from k3quartic.cli import SUITES

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# public names by their modules, frozen: each has the one import path
# k3quartic.<module>.<name>, and none resolves from the package root
FORMER_PACKAGE_NAMES = {
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
}

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


# runs cli.main(argv) and prints the k3quartic modules that got executed: a
# registered module that never ran is still an importlib.util._LazyModule
EXECUTED_SCRIPT = """\
import sys, types
from k3quartic.cli import main
code = main(sys.argv[1:] + ["--json"])
sys.stderr.write("executed: %s\\n" % " ".join(sorted(
    m for m, v in sys.modules.items()
    if m.startswith("k3quartic.") and type(v) is types.ModuleType)))
sys.exit(code)
"""

FRONT_END = "k3quartic.cli k3quartic.report k3quartic.serialize"

# the library modules each subcommand executes besides FRONT_END, and its exit
EXECUTED_MODULES = [
    (("analyze", "81/49"), "fibration multipoly polynomials quartic zx", 0),
    (("fibers", "81/49"), "fibration multipoly polynomials quartic zx", 0),
    (("verify", "fibers"), "fibration multipoly polynomials quartic zx", 0),
    (("verify", "chain"), "fibration multipoly polynomials quartic zx", 0),
    (("verify", "pencil"), "multipoly polynomials quartic zx", 0),
    (("lattice", "invariants", "--gram", "N"), "lattices", 0),
    (("lattice", "tn", "--n", "7"), "lattices", 0),
    (("split",), "covers curves fields multipoly polynomials quartic zx", 0),
    (("verify", "cover"), "covers curves fields multipoly polynomials quartic zx", 0),
    (("moduli", "--check", "all"), "fields lattices moduli polynomials zx", 0),
    (("cm", "--beta4", "7/9"), "curves fields multipoly periods polynomials zx", 0),
    (("analyze", "1/2/3"), "", 2),
]


@pytest.mark.parametrize("argv, modules, code", EXECUTED_MODULES,
                         ids=[" ".join(argv) for argv, _, _ in EXECUTED_MODULES])
def test_subcommand_executes_only_its_modules(argv, modules, code):
    proc = python("-c", EXECUTED_SCRIPT, *argv)
    assert proc.returncode == code, proc.stderr
    executed = proc.stderr.splitlines()[-1].split()
    assert executed[0] == "executed:"
    assert sorted(executed[1:]) == sorted(
        FRONT_END.split() + ["k3quartic.%s" % m for m in modules.split()])


def test_package_import_executes_no_module():
    proc = python("-c", "import sys, types, k3quartic\n"
                        "from k3quartic import lattices, moduli\n"
                        "print(' '.join(sorted(m for m, v in sys.modules.items()\n"
                        "    if m.startswith('k3quartic.') and type(v) is types.ModuleType)))\n"
                        "print(' '.join(sorted(m for m in sys.modules\n"
                        "    if m.startswith('k3quartic.'))))")
    assert proc.returncode == 0, proc.stderr
    executed, registered = proc.stdout.split("\n")[:2]
    assert executed == ""
    # every library module is registered, so that walking sys.modules finds
    # them all; cli is not, since python -m k3quartic.cli runs it as __main__
    assert registered.split() == ["k3quartic.%s" % m for m in (
        "covers", "curves", "fibration", "fields", "lattices", "moduli", "multipoly",
        "periods", "polynomials", "quartic", "report", "serialize", "zx")]


def test_package_names_resolve_to_their_modules():
    import importlib

    import k3quartic
    for module, names in FORMER_PACKAGE_NAMES.items():
        owner = importlib.import_module("k3quartic." + module)
        for name in names:
            assert hasattr(owner, name), (module, name)
            assert not hasattr(k3quartic, name), name
    with pytest.raises(AttributeError, match="no attribute 'tn_search'"):
        k3quartic.tn_search


def test_module_run_raises_no_warning():
    # runpy warns when k3quartic.cli is in sys.modules before it runs as __main__
    proc = python("-W", "error", "-m", "k3quartic.cli", "lattice", "tn", "--n", "7", "--json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_names_import_without_mpmath():
    imports = "".join("from k3quartic.%s import %s\n" % (module, ", ".join(names))
                      for module, names in FORMER_PACKAGE_NAMES.items())
    proc = python("-c", "import sys\n" + imports + "assert 'mpmath' not in sys.modules")
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
