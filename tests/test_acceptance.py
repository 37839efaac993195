"""End-to-end acceptance checklist, read off the ``verify all`` ledger.

Each headline result of the paper is one criterion: a number, a label and
the names of the ``cli.CHECKS`` entries that certify it.  The ledger is
built once per module through ``cli.cmd_verify``, so a check that raises is
recorded as a failure with the exception as its detail, exactly as
``k3quartic verify`` reports it.  Every ledger entry is claimed by some
criterion.  Each criterion prints one PASS or FAIL line, so
`pytest -v -s tests/test_acceptance.py` reads as a checklist.

The checks themselves are defined once, in ``cli``; their detail strings
are pinned by the golden ``verify all --json`` hash in ``tests/test_cli.py``.
"""

import argparse

import pytest

from k3quartic import cli

# criterion number -> (label, the ledger entries that certify it)
CRITERIA = {
    1: ("generic fiber table, Euler number 24",
        ["generic_fiber_table", "generic_euler_number"]),
    2: ("both degenerations verified, form scaling has order 8",
        ["degeneration_at_infinity", "degeneration_at_zero", "form_scaling_order_eight"]),
    3: ("Picard bounds 18, 19, 20", ["picard_bound_chain"]),
    4: ("both parametrizations split with profile {4,4,4}",
        ["sextic_parametrization_splits", "quartic_parametrization_splits"]),
    5: ("two-section sum matches the displayed section",
        ["section_matches_closed_form", "section_all_root_choices"]),
    6: ("symbolic identity suite, all residuals zero",
        ["pencil_substitution", "chart_sign_convention", "weierstrass_reduction_chain",
         "cover_map_identity", "curve_identity_suite"]),
    7: ("lattice invariants and rank-4 classification",
        ["neron_severi_invariants", "transcendental_invariants",
         "rank_four_classification"]),
    8: ("transcendental realizations for n <= 100",
        ["tn_instances", "tn_residue_sweep", "tn_obstruction_evidence",
         "kummer_products"]),
    9: ("modular group identities, exact Cayley round-trip, period domain examples",
        ["fricke_identities", "cayley_round_trip", "period_domain_examples"]),
    10: ("square period ratio, j = 1728, conductor-1 isogeny", ["cm_square_lattice"]),
}


@pytest.fixture(scope="module")
def ledger():
    report = cli.cmd_verify(argparse.Namespace(suite="all"))
    return {e["checkName"]: e for e in report["verificationLedger"]}


def _check(ledger, num):
    """Print the criterion's checklist line; fail naming each entry that is
    missing or failed, with its detail."""
    label, names = CRITERIA[num]
    bad = ["%s: %s" % (n, ledger[n]["detail"] if n in ledger else "not in the ledger")
           for n in names if not (n in ledger and ledger[n]["pass"])]
    print("criterion %02d %s  %s" % (num, "FAIL" if bad else "PASS", label))
    assert not bad, "criterion %d failed: %s" % (num, "; ".join(bad))


def test_01_generic_fiber_table(ledger):
    _check(ledger, 1)


def test_02_degenerations_and_form_scaling(ledger):
    _check(ledger, 2)


def test_03_picard_bound_chain(ledger):
    _check(ledger, 3)


def test_04_both_splitting_curves(ledger):
    _check(ledger, 4)


def test_05_two_section_sum_matches_display(ledger):
    _check(ledger, 5)


def test_06_symbolic_identity_suite(ledger):
    _check(ledger, 6)


def test_07_lattice_invariants_and_rank4(ledger):
    _check(ledger, 7)


def test_08_transcendental_realizations(ledger):
    _check(ledger, 8)


def test_09_modular_identities_and_cayley(ledger):
    _check(ledger, 9)


def test_10_square_period_and_cm(ledger):
    _check(ledger, 10)


def test_every_ledger_entry_is_claimed():
    claimed = {n for _, names in CRITERIA.values() for n in names}
    assert claimed == {name for name, _ in cli.CHECKS}
