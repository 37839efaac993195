"""Command line front end.

Subcommands cover the analysis pipeline (analyze, fibers), lattice data
(lattice invariants, lattice tn), splitting tests (split), the numeric CM
channel (cm), the matrix-group suite (moduli), and the full verification
ledger (verify).  Every command emits a report with a verification ledger;
exit status is 0 when all entries pass, 1 when any fails, 2 on usage errors.
Reports render as stable JSON: sorted keys, rationals as strings, no
timestamps.
"""

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import (covers, curves, fibration, fields, lattices, moduli, periods, polynomials,
               quartic)
from .report import Ledger, build_report, render_json, render_text
from .serialize import parse_rat, rat_str


class UsageError(Exception):
    pass


def _parse_alpha(text):
    if text is None:
        raise UsageError("an alpha value is required (a rational p/q, or 'inf')")
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return quartic.ALPHA_INFINITY
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("cannot parse %r as a rational number" % text)


def _alpha_from_args(args):
    if args.alpha_pos is not None and args.alpha is not None:
        raise UsageError("give alpha once, either positionally or via --alpha")
    return _parse_alpha(args.alpha_pos if args.alpha_pos is not None else args.alpha)


def _parse_rational_flag(text, flag):
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("cannot parse %r as a rational number for %s" % (text, flag))


def _alpha_str(alpha):
    return "inf" if alpha is quartic.ALPHA_INFINITY else rat_str(alpha)


# -- encoders -----------------------------------------------------------------


def _encode_fiber(fb):
    loc = fb.location if isinstance(fb.location, str) else str(fb.location)
    return {
        "location": loc,
        "degree": fb.degree,
        "type": fb.type,
        "euler": fb.euler,
        "components": fb.components,
        "certified": fb.certified,
    }


def _encode_singular_point(entry):
    out = {"components": list(entry["components"])}
    if "point" in entry:
        out["point"] = [str(c) for c in entry["point"]]
        out["node"] = entry["node"]
    else:
        out["quadratic"] = str(entry["quadratic"])
        out["discriminant"] = rat_str(entry["discriminant"])
        out["degree"] = entry["degree"]
    return out


def _encode_split_verdict(verdict):
    if isinstance(verdict, covers.ContainedInBranch):
        return {"verdict": "ContainedInBranch"}
    out = {
        "verdict": "Splits" if isinstance(verdict, covers.CoverSplits) else "DoesNotSplit",
        "profile": list(verdict.profile),
        "places": [
            {"factor": str(p), "multiplicity": m} for p, m in verdict.places
        ],
    }
    if isinstance(verdict, covers.CoverSplits):
        out["constant"] = rat_str(verdict.constant)
        out["constantFourthPower"] = (
            None if verdict.constant_fourth_power is None
            else rat_str(verdict.constant_fourth_power))
        out["degreeMod4"] = verdict.degree_mod_4
    return out


def _encode_cm_verdict(res):
    import mpmath
    if isinstance(res, periods.IsogenousToE):
        return {
            "kind": "IsogenousToE",
            "conductor": res.conductor,
            "witness": list(res.witness),
            "residual": mpmath.nstr(res.residual, 8),
        }
    if isinstance(res, periods.NotDetected):
        return {
            "kind": "NotDetected",
            "reason": res.reason,
            "witness": list(res.witness) if res.witness else None,
        }
    return {"kind": "Inconclusive", "detail": res.detail}


def _encode_invariants(inv):
    return {
        "rank": inv.rank,
        "signature": list(inv.signature),
        "determinant": rat_str(inv.determinant),
        "invariantFactors": [rat_str(d) for d in inv.invariant_factors],
        "ell": inv.ell,
        "twoElementary": inv.two_elementary,
        "delta": inv.delta,
    }


# -- the verification registry --------------------------------------------------

GENERIC_TABLE = ["I0*", "I0*", "III", "III*"]


def _fmt_types(cfg):
    return ",".join(cfg.type_multiset())


def check_pencil_substitution():
    ok, residual = quartic.pencil_substitution_check()
    return ok, "residual %s" % residual


def check_chart_sign():
    return quartic.chart_sign_check(), ""


def check_reduction_chain():
    d = fibration.verify_reduction_chain()
    bad = sorted(k for k, v in d.items() if not v)
    if bad:
        return False, "nonzero residuals: %s" % ", ".join(bad)
    return True, "all %d residuals zero" % len(d)


def check_generic_fiber_table():
    cfg = fibration.classify_fibers(fibration.standard_family())
    ok = cfg.type_multiset() == GENERIC_TABLE and all(fb.certified for fb in cfg.fibers)
    return ok, _fmt_types(cfg)


def check_generic_euler():
    cfg = fibration.classify_fibers(fibration.standard_family())
    return cfg.total_euler == 24, "euler %d" % cfg.total_euler


def check_degeneration_at_infinity():
    d = fibration.degeneration_model("AtInfinity")
    cfg = fibration.classify_fibers(d["beta_zero_member"])
    ok = (d["chain_residual_zero"] and cfg.type_multiset() == GENERIC_TABLE
          and cfg.total_euler == 24)
    return ok, "beta=0 table %s, euler %d" % (_fmt_types(cfg), cfg.total_euler)


def check_degeneration_at_zero():
    d = fibration.degeneration_model("AtZero")
    cfg = fibration.classify_fibers(d["beta_zero_member"])
    bound = fibration.shioda_tate_bound(cfg)
    ok = (d["chain_residual_zero"] and cfg.type_multiset() == ["I0*", "III*", "III*"]
          and cfg.total_euler == 24 and bound == 20)
    return ok, "beta=0 table %s, euler %d, bound %d" % (
        _fmt_types(cfg), cfg.total_euler, bound)


def check_form_scaling_order():
    K = fields.eighth_root_field()
    z8 = K.gen()
    lam = polynomials.Poly.x("lam")
    f0 = lam ** 3 * (lam ** 2 + 1) ** 2
    s, order = fibration.form_scaling_order(z8 ** 2, z8 ** 3, K.from_rational(-1), f0)
    return order == 8, "scaling factor %s of order %d" % (s, order)


def check_picard_bounds():
    cfg = fibration.classify_fibers(fibration.standard_family(alpha=Fraction(81, 49)))
    b0 = fibration.shioda_tate_bound(cfg)
    b1 = fibration.shioda_tate_bound(cfg, mw_rank=1)
    b2 = fibration.parity_refine(b1)
    ok = (b0, b1, b2) == (18, 19, 20)
    return ok, "bounds %d -> %d -> %d" % (b0, b1, b2)


def check_cover_map():
    ok, residual = covers.verify_cover_map()
    return ok, "residual %s" % residual


def _check_split(param, factor_checker):
    verdict = covers.fourth_power_test(param)
    profile = list(getattr(verdict, "profile", []))
    ok = isinstance(verdict, covers.CoverSplits) and profile == [4, 4, 4]
    flags = factor_checker()
    bad = sorted(k for k, v in flags.items() if not v)
    if bad:
        return False, "factor display mismatch: %s" % ", ".join(bad)
    return ok, "profile %s, displayed factors verified" % profile


def check_sextic_split():
    return _check_split(covers.SPLIT_PARAM_SEXTIC, covers.sextic_factor_check)


def check_quartic_split():
    return _check_split(covers.SPLIT_PARAM_QUARTIC, covers.quartic_factor_check)


def check_section_display():
    twist = covers.twist_lift(covers.SPLIT_PARAM_SEXTIC)
    s = covers.sum_at_root_choice(covers.twist_sum(twist), twist.s, 2)
    d = covers.displayed_section()
    ok = s["on_curve"] and s["u"] == d["u"] and s["v"] == d["v"]
    return ok, "closed form matched, residual 0" if ok else "section differs"


def check_section_roots():
    # the Q-level lift and sum once, then one scaling per fourth-root choice
    twist = covers.twist_lift(covers.SPLIT_PARAM_SEXTIC)
    total = covers.twist_sum(twist)
    bad = [k for k in range(4)
           if not covers.sum_at_root_choice(total, twist.s, k)["on_curve"]]
    if bad:
        return False, "off-curve at root choices %s" % bad
    return True, "all 4 fourth-root choices land on the curve"


def check_curve_identities():
    results = {}
    results["quotient_map"] = curves.quotient_map().verify()[0]
    results["rho_inversion_involution"] = curves.verify_involution(curves.rho_inversion())[0]
    results["order_four_twist"] = curves.automorphism_order(curves.order_four_twist()) == 4
    results["cubic_model_isomorphism"] = curves.cubic_to_exponent_four().verify()[0]
    results["quarter_turn_order_four"] = curves.automorphism_order(curves.quarter_turn()) == 4
    results["genus2_rescale"] = curves.rescale_genus2_check()
    results["quotient_negation"] = curves.quotient_negation_check()
    bad = sorted(k for k, v in results.items() if not v)
    if bad:
        return False, "failed: %s" % ", ".join(bad)
    return True, "%d identities, residuals zero" % len(results)


def _check_invariants(gram, expected):
    """expected is (rank, signature, |det|, ell, delta) of a 2-elementary lattice."""
    inv = lattices.lattice_invariants(gram)
    got = (inv.rank, inv.signature, abs(inv.determinant), inv.ell, inv.delta)
    return (got == expected and inv.two_elementary,
            "rank %d, signature %s, |det| %d, ell %d, delta %s" % got)


def check_ns_invariants():
    return _check_invariants(lattices.neron_severi_gram(), (18, (1, 17), 16, 4, 1))


def check_t_invariants():
    return _check_invariants(lattices.transcendental_gram(), (4, (2, 2), 16, 4, 1))


def check_rank4():
    c = lattices.rank4_classification_check()
    counts = (len(c.survivors), len(c.delta_one), len(c.delta_zero))
    ok = (counts == (142, 90, 52) and c.canonical == [(-1, 1), (1, -1)]
          and c.det_identity and c.all_certified)
    return ok, "survivors %d, delta=1 %d (all certified), canonical %s" % (
        counts[0], counts[1], c.canonical)


def check_tn_instances():
    expected = {1: (1, 0, 0, 0), 3: (2, 0, 1, 0), 4: (2, 1, 1, 0), 7: (4, 0, 3, 0)}
    for n in sorted(expected):
        v = lattices.tn_search(n)
        if (isinstance(v, lattices.Obstructed) or v.a != expected[n]
                or v.gram() != lattices.tn_gram(n)):
            return False, "n=%d gave %r" % (n, v)
    return True, "n = 1, 3, 4, 7 realized with diagonal pair Grams"


def check_tn_sweep():
    bad = []
    for n in range(1, 101):
        v = lattices.tn_search(n)
        if n % 4 == 2:
            if not isinstance(v, lattices.Obstructed):
                bad.append(n)
        elif (isinstance(v, lattices.Obstructed) or v.gcd != 1
              or v.gram() != lattices.tn_gram(n)):
            bad.append(n)
    if bad:
        return False, "inconsistent at n = %s" % bad
    return True, "n <= 100: realized unless n = 2 mod 4, always obstructed there"


def check_tn_evidence():
    for n in (2, 6, 10, 14):
        v = lattices.tn_search(n, evidence_bound=12)
        if not isinstance(v, lattices.Obstructed) or v.evidence is None:
            return False, "n=%d missing evidence" % n
        ev = v.evidence
        if ev["bound"] != 12 or ev["primitive_found"] != 0:
            return False, "n=%d evidence %r" % (n, ev)
        if not any("mod 4" in line for line in v.transcript):
            return False, "n=%d transcript lacks residue argument" % n
    return True, "exhaustive search empty at |a_i| <= 12 for n = 2, 6, 10, 14"


def check_kummer():
    def obstructed(n):
        return isinstance(lattices.tn_search(n), lattices.Obstructed)

    ok = (lattices.kummer_tn(1) == lattices.tn_gram(2) and obstructed(2)
          and lattices.kummer_tn(2) == lattices.tn_gram(4) and not obstructed(4)
          and lattices.kummer_tn(3) == lattices.tn_gram(6) and obstructed(6))
    return ok, "m=1 and m=3 products excluded, m=2 realized"


def check_fricke_bundle():
    checks = moduli.fricke_checks()
    bad = sorted(k for k, (ok, w) in checks.items() if not ok)
    if bad:
        return False, "failed: %s" % ", ".join(bad)
    return True, "%d identities verified" % len(checks)


def _cayley_round_trip():
    """The su11_samples(100) words, their cayley images, and how many samples
    miss inverse_cayley(cayley(m)) == m."""
    samples = moduli.su11_samples(100)
    images = [moduli.cayley(m) for m in samples]
    bad = sum(1 for m, g in zip(samples, images)
              if not moduli.m_eq(moduli.inverse_cayley(g), m))
    return samples, images, bad


def check_cayley_roundtrip():
    samples, _, bad = _cayley_round_trip()
    if bad:
        return False, "%d of %d samples failed the round trip" % (bad, len(samples))
    return True, "%d samples round-trip exactly" % len(samples)


def check_period_examples():
    p0, p1, p2 = (p for _, p in moduli.period_examples())
    verdicts = (p0.verdict, p1.verdict, p2.verdict)
    ok = (verdicts == ("inside", "boundary", "inside") and p2.form_value == 12
          and all(p.eigenvector_ok and p.ball_consistent for p in (p0, p1, p2)))
    g = moduli.gaussian_form_check()
    gram_bad = sorted(k for k, v in g.items() if not v)
    if gram_bad:
        return False, "form checks failed: %s" % ", ".join(gram_bad)
    return ok, "verdicts %s/%s/%s, form value 12, Gram checks pass" % verdicts


def check_cm_square_lattice():
    import mpmath
    pr = periods.period_ratio_numeric(1, 0, -1, precision_bits=128)
    dist = abs(pr.tau - mpmath.mpc(0, 1))
    close = dist < mpmath.mpf("1e-12")
    rhs = curves.base_elliptic_rhs(Fraction(7, 9))
    j = curves.j_invariant(rhs)
    res = periods.cm_isogeny_check(periods.tau_from_cubic(rhs, precision_bits=128).tau,
                                   precision_bits=128)
    ok = (close and j == 1728 and isinstance(res, periods.IsogenousToE)
          and res.conductor == 1)
    return ok, "|tau - i| = %s, j = %s, verdict %r" % (
        mpmath.nstr(dist, 5), rat_str(j), res)


CHECKS = (
    ("pencil_substitution", check_pencil_substitution),
    ("chart_sign_convention", check_chart_sign),
    ("weierstrass_reduction_chain", check_reduction_chain),
    ("generic_fiber_table", check_generic_fiber_table),
    ("generic_euler_number", check_generic_euler),
    ("degeneration_at_infinity", check_degeneration_at_infinity),
    ("degeneration_at_zero", check_degeneration_at_zero),
    ("form_scaling_order_eight", check_form_scaling_order),
    ("picard_bound_chain", check_picard_bounds),
    ("cover_map_identity", check_cover_map),
    ("sextic_parametrization_splits", check_sextic_split),
    ("quartic_parametrization_splits", check_quartic_split),
    ("section_matches_closed_form", check_section_display),
    ("section_all_root_choices", check_section_roots),
    ("curve_identity_suite", check_curve_identities),
    ("neron_severi_invariants", check_ns_invariants),
    ("transcendental_invariants", check_t_invariants),
    ("rank_four_classification", check_rank4),
    ("tn_instances", check_tn_instances),
    ("tn_residue_sweep", check_tn_sweep),
    ("tn_obstruction_evidence", check_tn_evidence),
    ("kummer_products", check_kummer),
    ("fricke_identities", check_fricke_bundle),
    ("cayley_round_trip", check_cayley_roundtrip),
    ("period_domain_examples", check_period_examples),
    ("cm_square_lattice", check_cm_square_lattice),
)

_CHECK_BY_NAME = dict(CHECKS)

SUITES = {
    "all": [name for name, _ in CHECKS],
    "pencil": ["pencil_substitution", "chart_sign_convention"],
    "chain": ["weierstrass_reduction_chain"],
    "fibers": ["generic_fiber_table", "generic_euler_number",
               "picard_bound_chain"],
    "degenerations": ["degeneration_at_infinity", "degeneration_at_zero",
                      "form_scaling_order_eight"],
    "cover": ["cover_map_identity", "pencil_substitution"],
    "split": ["sextic_parametrization_splits", "quartic_parametrization_splits"],
    "sections": ["section_matches_closed_form", "section_all_root_choices"],
    "curves": ["curve_identity_suite"],
    "lattices": ["neron_severi_invariants", "transcendental_invariants",
                 "rank_four_classification"],
    "tn": ["tn_instances", "tn_residue_sweep", "tn_obstruction_evidence",
           "kummer_products"],
    "fricke": ["fricke_identities"],
    "cayley": ["cayley_round_trip"],
    "period": ["period_domain_examples"],
    "cm": ["cm_square_lattice"],
    "moduli": ["fricke_identities", "cayley_round_trip",
               "period_domain_examples"],
}


# -- subcommand handlers --------------------------------------------------------


def _family_report(command, alpha, inputs, stable_results):
    """The report of analyze and fibers.  An unstable alpha stops at its
    degeneration; otherwise the fibers are classified, the fiber-table
    entries go on the ledger, and stable_results(alpha, fib, cfg, ledger)
    gives the results."""
    inputs = dict(inputs, alpha=_alpha_str(alpha))
    ledger = Ledger()
    verdict = quartic.stability(alpha)
    if isinstance(verdict, quartic.Unstable):
        ledger.add("degeneration_identified", True, verdict.reason)
        results = {"stability": "Unstable", "reason": verdict.reason}
    else:
        fib = fibration.standard_family(alpha=alpha)
        cfg = fibration.classify_fibers(fib)
        ledger.add("euler_number_is_24", cfg.total_euler == 24,
                   "euler %d" % cfg.total_euler)
        ledger.add("fiber_table_certified", all(fb.certified for fb in cfg.fibers),
                   _fmt_types(cfg))
        results = stable_results(alpha, fib, cfg, ledger)
    return build_report(command, inputs, results, ledger)


def cmd_analyze(args):
    mw_rank = args.mw_rank
    alpha = _alpha_from_args(args)
    if alpha is not quartic.ALPHA_INFINITY and max(
            abs(alpha.numerator), alpha.denominator) >= 10 ** MAX_ALPHA_DIGITS:
        raise UsageError("alpha must have a numerator and a denominator of at most "
                         "%d digits" % MAX_ALPHA_DIGITS)

    def stable_results(alpha, fib, cfg, ledger):
        try:
            bound = fibration.shioda_tate_bound(cfg, mw_rank=mw_rank)
            refined = fibration.parity_refine(bound)
        except ValueError as exc:
            raise UsageError("--mw-rank %d: %s" % (mw_rank, exc))
        ledger.add("bound_in_k3_range", 2 <= bound <= 20 and refined <= 20,
                   "bound %d, refined %d" % (bound, refined))
        return {
            "stability": "Stable",
            "singularPoints": [
                _encode_singular_point(p)
                for p in quartic.singular_points(quartic.build_quartic(alpha))],
            "fibration": str(fib.f),
            "fibers": [_encode_fiber(fb) for fb in cfg.fibers],
            "eulerTotal": cfg.total_euler,
            "picardBound": bound,
            "picardBoundParityRefined": refined,
        }

    return _family_report("analyze", alpha, {"mwRank": mw_rank}, stable_results)


def cmd_fibers(args):
    alpha = _alpha_from_args(args)
    return _family_report("fibers", alpha, {}, lambda alpha, fib, cfg, ledger: {
        "fibers": [_encode_fiber(fb) for fb in cfg.fibers],
        "eulerTotal": cfg.total_euler,
    })


# keep every integer of a report printable, since CPython converts no int of
# over 4300 digits to str: analyze prints the fibration lam^3 (lam^2 + 2 lam
# + alpha)^2, whose alpha^2 has at most 4000 digits for an alpha of 2000,
# the minors of a t_n realization vector are about n^2 / 4, at most 4002
# digits for an n of 2000 digits, and a Gram's determinant is at most
# Hadamard's bound; split, whose factors have no such bound, checks each
# integer it prints against the limit itself
MAX_ALPHA_DIGITS = 2000
MAX_TN_DIGITS = 2000
MAX_DET_DIGITS = 3999
MAX_PRINTED_DIGITS = 4300


def cmd_lattice(args):
    ledger = Ledger()
    if args.mode == "invariants":
        spec = args.gram
        try:
            gram = lattices.gram_build(spec)
            # the square of Hadamard's bound prod |row| on |det|, cheap at
            # any entry size, unlike the determinant itself
            if math.prod(sum(x * x for x in row) for row in gram) >= 100 ** MAX_DET_DIGITS:
                raise UsageError("the determinant of --gram may have more than "
                                 "%d digits" % MAX_DET_DIGITS)
            inv = lattices.lattice_invariants(gram)
        except ValueError as exc:
            raise UsageError(str(exc))
        inputs = {"gram": spec}
        results = {"gram": [list(row) for row in gram],
                   "invariants": _encode_invariants(inv)}
        product = 1
        for d in inv.invariant_factors:
            product *= d
        ledger.add("determinant_matches_invariant_factors",
                   abs(inv.determinant) == product,
                   "|det| %d, product %d" % (abs(inv.determinant), product))
        ledger.add("signature_sums_to_rank",
                   inv.signature[0] + inv.signature[1] == inv.rank,
                   "signature %s" % (inv.signature,))
        return build_report("lattice invariants", inputs, results, ledger)

    # mode == "tn"
    if args.n is None:
        raise UsageError("lattice tn requires --n")
    if args.n >= 10 ** MAX_TN_DIGITS:
        raise UsageError("--n must have at most %d digits" % MAX_TN_DIGITS)
    try:
        v = lattices.tn_search(args.n, evidence_bound=12 if args.n % 4 == 2 else 0)
    except ValueError as exc:
        raise UsageError(str(exc))
    inputs = {"n": args.n}
    if isinstance(v, lattices.Obstructed):
        results = {
            "verdict": "Obstructed",
            "transcript": list(v.transcript),
            "evidence": v.evidence,
        }
        ledger.add("exhaustive_search_empty",
                   v.evidence is not None and v.evidence["primitive_found"] == 0,
                   "bound %s, candidates %s" % (
                       v.evidence["bound"], v.evidence["candidates"]))
        ledger.add("residue_argument_present",
                   any("mod 4" in line for line in v.transcript),
                   "%d transcript lines" % len(v.transcript))
    else:
        gram = v.gram()
        results = {
            "verdict": "Realized",
            "vector": list(v.a),
            "minors": list(v.minors),
            "minorGcd": v.gcd,
            "pairGram": [list(row) for row in gram],
        }
        ledger.add("vector_is_primitive", v.gcd == 1, "minor gcd %d" % v.gcd)
        ledger.add("pair_gram_diagonal", gram == lattices.tn_gram(v.n),
                   "diag(%d, %d)" % (2 * v.n, 2 * v.n))
    return build_report("lattice tn", inputs, results, ledger)


# bounds the degree, not the time: on a shared two-core host a degree-256
# curve whose every coefficient has 7 digits takes about 0.7 s from a cold
# start, half of it the one Euclid mod p that proves its composite (degree
# 4d) squarefree, and one with y = (r - 1)(r - 2)...(r - 256), x = 1 and
# z = r about 7 s, most of it the rational-root lift's search for a prime
# past the collisions of its 256 roots
MAX_PARAM_DEGREE = 256


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _over_digit_cap(c):
    """Whether an int coefficient, or a string one before it is parsed, has
    a numerator or denominator of more than MAX_ALPHA_DIGITS digits; a
    string part counts its length, signs and outer spaces aside."""
    if _is_int(c):
        return abs(c) >= 10 ** MAX_ALPHA_DIGITS
    return isinstance(c, str) and any(
        len(part.strip().lstrip("+-")) > MAX_ALPHA_DIGITS for part in c.split("/", 1))


def _param_coeffs(key, terms):
    """The {exponent: Fraction} map of one coordinate of a parametrization
    file: [exponent, coefficient] pairs, an exponent an integer in
    [0, MAX_PARAM_DEGREE] given at most once, a coefficient an integer or a
    rational string whose numerator and denominator have at most
    MAX_ALPHA_DIGITS digits (`_over_digit_cap`)."""
    if not isinstance(terms, list) or not all(
            isinstance(t, list) and len(t) == 2 for t in terms):
        raise UsageError("%r must be a list of [exponent, coefficient] pairs" % key)
    coeffs = {}
    for e, c in terms:
        if not (_is_int(e) and 0 <= e <= MAX_PARAM_DEGREE):
            raise UsageError("%r: exponent %s is not an integer from 0 to %d"
                             % (key, json.dumps(e), MAX_PARAM_DEGREE))
        if e in coeffs:
            raise UsageError("%r: exponent %d is repeated" % (key, e))
        if _over_digit_cap(c):
            raise UsageError("%r: the coefficient of exponent %d must have a numerator "
                             "and a denominator of at most %d digits"
                             % (key, e, MAX_ALPHA_DIGITS))
        try:
            if not (_is_int(c) or isinstance(c, str)):
                raise ValueError
            coeffs[e] = parse_rat(c)
        except (ValueError, ZeroDivisionError):
            raise UsageError("%r: coefficient %s is not an integer or a rational "
                             "string p/q" % (key, json.dumps(c)))
    return coeffs


def _load_parametrization(path):
    if path == "sextic":
        return covers.SPLIT_PARAM_SEXTIC
    if path == "quartic":
        return covers.SPLIT_PARAM_QUARTIC
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read parametrization file: %s" % exc)
    except ValueError as exc:
        raise UsageError("parametrization file is not valid JSON: %s" % exc)
    if not isinstance(data, dict):
        raise UsageError("parametrization file must hold a JSON object")
    var = data.get("var", "r")
    if not isinstance(var, str) or not var.isidentifier():
        raise UsageError("'var' must be a name such as \"r\"")
    coords = []
    for key in ("x", "y", "z"):
        if key not in data:
            raise UsageError("parametrization file must define %r" % key)
        coords.append(polynomials.Poly(var, _param_coeffs(key, data[key])))
    # a Parametrization is a map r -> (x : y : z) with coprime coordinates: a
    # shared factor would add its places to the split report, and coprime
    # coordinates that are not all constant give a map that is not constant.
    # As for split's places, no cheap bound on the factor's coefficients is
    # known, so one past MAX_PRINTED_DIGITS is named by its degree
    if all(c.degree <= 0 for c in coords):
        raise UsageError("x, y and z are all constant: the map is constant")
    g = polynomials.poly_gcd(polynomials.poly_gcd(coords[0], coords[1]), coords[2])
    if g.degree > 0:
        limit = 10 ** MAX_PRINTED_DIGITS
        printable = all(abs(c) < limit for c in (*g.nums.values(), g.den))
        raise UsageError("x, y and z share the factor %s" % g if printable
                         else "x, y and z share a factor of degree %d" % g.degree)
    return covers.Parametrization(*coords, name=path)


def _check_printable(verdict, name):
    """Raise UsageError when the split report would print an integer of
    over MAX_PRINTED_DIGITS digits: in a place's factor, the constant or its
    fourth root, or the leading coefficient in the ledger detail."""
    if isinstance(verdict, covers.ContainedInBranch):
        return
    values = [verdict.composite.leading_coefficient()]
    if isinstance(verdict, covers.CoverSplits):
        values += [verdict.constant, verdict.constant_fourth_power or 0]
    for p, _ in verdict.places:
        values += [*p.nums.values(), p.den]
    limit = 10 ** MAX_PRINTED_DIGITS
    if any(abs(v.numerator) >= limit or v.denominator >= limit for v in values):
        raise UsageError("the split report of %s would print an integer of more "
                         "than %d digits" % (name, MAX_PRINTED_DIGITS))


def cmd_split(args):
    alpha = (_parse_rational_flag(args.alpha, "--alpha") if args.alpha
             else covers.STANDARD_ALPHA)
    if args.param:
        params = [_load_parametrization(args.param)]
    else:
        params = [covers.SPLIT_PARAM_SEXTIC, covers.SPLIT_PARAM_QUARTIC]
    ledger = Ledger()
    inputs = {"alpha": rat_str(alpha),
              "param": args.param if args.param else "builtin"}
    entries = []
    for param in params:
        verdict = covers.fourth_power_test(param, alpha)
        _check_printable(verdict, param.name or "input")
        encoded = _encode_split_verdict(verdict)
        encoded["name"] = param.name or "input"
        entries.append(encoded)
        label = (param.name or "input").replace(" ", "_")
        if isinstance(verdict, covers.ContainedInBranch):
            ledger.add("%s_composition_nonzero" % label, False,
                       "curve lies in the branch locus")
            continue
        lead = verdict.composite.leading_coefficient()
        recomposed = polynomials.Poly(verdict.composite.var, {0: lead})
        for p, m in verdict.places:
            recomposed = recomposed * p ** m
        ledger.add("%s_recomposition_exact" % label,
                   recomposed == verdict.composite,
                   "unit %s times %d places" % (rat_str(lead), len(verdict.places)))
    results = {"tests": entries}
    return build_report("split", inputs, results, ledger)


# keeps cm interactive: 2^16 bits take under half a second, 2^20 bits took
# about half a minute
MAX_PRECISION_BITS = 2 ** 16
# keeps j printable (MAX_PRINTED_DIGITS): with a = 2(1 + beta^4), j is
# 256 (16 - 3a)^3 / (a^2 (16 - 4a)), about three times the digits of beta^4,
# at most 4204 for a numerator and a denominator of 1400 digits
MAX_BETA4_DIGITS = 1400


def cmd_cm(args):
    import mpmath
    beta4 = _parse_rational_flag(args.beta4, "--beta4")
    if max(abs(beta4.numerator), beta4.denominator) >= 10 ** MAX_BETA4_DIGITS:
        raise UsageError("--beta4 must have a numerator and a denominator of at most "
                         "%d digits" % MAX_BETA4_DIGITS)
    precision = args.precision
    if precision < 32:
        raise UsageError("--precision must be at least 32 bits")
    if precision > MAX_PRECISION_BITS:
        raise UsageError("--precision must be at most %d bits" % MAX_PRECISION_BITS)
    rhs = curves.base_elliptic_rhs(beta4)
    try:
        j = curves.j_invariant(rhs)
    except ValueError as exc:
        raise UsageError("degenerate member: %s" % exc)
    try:
        pr = periods.tau_from_cubic(rhs, precision_bits=precision)
    except ValueError as exc:
        # a smooth member whose cubic has fewer than three rational roots
        raise UsageError("unsupported member: %s" % exc)
    res = periods.cm_isogeny_check(pr.tau, precision_bits=precision)
    ledger = Ledger()
    inputs = {"beta4": rat_str(beta4), "precision": precision}
    results = {
        "j": rat_str(j),
        "tau": {
            "re": mpmath.nstr(pr.tau.real, 30),
            "im": mpmath.nstr(pr.tau.imag, 30),
            "errorBound": mpmath.nstr(pr.error_bound, 5),
        },
        "verdict": _encode_cm_verdict(res),
    }
    ledger.add("tau_in_upper_half_plane", pr.tau.imag > 0,
               "im(tau) = %s" % mpmath.nstr(pr.tau.imag, 10))
    if isinstance(res, periods.IsogenousToE):
        ledger.add("relation_residual_small",
                   abs(res.residual) < periods.acceptance_bound(precision),
                   "residual %s" % mpmath.nstr(res.residual, 5))
    else:
        ledger.add("verdict_structured", True, results["verdict"]["kind"])
    return build_report("cm", inputs, results, ledger)


def cmd_moduli(args):
    which = args.check
    ledger = Ledger()
    results = {}
    if which in ("all", "fricke"):
        checks = moduli.fricke_checks()
        results["fricke"] = {k: ok for k, (ok, _) in checks.items()}
        for name, (ok, witness) in checks.items():
            ledger.add("fricke.%s" % name, ok, witness or "")
    if which in ("all", "cayley"):
        samples, images, bad = _cayley_round_trip()
        round_trip = not bad
        pairs = list(zip(samples[:50], samples[50:]))
        multiplicative = all(
            moduli.m_eq(moduli.cayley(moduli.m_mul(a, b)),
                        moduli.m_mul(moduli.cayley(a), moduli.cayley(b)))
            for a, b in pairs)
        in_h0 = all(moduli.membership(g, "H0").verdict for g in images)
        back = all(moduli.membership(moduli.inverse_cayley(g), "G0").verdict
                   for g in moduli.h0_generators())
        results["cayley"] = {
            "samples": len(samples),
            "roundTripExact": round_trip,
            "multiplicative": multiplicative,
            "integralImagesInH0": in_h0,
            "h0GeneratorsPullBack": back,
        }
        ledger.add("cayley.round_trip", round_trip, "%d samples" % len(samples))
        ledger.add("cayley.multiplicative", multiplicative,
                   "%d products" % len(pairs))
        ledger.add("cayley.h0_correspondence", in_h0 and back, "")
    if which in ("all", "period"):
        examples = []
        for label, p in moduli.period_examples():
            examples.append({
                "input": label,
                "w": str(p.w),
                "verdict": p.verdict,
                "formValue": rat_str(p.form_value),
            })
            ledger.add("period.point_%s" % label.replace(",", "_"),
                       p.eigenvector_ok and p.ball_consistent,
                       "%s, form %s" % (p.verdict, rat_str(p.form_value)))
        g = moduli.gaussian_form_check()
        results["period"] = {"examples": examples, "gramChecks": g}
        for name, ok in g.items():
            ledger.add("period.%s" % name, ok, "")
    return build_report("moduli", {"check": which}, results, ledger)


def cmd_verify(args):
    suite = args.suite
    if suite in SUITES:
        names = SUITES[suite]
    elif suite in _CHECK_BY_NAME:
        names = [suite]
    else:
        raise UsageError(
            "unknown suite %r; choose from %s, or a single check name"
            % (suite, ", ".join(sorted(SUITES))))
    ledger = Ledger()
    for name in names:
        try:
            ok, detail = _CHECK_BY_NAME[name]()
        except Exception as exc:  # a crash is a failure with the exception as witness
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        ledger.add(name, ok, detail)
    results = {
        "suite": suite,
        "checksRun": len(names),
        "checksPassed": sum(1 for e in ledger.entries if e["pass"]),
    }
    return build_report("verify", {"suite": suite}, results, ledger)


# -- argument parsing ------------------------------------------------------------

# argparse counts only "-3" and "-0.5" as negative numbers and reads "-1/3"
# as an unknown flag; no option here starts with "-" and a digit, so any such
# word is a value (the pattern newer argparse versions use)
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="k3quartic",
        description="Exact verification toolkit for a pencil of plane "
                    "quartics with a cyclic degree-4 cover.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print the full JSON report to stdout")
    common.add_argument("--report", metavar="FILE",
                        help="write the JSON report to FILE")

    p = sub.add_parser("analyze", parents=[common],
                       help="stability, singular points, fibers, Picard bound")
    p.add_argument("alpha_pos", nargs="?", metavar="ALPHA",
                   help="family parameter, a rational p/q or 'inf'")
    p.add_argument("--alpha", help="family parameter (alternative to the positional)")
    p.add_argument("--mw-rank", type=int, default=0, dest="mw_rank",
                   help="Mordell-Weil rank to include in the bound (default 0)")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("fibers", parents=[common],
                       help="Kodaira fiber table for a family member")
    p.add_argument("alpha_pos", nargs="?", metavar="ALPHA")
    p.add_argument("--alpha")
    p.set_defaults(handler=cmd_fibers)

    p = sub.add_parser("lattice", parents=[common],
                       help="lattice invariants and realization search")
    p.add_argument("mode", choices=("invariants", "tn"))
    p.add_argument("--gram", default="N",
                   help="Gram spec for invariants: N, T, U, A1, E7, U(2), "
                        "or sums like U+E7+E7+A1(-1)+A1(-1)")
    p.add_argument("--n", type=int, help="target n for the tn realization search")
    p.set_defaults(handler=cmd_lattice)

    p = sub.add_parser("split", parents=[common],
                       help="fourth-power splitting test along a parametrized curve")
    p.add_argument("--alpha", help="family parameter (default 81/49)")
    p.add_argument("--param", metavar="FILE",
                   help="parametrization JSON file, or 'sextic'/'quartic' "
                        "for the built-in curves (default: both built-ins)")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("cm", parents=[common],
                       help="numeric period ratio and CM/isogeny detection")
    p.add_argument("--beta4", required=True,
                   help="value of beta^4 selecting the quotient curve member")
    p.add_argument("--precision", type=int, default=128,
                   help="working precision in bits (default 128)")
    p.set_defaults(handler=cmd_cm)

    p = sub.add_parser("moduli", parents=[common],
                       help="matrix-group identities and period-domain checks")
    p.add_argument("--check", default="all",
                   choices=("all", "fricke", "cayley", "period"))
    p.set_defaults(handler=cmd_moduli)

    p = sub.add_parser("verify", parents=[common],
                       help="run the verification ledger")
    p.add_argument("suite", nargs="?", default="all",
                   help="suite name (default 'all') or a single check name")
    p.set_defaults(handler=cmd_verify)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if exc.code is not None else 0
    try:
        report = args.handler(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    rendered = render_json(report)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print("error: cannot write report: %s" % exc, file=sys.stderr)
            return 2
    if args.json:
        sys.stdout.write(rendered)
    else:
        sys.stdout.write(render_text(report))
    all_pass = all(e["pass"] for e in report["verificationLedger"])
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
