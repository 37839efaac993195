"""Correctness gates, run after the timed region.

Each gate takes the results of one pass (op label -> result) and returns a
list of error strings; an empty list means the outputs are right.  The
answers come from outside the code under test: the ledger hash recorded at
the commit that defined the benchmark, sympy's ``factor_list`` (used here
only, as an oracle), the geometry of the family, and the exit codes that
the README documents.
"""

import hashlib
from fractions import Fraction

# vanishing order k of f -> Kodaira type; Euler number and component count by type
KODAIRA = {1: "III", 2: "I0*", 3: "III*"}
EULER = {"III": 3, "I0*": 6, "III*": 9}
COMPONENTS = {"III": 2, "I0*": 5, "III*": 8}


def ledger_gate(results, expected_sha, verify_all_json):
    """All 26 entries pass in-process, and ``verify all --json`` hashes to
    the recorded value with the same verdicts and details."""
    import json
    errors = ["%s: %s" % (name, detail) for name, (ok, detail) in results.items() if not ok]
    sha = hashlib.sha256(verify_all_json.encode("utf-8")).hexdigest()
    if sha != expected_sha:
        errors.append("verify all --json sha256 %s, recorded %s" % (sha, expected_sha))
    try:
        entries = json.loads(verify_all_json)["verificationLedger"]
    except (ValueError, KeyError, TypeError) as exc:
        return errors + ["verify all --json is not a report: %s" % exc]
    cli_view = {e["checkName"]: (e["pass"], e["detail"]) for e in entries}
    if len(cli_view) != 26 or not all(ok for ok, _ in cli_view.values()):
        errors.append("verify all --json does not pass 26 entries")
    for name, result in results.items():
        if cli_view.get(name) != tuple(result):
            errors.append("%s: in-process %r, CLI %r" % (name, result, cli_view.get(name)))
    return errors


def _sympy_poly(coeffs, var):
    import sympy
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * var ** e
                          for e, c in coeffs.items()), var, domain="QQ")


def _lib_poly(p, var):
    return _sympy_poly({e: Fraction(c) for e, c in p.coeffs.items()}, var)


def family_gate(results, data):
    """Euler number 24, every fiber certified, and the fiber table equal to
    the one read off sympy's factorization of lam^3 (lam^2 + 2 lam + alpha)^2."""
    import sympy
    lam = sympy.Symbol("lam")
    errors = []
    for label, res in results.items():
        d = data[label]
        if not res["stable"]:
            continue  # expect() already matched the reason against the geometry
        alpha = Fraction(d["alpha"])
        a = sympy.Rational(alpha.numerator, alpha.denominator)
        f = sympy.Poly(lam ** 3 * (lam ** 2 + 2 * lam + a) ** 2, lam, domain="QQ")
        if _lib_poly(res["f"], lam) != f:
            errors.append("%s: fibration polynomial differs" % label)
            continue
        _, factors = sympy.factor_list(f.as_expr(), lam)
        want = []
        for g, m in factors:
            g = sympy.Poly(g, lam, domain="QQ").monic()
            want.append((tuple(g.all_coeffs()), g.degree(), KODAIRA[m]))
        k_inf = (-f.degree()) % 4
        if k_inf:
            want.append(("infinity", 1, KODAIRA[k_inf]))
        cfg = res["cfg"]
        got = []
        for fb in cfg.fibers:
            loc = fb.location if fb.location == "infinity" else \
                tuple(_lib_poly(fb.location, lam).monic().all_coeffs())
            got.append((loc, fb.degree, fb.type))
        if sorted(got, key=repr) != sorted(want, key=repr):
            errors.append("%s: fiber table %s, sympy gives %s" % (label, got, want))
        euler = sum(deg * EULER[t] for _, deg, t in want)
        if cfg.total_euler != 24 or euler != 24:
            errors.append("%s: euler %d (oracle %d)" % (label, cfg.total_euler, euler))
        if not all(fb.certified for fb in cfg.fibers):
            errors.append("%s: uncertified fiber" % label)
        bound = 2 + sum(deg * (COMPONENTS[t] - 1) for _, deg, t in want) + d["mw_rank"]
        if res["bound"] != bound:
            errors.append("%s: Picard bound %d, oracle %d" % (label, res["bound"], bound))
        square = sympy.sqrt(1 - a).is_rational
        if square != d["square"]:
            errors.append("%s: 1 - alpha square is %s, generated as %s"
                          % (label, square, d["square"]))
    return errors


def cli_gate(results, data):
    """The exit code each call returned is the one the README documents."""
    errors = []
    for label, result in results.items():
        rc, stderr = result[0], result[2]
        want = data[label]["exit"]
        if rc != want or "Traceback" in stderr:
            errors.append("%s: exit %d, README documents %d%s" % (
                label, rc, want, " (traceback)" if "Traceback" in stderr else ""))
    return errors
