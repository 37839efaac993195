"""The three benchmark workloads: generated inputs, op lists and probes.

A workload is built from the seed alone.  Each op is one closed-loop call
into the library (or, for ``cli``, one cold-start process).  ``expect`` is a
cheap check of the op's verdict against an answer fixed outside the library;
the oracle gates in ``gates.py`` run after the timed region.

Probes are the inputs that hit the defects known at the start of the
benchmark: the rational-root search on tall inputs, and three usage errors
that escape the CLI as tracebacks.  They run once per run under the same
budget and count in ``ops_ok_ratio``, but stay out of the timed op list, so
that the op list has no failing op.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

# -- number generation (stdlib only) --------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def semiprime(rng, digits, avoid=()):
    """P1*P2 with P1 < P2 prime, within 5% of 3*10^(digits-1).

    The rational-root search costs about sqrt(a0) + d(a0)*sqrt(an) trial
    divisions, so fixing the divisor count at 4 and the size within 5% makes
    the cost of a rung depend on its height, not on the draw.
    """
    target = 3 * 10 ** (digits - 1)
    root = max(2, int(target ** 0.5))
    while True:
        p1 = next_prime(rng.randint(max(2, root // 3), root))
        p2 = next_prime(int(target * rng.uniform(0.95, 1.05)) // p1)
        n = p1 * p2
        if p1 < p2 and not set(avoid) & {p1, p2}:
            return n, (p1, p2)


def square_pair(rng, digits):
    """(a, b) with b, b - a and b + a prime, so that 1 - (a/b)^2 has a
    semiprime numerator near 3*10^(digits-1) and denominator b^2."""
    target = int((3 * 10 ** (digits - 1)) ** 0.5)
    while True:
        b = next_prime(rng.randint(target, target + max(20, target // 10)))
        for _ in range(50):
            a = 2 * rng.randint(max(1, b // 16), max(1, b // 4))
            if a < b and is_prime(b - a) and is_prime(b + a):
                return a, b


# -- univariate coefficient maps, kept apart from the library's Poly --------------


def substitute_affine(coeffs, a, b):
    """{e: c} of p(r) -> {e: c} of p(a r + b), exact over Fraction."""
    out = {}
    for e, c in coeffs.items():
        for k in range(e + 1):
            term = c * comb(e, k) * a ** k * b ** (e - k)
            out[k] = out.get(k, 0) + term
    return {e: Fraction(c) for e, c in out.items() if c != 0}


def rat_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


# -- ops --------------------------------------------------------------------------


class Op:
    """One call: ``call()`` gives the result, ``expect(result)`` an error or None."""

    __slots__ = ("label", "call", "expect", "data")

    def __init__(self, label, call, expect, data=None):
        self.label = label
        self.call = call
        self.expect = expect
        self.data = data


class Workload:
    """Op list, probes, per-call budget, warm-up and reference of one workload.

    ``reference()`` is fixed stdlib work like the workload's inner loop, and
    ``reference_s`` about its time on an unloaded two-core host; ``run.py``
    scales every time by ``reference_s`` over the reference's time around it.
    """

    def __init__(self, name, ops, probes, budget_s, warm_up, reference, reference_s,
                 in_process=True):
        for i, op in enumerate(ops):
            op.label = "%02d %s" % (i, op.label)
        self.name = name
        self.ops = ops
        self.probes = probes
        self.budget_s = budget_s
        self.warm_up = warm_up
        self.reference = reference
        self.reference_s = reference_s
        self.in_process = in_process


# Each reference follows the host's speed for the kind of work its workload
# does.  On a shared two-core host where the raw pass time moved by about 0.3
# (quartile distance over median) between 20 s windows, the family pass time
# scaled by ``fraction_work`` still moved by 0.11 and scaled by
# ``division_work`` by 0.014; the ledger's moved by 0.06 and 0.12 (each op
# scaled by the reference just before and after it).


def fraction_work():
    """Fraction arithmetic and dict updates, like the ledger's field and
    lattice code."""
    acc = Fraction(0)
    counts = {}
    for i in range(1, 600):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i * i
    return acc


INTERPRETER_START_S = 0.06


def interpreter_start(root):
    """A bare interpreter start, the part of every CLI process that the
    library does not change."""
    run_child([sys.executable, "-c", "pass"], root, 60)


def division_work():
    """Trial division of an 11-digit integer, like the rational-root search
    that dominates ``family``."""
    n, d, count = 30000000001, 1, 0
    while d < 50000:
        if n % d == 0:
            count += 1
        d += 1
    return count


def _warm_fields():
    """Fill the library's cached field constructors."""
    from k3quartic.fields import (eighth_root_field, gaussian_field,
                                  quartic_root_field, with_imaginary_unit)
    eighth_root_field()
    gaussian_field()
    quartic_root_field(7)
    with_imaginary_unit("quartic_root", 7)


# -- ledger -----------------------------------------------------------------------


def ledger(seed, root):
    from k3quartic import cli

    def warm_up():
        _warm_fields()
        cli.check_chart_sign()

    def expect(result):
        ok, detail = result
        return None if ok else "check failed: %s" % detail

    # the ledger is fixed: every seed runs the 26 checks in ``verify all`` order
    ops = [Op(name, fn, expect, data=name) for name, fn in cli.CHECKS]
    return Workload("ledger", ops, [], budget_s=60.0, warm_up=warm_up,
                    reference=fraction_work, reference_s=0.005)


# -- family -----------------------------------------------------------------------

# digits of numerator and denominator -> alphas on that rung, every third with
# 1 - alpha a rational square.  The cheap rungs hold over half of the ops and
# the top rung a fifth, so the median and the 90th percentile each fall inside
# one rung, not between two.
FAMILY_RUNGS = {2: 6, 3: 6, 4: 6, 5: 6, 6: 6, 8: 4, 10: 4, 11: 10}
FAMILY_PROBE_DIGITS = 24               # sqrt(10^24) trial divisions: far over budget
UNSTABLE = {"0": "triple point at (1:0:0)", "1": "tacnode at (1:-1:1)",
            "inf": "tangent at (0:0:1)"}


def analyze(alpha, mw_rank):
    """What ``k3quartic analyze`` computes, without the CLI around it."""
    from k3quartic.fibration import (classify_fibers, parity_refine,
                                     shioda_tate_bound, standard_family)
    from k3quartic.quartic import Unstable, build_quartic, singular_points, stability
    verdict = stability(alpha)
    if isinstance(verdict, Unstable):
        return {"stable": False, "reason": verdict.reason}
    nodes = singular_points(build_quartic(alpha))
    fib = standard_family(alpha=alpha)
    cfg = classify_fibers(fib)
    bound = shioda_tate_bound(cfg, mw_rank=mw_rank)
    return {"stable": True, "nodes": nodes, "f": fib.f, "cfg": cfg,
            "bound": bound, "refined": parity_refine(bound)}


def expect_family(label, mw_rank, square):
    def expect(res):
        if label in UNSTABLE:
            if res["stable"] or res["reason"] != UNSTABLE[label]:
                return "alpha=%s: expected Unstable(%s)" % (label, UNSTABLE[label])
            return None
        if not res["stable"]:
            return "alpha=%s: stable member reported unstable" % label
        cfg = res["cfg"]
        bound = 18 + mw_rank  # 2 + (1 + 4 + 4 + 7) components - 1 per fiber
        if cfg.total_euler != 24 or not all(fb.certified for fb in cfg.fibers):
            return "alpha=%s: euler %d or uncertified fiber" % (label, cfg.total_euler)
        if cfg.type_multiset() != ["I0*", "I0*", "III", "III*"]:
            return "alpha=%s: table %s" % (label, cfg.type_multiset())
        if (res["bound"], res["refined"]) != (bound, min(20, bound + bound % 2)):
            return "alpha=%s: bounds %s" % (label, (res["bound"], res["refined"]))
        points = [n for n in res["nodes"] if "point" in n]
        if len(res["nodes"]) != (5 if square else 4) or not all(n["node"] for n in points):
            return "alpha=%s: singular points %r" % (label, res["nodes"])
        return None
    return expect


def family_alpha(rng, digits, square):
    sign = rng.choice((1, -1))
    if square:
        a, b = square_pair(rng, digits)
        return 1 - Fraction(a, b) ** 2
    p, (p1, p2) = semiprime(rng, digits)
    q, _ = semiprime(rng, digits, avoid=(p1, p2))
    return Fraction(sign * p, q)


def family(seed, root):
    from k3quartic.quartic import ALPHA_INFINITY
    rng = random.Random(seed)
    specs = []
    for digits, count in FAMILY_RUNGS.items():
        for i in range(count):
            square = i % 3 == 2
            specs.append((family_alpha(rng, digits, square), square, "d%d" % digits))
    specs += [(Fraction(0), False, "unstable"), (Fraction(1), False, "unstable"),
              (ALPHA_INFINITY, False, "unstable")]
    ops = [_family_op(alpha, square, rung, rng.randint(0, 2))
           for alpha, square, rung in specs]
    probe_alpha = family_alpha(rng, FAMILY_PROBE_DIGITS, False)
    probes = [_family_op(probe_alpha, False, "d%d" % FAMILY_PROBE_DIGITS, 0)]

    def warm_up():
        _warm_fields()
        analyze(Fraction(81, 49), 1)

    return Workload("family", ops, probes, budget_s=2.0, warm_up=warm_up,
                    reference=division_work, reference_s=0.005)


def _family_op(alpha, square, rung, mw_rank):
    from k3quartic.quartic import ALPHA_INFINITY
    label = "inf" if alpha is ALPHA_INFINITY else rat_text(alpha)
    return Op("%s:%s" % (rung, label), lambda: analyze(alpha, mw_rank),
              expect_family(label, mw_rank, square),
              data={"alpha": label, "mw_rank": mw_rank, "square": square})


# -- cli --------------------------------------------------------------------------

# every suite but ``all``, so that the costliest calls are the same for every seed
VERIFY_SUITES = ("pencil", "cover", "fibers", "chain")
GRAM_SPECS = ("N", "T", "U", "E7", "U(2)", "U+E7+E7+A1(-1)+A1(-1)")
# exit codes the README documents: 0 all entries pass, 1 a check fails, 2 usage error
CLI_PROBES = (
    (["lattice", "invariants", "--gram", "A1(0)"], 2),
    (["analyze", "81/49", "--mw-rank", "-5"], 2),
    (["analyze", "81/49", "--mw-rank", "100"], 2),
)


class CliCall:
    """One cold-start ``python -m k3quartic.cli`` process."""

    def __init__(self, root, argv, timeout_s, runner=None):
        self.root = root
        self.argv = argv
        self.timeout_s = timeout_s
        self.runner = runner or ["-m", "k3quartic.cli"]

    def __call__(self):
        return run_child([sys.executable] + self.runner + self.argv, self.root,
                         self.timeout_s)


def child_env(root):
    """The environment of a child process: this checkout's ``src`` first."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, root, timeout_s):
    """Run one child process; returns (exit code, stdout, stderr, maxrss KiB).

    The child is reaped with ``os.wait4`` so that its own peak RSS is known.
    """
    env = child_env(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "child.stdout")
    err_path = os.path.join(out_dir, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = _wait4(proc.pid, timeout_s)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, usage.ru_maxrss


def _wait4(pid, timeout_s):
    import time
    deadline = time.monotonic() + timeout_s
    delay = 0.0005
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return got, status, usage
        if time.monotonic() > deadline:
            raise TimeoutError("child %d over its %.0f s budget" % (pid, timeout_s))
        time.sleep(delay)
        delay = min(delay * 2, 0.005)


def expect_exit(code):
    def expect(result):
        rc, _, stderr, _ = result
        if "Traceback" in stderr:
            return "exit %d with a traceback, README documents %d" % (rc, code)
        if rc != code:
            return "exit %d, README documents %d" % (rc, code)
        return None
    return expect


def cli_argvs(rng, param_path):
    alpha = Fraction(rng.randint(2, 99), rng.randint(2, 99))
    while alpha == 1:
        alpha = Fraction(rng.randint(2, 99), rng.randint(2, 99))
    # the quotient cubic u (u^2 + 4u + 2(1 + beta4)) splits over Q, as ``cm``
    # requires, exactly when 8 (1 - beta4) = w^2; w = 4 would repeat a root
    w = Fraction(4)
    while w == 4:
        w = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    beta4 = 1 - w * w / 8
    argvs = [
        (["analyze", rat_text(alpha), "--mw-rank", str(rng.randint(0, 2))], 0),
        (["fibers", rat_text(1 / alpha)], 0),
        (["lattice", "invariants", "--gram", rng.choice(GRAM_SPECS)], 0),
        (["lattice", "tn", "--n", str(rng.randint(1, 40))], 0),
        (["split"], 0),
        (["split", "--param", param_path], 0),
        (["cm", "--beta4=%s" % rat_text(beta4)], 0),
        (["moduli", "--check", "period"], 0),
    ]
    argvs += [(["verify", suite], 0) for suite in VERIFY_SUITES]
    argvs.append((["analyze", "%d/%d/%d" % tuple(rng.randint(1, 9) for _ in range(3))], 2))
    return argvs


def cli(seed, root):
    rng = random.Random(seed)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    param_path = os.path.join(".bench_out", "param-%d.json" % seed)
    a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    sextic = {"x": {0: 49, 1: -98, 2: 49}, "y": {2: 63, 3: -126, 4: 63},
              "z": {2: 144, 3: -96, 4: 225, 5: -162, 6: 81}}
    doc = {"var": "r"}
    for key, coeffs in sextic.items():
        doc[key] = [[e, rat_text(c)] for e, c in sorted(
            substitute_affine(coeffs, a, b).items())]
    with open(os.path.join(root, param_path), "w") as fh:
        json.dump(doc, fh)
    timeout_s = 60.0
    ops = [Op(" ".join(argv), CliCall(root, argv + ["--json"], timeout_s),
              expect_exit(code), data={"argv": argv, "exit": code})
           for argv, code in cli_argvs(rng, param_path)]
    probes = [Op(" ".join(argv), CliCall(root, argv + ["--json"], timeout_s),
                 expect_exit(code), data={"argv": argv, "exit": code})
              for argv, code in CLI_PROBES]

    def warm_up():
        # one cold start writes the bytecode caches a user's install would have
        rc = CliCall(root, ["verify", "chart_sign_convention", "--json"], timeout_s)()[0]
        if rc != 0:
            raise RuntimeError("the CLI does not start: exit %d" % rc)

    return Workload("cli", ops, probes, budget_s=timeout_s, warm_up=warm_up,
                    reference=lambda: interpreter_start(root),
                    reference_s=INTERPRETER_START_S, in_process=False)


BUILDERS = {"ledger": ledger, "family": family, "cli": cli}
