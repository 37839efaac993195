"""Self-test of the benchmark: each correctness gate accepts the library's
own outputs and rejects perturbed ones, the tracer reaches from-imported
copies, and ``BENCHMARK.json`` names the metrics the harness prints.

    python3 -m unittest discover -s bench -p "test_*.py"

The perturbed outputs come from the library's ``perturb=True`` negative
controls (``pencil_substitution_check``, ``verify_cover_map``,
``quotient_map``) where a gate consumes them, and from targeted edits of a
real result elsewhere.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import cli_child  # noqa: E402
import gates  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from k3quartic import cli  # noqa: E402

# library negative control -> (ledger check it breaks, verify suite that runs it)
PERTURBED = {
    "pencil_substitution_check": ("pencil_substitution", "pencil"),
    "verify_cover_map": ("cover_map_identity", "cover"),
    "quotient_map": ("curve_identity_suite", "curves"),
}


def cli_json(argv, perturb=()):
    cmd = [sys.executable, os.path.join(BENCH, "cli_child.py")]
    for name in perturb:
        cmd += ["--perturb", name]
    proc = subprocess.run(cmd + ["--"] + argv, cwd=ROOT, env=workloads.child_env(ROOT),
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def run_ops(workload, keep=lambda op: True):
    results = {}
    for op in workload.ops:
        if keep(op):
            result = op.call()
            assert op.expect(result) is None, op.label
            results[op.label] = result
    return results


class LedgerGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(BENCH, "record.json")) as fh:
            cls.sha = json.load(fh)["ledger_sha256"]
        cls.results = {name: fn() for name, fn in cli.CHECKS}
        rc, cls.verify_all, _ = cli_json(["verify", "all", "--json"])
        assert rc == 0

    def test_accepts_the_library_ledger(self):
        self.assertEqual(gates.ledger_gate(self.results, self.sha, self.verify_all), [])

    def test_rejects_each_perturbed_check(self):
        for fn_name, (check, _) in PERTURBED.items():
            with self.subTest(fn_name):
                restore = tracer.rebind_everywhere(cli_child.perturbed([fn_name]))
                try:
                    broken = dict(self.results, **{check: dict(cli.CHECKS)[check]()})
                finally:
                    tracer.undo(restore)
                errors = gates.ledger_gate(broken, self.sha, self.verify_all)
                self.assertTrue(any(e.startswith(check + ":") for e in errors), errors)

    def test_rejects_perturbed_verify_all_bytes(self):
        rc, out, _ = cli_json(["verify", "all", "--json"], perturb=["verify_cover_map"])
        self.assertEqual(rc, 1)
        errors = gates.ledger_gate(self.results, self.sha, out)
        self.assertTrue(any("sha256" in e for e in errors), errors)


class CliGate(unittest.TestCase):
    def test_rejects_each_perturbed_suite(self):
        for fn_name, (_, suite) in PERTURBED.items():
            with self.subTest(fn_name):
                argv = ["verify", suite, "--json"]
                data = {"call": {"exit": 0}}
                ok = cli_json(argv)
                self.assertEqual(gates.cli_gate({"call": ok}, data), [])
                rc, out, err = cli_json(argv, perturb=[fn_name])
                self.assertEqual(len(gates.cli_gate({"call": (rc, out, err)}, data)), 1)

    def test_rejects_usage_errors_that_escape_as_tracebacks(self):
        argv, code = workloads.CLI_PROBES[0]
        result = cli_json(argv + ["--json"])
        errors = gates.cli_gate({"probe": result}, {"probe": {"exit": code}})
        if result[0] == code and "Traceback" not in result[2]:
            self.assertEqual(errors, [])  # the defect has been fixed
        else:
            self.assertEqual(len(errors), 1)


class FamilyGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = workloads.family(5, ROOT)
        cls.data = {op.label: op.data for op in cls.wl.ops}
        cls.results = run_ops(cls.wl, keep=lambda op: op.label.split()[1][:3] in
                              ("d2:", "d4:", "uns"))

    def test_accepts_the_library_tables(self):
        self.assertEqual(gates.family_gate(self.results, self.data), [])

    def test_rejects_a_wrong_fiber_type(self):
        label = next(k for k, v in self.results.items() if v["stable"])
        broken = copy.deepcopy(self.results)
        fb = next(fb for fb in broken[label]["cfg"].fibers if fb.type == "III*")
        fb.type = "III"
        self.assertEqual(len(gates.family_gate(broken, self.data)), 1)

    def test_rejects_a_wrong_fibration_polynomial(self):
        label = next(k for k, v in self.results.items() if v["stable"])
        broken = dict(self.results)
        broken[label] = dict(broken[label], f=broken[label]["f"] + 1)
        self.assertEqual(len(gates.family_gate(broken, self.data)), 1)


class FailureAccounting(unittest.TestCase):
    def test_raising_and_over_budget_ops_fail_at_the_budget(self):
        def spin():
            while True:
                pass

        ops = [workloads.Op("raises", lambda: 1 // 0, lambda r: None),
               workloads.Op("spins", spin, lambda r: None),
               workloads.Op("wrong", lambda: 2, lambda r: "expected 1" if r != 1 else None),
               workloads.Op("right", lambda: 1, lambda r: "expected 1" if r != 1 else None)]
        wl = workloads.Workload("t", ops, [], budget_s=0.3, warm_up=None,
                                reference=workloads.fraction_work, reference_s=0.005)
        tally = run.Tally(wl.reference_s)
        run.run_pass(wl, tally)
        self.assertEqual([e.split(":")[0] for e in tally.errors],
                         ["00 raises", "01 spins", "02 wrong"])
        self.assertEqual(list(tally.results), ["03 right"])
        self.assertEqual(tally.latencies[:3], [0.3] * 3)


class Tracer(unittest.TestCase):
    def test_wrappers_reach_from_imported_copies(self):
        from fractions import Fraction
        from k3quartic import fibration, polynomials
        original = polynomials.squarefree_decompose
        tr = tracer.Tracer().install()
        try:
            self.assertIs(fibration.squarefree_decompose, polynomials.squarefree_decompose)
            self.assertIsNot(fibration.squarefree_decompose, original)
            fibration.classify_fibers(fibration.standard_family(alpha=Fraction(81, 49)))
        finally:
            tr.uninstall()
        self.assertIs(fibration.squarefree_decompose, original)
        self.assertEqual(tr.callers["polynomials.squarefree_decompose"],
                         {"fibration.classify_fibers": 1})


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         layers.metric_units())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(workloads.BUILDERS))


if __name__ == "__main__":
    unittest.main()
