"""Per-layer metrics: their names and units, and how each is computed from
the tracer's counters, from the module sources, or from ``-X importtime``.

Layer names are the module names, with ``serialize`` counted in ``report``.
Times and counts are per pass over the workload's op list.
"""

import os
import re
import statistics
import subprocess
import sys
import time

import workloads

MODULES = ("package", "fields", "polynomials", "multipoly", "quartic", "fibration",
           "covers", "curves", "lattices", "moduli", "periods", "report",
           "serialize", "cli")

# the 26 ledger checks, in ``cli.CHECKS`` order
CHECK_NAMES = (
    "pencil_substitution", "chart_sign_convention", "weierstrass_reduction_chain",
    "generic_fiber_table", "generic_euler_number", "degeneration_at_infinity",
    "degeneration_at_zero", "form_scaling_order_eight", "picard_bound_chain",
    "cover_map_identity", "sextic_parametrization_splits",
    "quartic_parametrization_splits", "section_matches_closed_form",
    "section_all_root_choices", "curve_identity_suite", "neron_severi_invariants",
    "transcendental_invariants", "rank_four_classification", "tn_instances",
    "tn_residue_sweep", "tn_obstruction_evidence", "kummer_products",
    "fricke_identities", "cayley_round_trip", "period_domain_examples",
    "cm_square_lattice",
)

SELF_TIME_LAYERS = ("fields", "polynomials", "multipoly", "quartic", "fibration",
                    "covers", "curves", "lattices", "moduli", "periods", "report", "cli")

# metric -> wrapped functions whose calls it counts
CALL_COUNTS = {
    "lattices.det_calls": ("lattices.mat_det",),
    "lattices.certificate_calls": ("lattices.certificate_basis",),
    "fields.mul_calls": ("fields.FieldElement.__mul__",),
    "fields.inv_calls": ("fields.FieldElement.inverse", "fields.FieldElement.__truediv__",
                         "fields.FieldElement.__rtruediv__"),
    "polynomials.squarefree_calls": ("polynomials.squarefree_decompose",),
    "polynomials.gcd_calls": ("polynomials.poly_gcd",),
    "multipoly.reduce_calls": ("multipoly.QuotientContext.reduce",),
    "fibration.classify_calls": ("fibration.classify_fibers",),
    "curves.ec_add_calls": ("curves.ec_add",),
    "moduli.cayley_calls": ("moduli.cayley",),
}

# metric -> wrapped function whose inclusive time it reports
INCLUSIVE_TIMES = {
    "polynomials.rational_roots_s": "polynomials.rational_roots",
    "polynomials.squarefree_s": "polynomials.squarefree_decompose",
    "covers.fourth_power_test_s": "covers.fourth_power_test",
    "covers.lift_s": "covers.lift_two_section",
    "covers.sum_sections_s": "covers.sum_sections",
}

RR_EVAL = ("polynomials.Poly.__call__", "polynomials.rational_roots")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in SELF_TIME_LAYERS:
        units["%s.self_s" % layer] = "s"
    for name in CALL_COUNTS:
        units[name] = "count"
    for name in INCLUSIVE_TIMES:
        units[name] = "s"
    units["polynomials.rr_evals"] = "count"
    units["polynomials.rr_hit_ratio"] = "ratio"
    units["periods.inconclusive_count"] = "count"
    for name in CHECK_NAMES:
        units["check.%s_s" % name] = "s"
    for module in MODULES + ("mpmath",):
        units["import.%s_ms" % module] = "ms"
    units["import.total_ms"] = "ms"
    for module in MODULES:
        units["lines.%s" % module] = "lines"
    units["lines.total"] = "lines"
    units["trace.overhead_ratio"] = "ratio"
    return units


def install_hooks(tracer):
    """Result counters that the call counts cannot give."""
    def roots(result, counters):
        counters["rr_roots"] = counters.get("rr_roots", 0) + len(result)

    def inconclusive(result, counters):
        if type(result).__name__ == "Inconclusive":
            counters["inconclusive"] = counters.get("inconclusive", 0) + 1

    tracer.result_hooks["polynomials.rational_roots"] = roots
    tracer.result_hooks["periods.cm_isogeny_check"] = inconclusive


def from_counters(snap, layer_of):
    """Layer metrics of one pass, from a tracer snapshot difference."""
    stats = snap["stats"]
    out = {}
    for layer in SELF_TIME_LAYERS:
        out["%s.self_s" % layer] = sum(v[2] for k, v in stats.items() if layer_of.get(k) == layer)
    for name, fns in CALL_COUNTS.items():
        out[name] = sum(stats.get(fn, [0])[0] for fn in fns)
    for name, fn in INCLUSIVE_TIMES.items():
        out[name] = stats.get(fn, [0, 0.0])[1]
    callee, caller = RR_EVAL
    evals = snap["callers"].get(callee, {}).get(caller, 0)
    out["polynomials.rr_evals"] = evals
    out["polynomials.rr_hit_ratio"] = snap["counters"].get("rr_roots", 0) / evals if evals else 0.0
    out["periods.inconclusive_count"] = snap["counters"].get("inconclusive", 0)
    return out


def source_lines(root):
    """Non-blank source lines per module of ``src/k3quartic``."""
    pkg = os.path.join(root, "src", "k3quartic")
    out = {}
    total = 0
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
            n = sum(1 for line in fh if line.strip())
        total += n
        out["lines.%s" % ("package" if fname == "__init__.py" else fname[:-3])] = n
    result = {"lines.%s" % m: out.get("lines.%s" % m, 0) for m in MODULES}
    result["lines.total"] = total
    return result


IMPORT_REPEATS = 3
_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_times(root, env):
    """Median over IMPORT_REPEATS cold ``-X importtime`` runs of ``import k3quartic.cli``:
    self time of each k3quartic module, cumulative time of mpmath and of the
    whole import, in reference ms: each run is scaled by INTERPRETER_START_S
    over a bare interpreter start timed just before it."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        workloads.interpreter_start(root)
        scale = workloads.INTERPRETER_START_S / (time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import k3quartic.cli"],
                              cwd=root, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("import k3quartic.cli failed: %s" % proc.stderr[-500:])
        got = {}
        for m in _IMPORTTIME.finditer(proc.stderr):
            self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name == "k3quartic":
                got["import.package_ms"] = self_us / 1000
            elif name.startswith("k3quartic."):
                got["import.%s_ms" % name.split(".", 1)[1]] = self_us / 1000
                if name == "k3quartic.cli":
                    got["import.total_ms"] = cum_us / 1000
            elif name == "mpmath":
                got["import.mpmath_ms"] = cum_us / 1000
        runs.append({k: v * scale for k, v in got.items()})
    names = ["import.%s_ms" % m for m in MODULES + ("mpmath",)] + ["import.total_ms"]
    return {n: statistics.median(r.get(n, 0.0) for r in runs) for n in names}
