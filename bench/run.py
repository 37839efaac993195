"""Benchmark of the k3quartic library: time to a certified verdict.

    python3 bench/run.py --workload {ledger,family,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
One process, one client, closed loop: each op waits for the previous one,
and no threads are started.  The workload's op list is run pass after pass
until ``--seconds`` have elapsed and at least 100 ops ran (the pass in
flight is finished).  Every op runs under a per-call budget
(``signal.setitimer`` in-process, a kill for CLI children); a failed op
counts at the budget.

Every time the run reports is in reference seconds.  Each workload has a
reference: fixed stdlib work like its inner loop, about ``reference_s`` long
on an unloaded two-core host (see ``workloads.Workload``).  It is timed
before every op, after the last op of a pass, and, for in-process ops, from
a signal handler after every SAMPLE_EVERY_S of CPU time inside the op.  Each
op's time, less the references inside it, is scaled by ``reference_s`` over
the mean of the reference times before, inside and after it.  The process
and its children are pinned to one core, so that the reference runs where
the measured work runs.

A shared two-core host ran the same code from 0.6 to 1.7 times as fast as
its median, changing speed within seconds.  Over 25 runs of the ledger's
longest check on such a host, the quartile distance over median of its time
was 0.28 raw, 0.16 scaled by the references before and after it, and 0.05
scaled with the references inside it too.  Over 20 s windows of the ``cli``
workload it was 0.13 raw, 0.035 scaled by the ledger's reference and 0.017
scaled by its own, a bare interpreter start.  The set-up is scaled by the
reference timed right after it (see ``set_up``).  The traced run's layer
times include the references inside the function they interrupted, about
2.5% of a long op.  The raw median pass time and the median reference time
are printed in the summary.  ``op_p50_ms`` and ``op_p90_ms`` are
percentiles over the op list, each op at its median latency over the run's
passes.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
run that times a third of ``--seconds`` untraced and the rest traced, and
the spans and counters go to ``.bench_out/trace-<workload>-<seed>.json``.
A human-readable summary goes to stderr.
"""

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

import gates
import layers
import tracer as tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_PROBES = 10
SETUP_REFERENCES = 3
# CPU seconds between reference samples inside an op; each costs about 5 ms,
# so this adds about 2.5% to an op longer than it
SAMPLE_EVERY_S = 0.2
# at least ten samples beyond the 90th percentile
MIN_SAMPLES = 100

E2E_UNITS = {"pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "ops_ok_ratio": "ratio",
             "setup_s": "s", "peak_rss_mb": "MB"}


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def call_in_process(fn, workload):
    """``fn()`` under the budget, with the workload's reference timed from a
    signal handler after every SAMPLE_EVERY_S of CPU time, so that the scale
    of a long op follows the host's speed while it runs.  Returns (result,
    reference times)."""
    samples = []

    def on_sample(signum, frame):
        samples.append(time_reference(workload))

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGVTALRM, on_sample)
    signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
    try:
        return fn(), samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def run_op(op, call, workload):
    """Time one op; returns (seconds, result, error text or None, reference
    times taken during the op).  The seconds leave out those reference times."""
    t0 = time.perf_counter()
    try:
        if workload.in_process:
            result, samples = call_in_process(call, workload)
        else:
            result, samples = call(), []
        elapsed = time.perf_counter() - t0
    except (BudgetExceeded, TimeoutError):
        return workload.budget_s, None, "over its %.0f s budget" % workload.budget_s, []
    except Exception as exc:  # the op failed; the run goes on and counts it
        return workload.budget_s, None, "raised %s: %s" % (type(exc).__name__, exc), []
    error = op.expect(result)
    if error:
        return workload.budget_s, result, error, []
    return elapsed - sum(samples), result, None, samples


def time_reference(workload):
    t0 = time.perf_counter()
    workload.reference()
    return time.perf_counter() - t0


class Tally:
    """Latencies, pass times, failures and the last result of every op.

    ``latencies`` and ``pass_times`` are in reference seconds: each op is
    scaled by the mean of the reference times taken just before it, during
    it (``call_in_process``) and just after it.  A failed op counts at the
    budget.
    """

    def __init__(self, reference_s):
        self.reference_s = reference_s
        self.latencies = []
        self.raw_pass_times = []
        self.reference = []
        self.pass_times = []
        self.errors = []
        self.results = {}

    def record_pass(self, outcomes, reference):
        """``outcomes`` is [(op, seconds, result, error, in-op reference
        times)] of one pass and ``reference`` the reference times before each
        op and after the last."""
        scaled = []
        for i, (op, seconds, result, error, samples) in enumerate(outcomes):
            if error:
                self.errors.append("%s: %s" % (op.label, error))
            else:
                self.results[op.label] = result
                seconds *= self.reference_s / statistics.mean(
                    [reference[i]] + samples + [reference[i + 1]])
            scaled.append(seconds)
        self.latencies += scaled
        self.pass_times.append(sum(scaled))
        self.raw_pass_times.append(sum(o[1] for o in outcomes))
        self.reference += reference

    def absorb(self, other):
        self.latencies += other.latencies
        self.reference += other.reference
        self.errors += other.errors
        self.results.update(other.results)


def run_pass(workload, tally, tracer=None):
    outcomes, reference = [], []
    for op in workload.ops:
        gc.collect()  # every op starts from the same collector state
        reference.append(time_reference(workload))
        call = tracer.wrapped(op.call) if tracer else op.call
        span = tracer.begin_op(op.label) if tracer else None
        outcome = run_op(op, call, workload)
        if tracer:
            tracer.end_op(span)
        outcomes.append((op,) + outcome)
    reference.append(time_reference(workload))
    tally.record_pass(outcomes, reference)


def run_passes(workload, seconds, tally, min_samples=0):
    """Whole passes until ``seconds`` have elapsed and ``min_samples`` ops ran."""
    start = time.perf_counter()
    while True:
        run_pass(workload, tally)
        if time.perf_counter() - start >= seconds and len(tally.latencies) >= min_samples:
            return


def percentile(values, q):
    """The q-th percentile, interpolated between the two nearest values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_op_medians(workload, tally):
    """Each op of the list at its median latency over the run's passes.

    Every op runs once per pass, so percentiles over these weigh the ops as
    the samples do; where a percentile falls between two ops, it interpolates
    between their medians rather than between one op's slowest sample and
    the next op's fastest.
    """
    samples = {}
    for op_index, seconds in enumerate(tally.latencies):
        samples.setdefault(op_index % len(workload.ops), []).append(seconds)
    return [statistics.median(v) for v in samples.values()]


# -- set-up -----------------------------------------------------------------------


def set_up(name, seed):
    """Import, input generation and warm-up; returns (workload, reference seconds).

    The set-up is scaled by the workload's reference timed right after it,
    since the host may run at another speed by the time the ops run.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    wl = workloads.BUILDERS[name](seed, ROOT)
    wl.warm_up()
    seconds = time.perf_counter() - t0
    reference = [time_reference(wl) for _ in range(SETUP_REFERENCES)]
    return wl, seconds * wl.reference_s / statistics.median(reference)


def setup_seconds(name, seed, own):
    """Median of this process's set-up and SETUP_PROBES fresh processes'."""
    samples = [own]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, env=workloads.child_env(ROOT), capture_output=True, text=True,
            timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr[-2000:])
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


# -- probes and gates ---------------------------------------------------------------


def run_probes(workload):
    """Run each known-defect probe once; returns ([(label, error)], {label: result})."""
    outcomes, results = [], {}
    for op in workload.probes:
        _, result, error, _ = run_op(op, op.call, workload)
        outcomes.append((op.label, error))
        if error is None:
            results[op.label] = result
    return outcomes, results


def gate(workload, results):
    data = {op.label: op.data for op in workload.ops + workload.probes}
    if workload.name == "ledger":
        with open(os.path.join(BENCH, "record.json")) as fh:
            sha = json.load(fh)["ledger_sha256"]
        proc = subprocess.run(
            [sys.executable, "-m", "k3quartic.cli", "verify", "all", "--json"],
            cwd=ROOT, env=workloads.child_env(ROOT), capture_output=True, text=True,
            timeout=120)
        return gates.ledger_gate({data[label]: r for label, r in results.items()},
                                 sha, proc.stdout)
    if workload.name == "family":
        return gates.family_gate(results, data)
    return gates.cli_gate(results, data)


def ok_ratio(workload, tally, probe_outcomes):
    """Share of the workload's ops that succeed: one pass of the op list,
    weighted by its failure rate over the run, plus the probes."""
    n_ops, n_probes = len(workload.ops), len(probe_outcomes)
    failed_share = len(tally.errors) / len(tally.latencies) * n_ops
    failed_probes = sum(1 for _, err in probe_outcomes if err)
    return 1.0 - (failed_share + failed_probes) / (n_ops + n_probes)


# -- traced run -----------------------------------------------------------------------


def pass_scale(tally):
    """Factor from measured to reference seconds of the last recorded pass."""
    return tally.pass_times[-1] / tally.raw_pass_times[-1]


def scale_times(metrics, factor):
    units = layers.metric_units()
    return {name: v * factor if units[name] in ("s", "ms") else v
            for name, v in metrics.items()}


def traced_passes(workload, seconds, tally):
    """Traced passes for ``seconds``; returns (per-pass layer metrics in
    reference seconds, trace doc)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    per_pass = []
    if workload.in_process:
        tr = tracing.Tracer().install()
        layers.install_hooks(tr)
        start = time.perf_counter()
        try:
            while True:
                tr.recording = not per_pass
                before = tr.snapshot()
                run_pass(workload, tally, tracer=tr)
                tr.recording = False
                metrics = scale_times(layers.from_counters(
                    tracing.diff(tr.snapshot(), before), tr.layer), pass_scale(tally))
                if workload.name == "ledger":
                    metrics.update({"check.%s_s" % op.data: secs for op, secs in
                                    zip(workload.ops, tally.latencies[-len(workload.ops):])})
                per_pass.append(metrics)
                if time.perf_counter() - start >= seconds:
                    break
        finally:
            tr.uninstall()
        doc = {"stats": tr.snapshot(), "layers": tr.layer, "spans": tr.spans,
               "span_fields": ["id", "parent", "op", "name", "start", "end"]}
        return per_pass, doc

    # cli: each child traces itself and writes its counters to a file
    runner = [os.path.join(BENCH, "cli_child.py")]
    layer_of = {}
    spans = []
    start = time.perf_counter()
    while True:
        first = not per_pass
        total = tracing.empty()
        outcomes, reference = [], []
        for i, op in enumerate(workload.ops):
            reference.append(time_reference(workload))
            path = os.path.join(out_dir, "child-trace-%d.json" % i)
            argv = ["--trace", path] + (["--spans"] if first else []) + ["--"] + op.call.argv
            call = workloads.CliCall(ROOT, argv, workload.budget_s, runner=runner)
            outcomes.append((op,) + run_op(op, call, workload))
            if os.path.exists(path):
                with open(path) as fh:
                    child = json.load(fh)
                os.remove(path)
                tracing.merge(total, child)
                layer_of.update(child["layers"])
                if first:
                    spans.append({"op": op.label, "spans": child["spans"]})
        reference.append(time_reference(workload))
        tally.record_pass(outcomes, reference)
        per_pass.append(scale_times(layers.from_counters(total, layer_of), pass_scale(tally)))
        if time.perf_counter() - start >= seconds:
            break
    return per_pass, {"layers": layer_of, "children": spans}


def per_layer_metrics(workload, seconds, seed, tally):
    untraced = Tally(workload.reference_s)
    run_passes(workload, seconds / 3, untraced)
    per_pass, doc = traced_passes(workload, seconds * 2 / 3, tally)
    units = layers.metric_units()
    metrics = {name: 0 for name in units}
    for name in per_pass[0]:
        # counts repeat exactly from pass to pass; times are medians
        metrics[name] = per_pass[0][name] if units[name] == "count" else \
            statistics.median(p.get(name, 0) for p in per_pass)
    metrics.update(layers.source_lines(ROOT))
    metrics.update(layers.import_times(ROOT, workloads.child_env(ROOT)))
    metrics["trace.overhead_ratio"] = (statistics.median(tally.pass_times)
                                       / statistics.median(untraced.pass_times))
    tally.absorb(untraced)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    doc.update({"workload": workload.name, "seed": seed, "per_pass": per_pass,
                "untraced_pass_s": untraced.pass_times, "traced_pass_s": tally.pass_times})
    with open(os.path.join(ROOT, ".bench_out", "trace-%s-%d.json" % (workload.name, seed)),
              "w") as fh:
        json.dump(doc, fh)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


# -- main ---------------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "k3quartic", "__init__.py")):
        print("error: no src/k3quartic under %s; run from a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    # one core for this process and the processes it starts, so that the
    # reference snippet runs on the core that does the measured work
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload, own_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0
    import k3quartic
    if not os.path.abspath(k3quartic.__file__).startswith(os.path.join(ROOT, "src")):
        print("error: k3quartic imported from %s, not this checkout" % k3quartic.__file__,
              file=sys.stderr)
        return 2
    setup_s, setup_samples = setup_seconds(args.workload, args.seed, own_setup)

    tally = Tally(workload.reference_s)
    if args.trace:
        metrics = per_layer_metrics(workload, args.seconds, args.seed, tally)
    else:
        run_passes(workload, args.seconds, tally, min_samples=MIN_SAMPLES)
    probe_outcomes, probe_results = run_probes(workload)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not workload.in_process:
        rss_kib = max((r[3] for r in tally.results.values()), default=0)
    if not args.trace:
        typical = per_op_medians(workload, tally)
        p90 = percentile(typical, 90)
        values = {
            "pass_s": statistics.median(tally.pass_times),
            "op_p50_ms": percentile(typical, 50) * 1000,
            "op_p90_ms": p90 * 1000,
            "ops_ok_ratio": ok_ratio(workload, tally, probe_outcomes),
            "setup_s": setup_s,
            "peak_rss_mb": rss_kib / 1024,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    gate_errors = gate(workload, dict(tally.results, **probe_results))
    # a timed op that raised or ran over budget has no result for the gate to
    # see, so any failure of the op list makes the run incorrect; the probes'
    # failures are the known defects and only count in ops_ok_ratio
    correct = not gate_errors and not tally.errors
    summary = [
        "workload %s seed %d: %d ops in %d passes, %d failed; %d probes, %d failed"
        % (workload.name, args.seed, len(tally.latencies), len(tally.pass_times),
           len(tally.errors), len(probe_outcomes), sum(1 for _, e in probe_outcomes if e)),
    ]
    summary.append("  reference median %.6f s; raw median pass %.4f s"
                   % (statistics.median(tally.reference),
                      statistics.median(tally.raw_pass_times)))
    if not args.trace:
        summary.append("  %d samples lie beyond op_p90_ms"
                       % sum(1 for x in tally.latencies if x > p90))
    summary.append("  set-up samples (reference s): %s"
                   % " ".join("%.4f" % x for x in sorted(setup_samples)))
    summary += ["  op failure: %s" % e for e in tally.errors[:20]]
    summary += ["  probe %s: %s" % (label, err or "ok") for label, err in probe_outcomes]
    summary += ["  gate: %s" % e for e in gate_errors[:20]]
    summary += ["  %s = %s %s" % (k, v["value"], v["unit"]) for k, v in metrics.items()]
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(tally.latencies),
                      "failed": len(tally.errors), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
