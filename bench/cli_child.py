"""Run one ``k3quartic`` CLI call inside a benchmark-controlled process.

    python3 bench/cli_child.py [--trace OUT [--spans]] [--perturb FN ...] -- ARGS...

``--trace OUT`` installs the tracer before ``cli.main(ARGS)`` runs and writes
its counters (and, with ``--spans``, its spans) to OUT.  ``--perturb FN``
rebinds the library function FN to its own ``perturb=True`` negative control
in every namespace, which the gate self-test uses.  The exit status is the
CLI's.
"""

import argparse
import functools
import inspect
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def perturbed(names):
    """{original: its perturb=True variant} for the named library functions."""
    import tracer
    mapping = {}
    for name in names:
        found = [getattr(m, name) for m in tracer.package_modules()
                 if inspect.isfunction(getattr(m, name, None))
                 and getattr(m, name).__module__ == m.__name__]
        if len(found) != 1 or "perturb" not in inspect.signature(found[0]).parameters:
            raise SystemExit("no library function %r with a perturb flag" % name)
        mapping[found[0]] = functools.partial(found[0], perturb=True)
    return mapping


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace")
    parser.add_argument("--spans", action="store_true")
    parser.add_argument("--perturb", action="append", default=[])
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    args = opts.args[1:] if opts.args[:1] == ["--"] else opts.args
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    from k3quartic import cli
    import layers
    import tracer
    restore = tracer.rebind_everywhere(perturbed(opts.perturb))
    tr = None
    if opts.trace:
        tr = tracer.Tracer().install()
        layers.install_hooks(tr)
        tr.recording = opts.spans
    span = tr.begin_op(" ".join(args)) if tr else None
    try:
        code = cli.main(args)
    finally:
        if tr:
            tr.end_op(span)
            tr.uninstall()
            tr.dump(opts.trace)
        tracer.undo(restore)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
