"""Report assembly for the command line.

A report is a plain dict: command echo, inputs, results, a verification
ledger, and version stamps.  Rendering goes through serialize.dumps so the
bytes are stable across runs: sorted keys, rationals as strings, no
timestamps.  Ledger entries keep their insertion order.
"""

from . import __version__
from .serialize import dumps


class Ledger:
    """Ordered list of named pass/fail entries, each with a detail string.

    The detail carries the residual (or a short summary) on pass and the
    witness on failure; failures always have a nonempty witness.
    """

    def __init__(self):
        self.entries = []

    def add(self, name, passed, detail=""):
        passed = bool(passed)
        detail = str(detail)
        if not passed and not detail:
            detail = "check returned false"
        self.entries.append({"checkName": name, "pass": passed, "detail": detail})


def build_report(command, inputs, results, ledger):
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "verificationLedger": ledger.entries,
        "versions": {"k3-quartic-lab": __version__},
    }


def render_json(report):
    return dumps(report) + "\n"


def render_text(report):
    lines = ["command: %s" % report["command"]]
    inputs = report["inputs"]
    if inputs:
        lines.append("inputs: " + ", ".join(
            "%s=%s" % (k, inputs[k]) for k in sorted(inputs)))
    lines.append("")
    lines.extend(_text_block(report["results"], indent=""))
    ledger = report["verificationLedger"]
    if ledger:
        lines.append("")
        lines.append("checks:")
        for e in ledger:
            mark = "PASS" if e["pass"] else "FAIL"
            detail = (" [%s]" % e["detail"]) if e["detail"] else ""
            lines.append("  %s  %s%s" % (mark, e["checkName"], detail))
        failed = [e for e in ledger if not e["pass"]]
        lines.append("")
        if failed:
            lines.append("%d of %d checks failed" % (len(failed), len(ledger)))
        else:
            lines.append("all %d checks passed" % len(ledger))
    return "\n".join(lines) + "\n"


def _text_block(value, indent):
    if isinstance(value, dict):
        out = []
        for k in value:
            v = value[k]
            if isinstance(v, (dict, list)) and v:
                out.append("%s%s:" % (indent, k))
                out.extend(_text_block(v, indent + "  "))
            else:
                out.append("%s%s: %s" % (indent, k, _scalar_text(v)))
        return out
    if isinstance(value, list):
        if not value:
            return ["%s[]" % indent]
        out = []
        for v in value:
            if isinstance(v, (dict, list)):
                out.append("%s-" % indent)
                out.extend(_text_block(v, indent + "  "))
            else:
                out.append("%s- %s" % (indent, _scalar_text(v)))
        return out
    return ["%s%s" % (indent, _scalar_text(value))]


def _scalar_text(v):
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)
