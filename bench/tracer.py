"""Outside-in tracer for the k3quartic package.

The library is not edited.  ``Tracer.install`` wraps every public function
and every public or arithmetic method defined in a ``k3quartic`` module, and
rebinds the wrapper under every name that held the original in every
``k3quartic.*`` namespace.  Wrapping the defining module alone would miss
the copies that ``from .x import y`` made in the importing modules; the
check tables in ``cli`` (``CHECKS`` and ``_CHECK_BY_NAME``) hold references
too and are rebound the same way.

Every wrapped call adds to aggregate counters: calls, inclusive time and
self time (inclusive time minus the time of wrapped callees), and a count
per caller.  Methods of the scalar and polynomial classes are
called millions of times per pass, so they keep only those aggregates.
Other calls also record a span (id, parent span, op, name, start, end) in
memory, at most SPAN_CAP per function, written out by ``dump``.
"""

import inspect
import json
import sys
import time

PACKAGE = "k3quartic"
SPAN_CAP = 2000

# module short name -> layer name; ``serialize`` renders reports, so it is
# counted with ``report``
LAYER_OF_MODULE = {"serialize": "report", "__init__": "package"}

# classes whose methods are the hot scalar and polynomial arithmetic
AGGREGATE_ONLY_CLASSES = {
    "fields": {"FieldElement", "FieldContext"},
    "polynomials": {"Poly", "RationalFunction"},
    "multipoly": {"MultiPoly", "QuotientContext", "QuotientFraction"},
}

WRAPPED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__divmod__",
    "__pow__", "__neg__", "__call__", "__eq__",
}


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _swap(value, mapping):
    if inspect.isfunction(value):
        return mapping.get(value, value)
    if isinstance(value, tuple):
        swapped = tuple(_swap(v, mapping) for v in value)
        return swapped if any(a is not b for a, b in zip(swapped, value)) else value
    return value


def rebind_everywhere(mapping):
    """Replace each function ``f`` in ``mapping`` by ``mapping[f]`` in every
    ``k3quartic.*`` namespace, in module-level dicts, and in tuples (rebuilt
    one level deep).  Returns the list that ``undo`` takes."""
    restore = []
    for mod in package_modules():
        for name, value in list(vars(mod).items()):
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    new = _swap(v, mapping)
                    if new is not v:
                        restore.append((value, k, v))
                        value[k] = new
                continue
            new = _swap(value, mapping)
            if new is not value:
                restore.append((mod, name, value))
                setattr(mod, name, new)
    return restore


def undo(restore):
    for target, name, original in reversed(restore):
        if isinstance(target, dict):
            target[name] = original
        else:
            setattr(target, name, original)
    restore.clear()


def _short(modname):
    return modname.rsplit(".", 1)[-1] if modname != PACKAGE else "__init__"


def layer_of(modname):
    short = _short(modname)
    return LAYER_OF_MODULE.get(short, short)


class Tracer:
    """Aggregates and spans for one process; see the module docstring."""

    def __init__(self):
        self.stats = {}        # qualname -> [calls, inclusive_s, self_s]
        self.callers = {}      # qualname -> {caller qualname or "op": calls}
        self.counters = {}     # named counts kept by result hooks
        self.layer = {}        # qualname -> layer
        self.result_hooks = {}  # qualname -> fn(result, counters), called on return
        self.spans = []
        self.recording = False
        self.op = None
        self._span_counts = {}
        self._stack = []       # frames: [qualname, child_s, span_id]
        self._restore = []
        self._wrapped = {}     # original function -> wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        for mod in package_modules():
            short = _short(mod.__name__)
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not name.startswith("_"):
                    self._wrap_function(obj, "%s.%s" % (short, name), mod.__name__,
                                        aggregate=False)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, short, mod.__name__)
        self._restore += rebind_everywhere(self._wrapped)
        return self

    def _wrap_class(self, cls, short, modname):
        aggregate = cls.__name__ in AGGREGATE_ONLY_CLASSES.get(short, ())
        for name, attr in list(vars(cls).items()):
            if name.startswith("__"):
                if name not in WRAPPED_DUNDERS:
                    continue
            elif name.startswith("_"):
                continue
            kind = None
            if isinstance(attr, classmethod):
                kind, fn = classmethod, attr.__func__
            elif isinstance(attr, staticmethod):
                kind, fn = staticmethod, attr.__func__
            elif inspect.isfunction(attr):
                fn = attr
            else:
                continue  # properties and plain values stay as they are
            wrapper = self._wrap_function(
                fn, "%s.%s.%s" % (short, cls.__name__, fn.__name__), modname, aggregate)
            self._restore.append((cls, name, attr))
            setattr(cls, name, kind(wrapper) if kind else wrapper)

    def _wrap_function(self, fn, qualname, modname, aggregate):
        if fn in self._wrapped:
            return self._wrapped[fn]
        self.layer[qualname] = layer_of(modname)
        entry = self.stats.setdefault(qualname, [0, 0.0, 0.0])
        callers = self.callers.setdefault(qualname, {})
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            key = caller[0] if caller else "op"
            callers[key] = callers.get(key, 0) + 1
            span_id = None
            if not aggregate and tracer.recording:
                span_id = tracer._open_span(qualname, caller)
            frame = [qualname, 0.0, span_id if span_id is not None
                     else (caller[2] if caller else None)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                if stack and stack[-1] is frame:
                    stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span_id is not None:
                    tracer.spans[span_id][5] = t0 + elapsed
            hook = tracer.result_hooks.get(qualname)
            if hook is not None:
                hook(result, tracer.counters)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        self._wrapped[fn] = wrapper
        return wrapper

    def _open_span(self, qualname, caller):
        n = self._span_counts.get(qualname, 0)
        if n >= SPAN_CAP:
            return None
        self._span_counts[qualname] = n + 1
        span_id = len(self.spans)
        parent = caller[2] if caller else None
        self.spans.append([span_id, parent, self.op, qualname, time.perf_counter(), None])
        return span_id

    def uninstall(self):
        undo(self._restore)

    def wrapped(self, fn):
        """The wrapper installed for ``fn``, or ``fn`` when it is not wrapped."""
        return self._wrapped.get(fn, fn)

    # -- op boundaries -------------------------------------------------------

    def begin_op(self, label):
        """Open the root span of one benchmark op; returns its span id."""
        self._stack.clear()
        self.op = label
        if not self.recording:
            return None
        span_id = len(self.spans)
        self.spans.append([span_id, None, label, "op", time.perf_counter(), None])
        self._stack.append(["op", 0.0, span_id])
        return span_id

    def end_op(self, span_id):
        # a budget interrupt can leave frames of the aborted call behind
        self._stack.clear()
        if span_id is not None:
            self.spans[span_id][5] = time.perf_counter()

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """A JSON-ready copy of the counters, for differencing passes."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "callers": {k: dict(v) for k, v in self.callers.items()},
                "counters": dict(self.counters)}

    def dump(self, path):
        doc = {
            "layers": self.layer,
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.spans,
            "span_cap": SPAN_CAP,
        }
        doc.update(self.snapshot())
        with open(path, "w") as fh:
            json.dump(doc, fh)


def diff(after, before):
    """Counters accumulated between two snapshots."""
    out = {"stats": {}, "callers": {}, "counters": {}}
    for k, v in after["stats"].items():
        b = before["stats"].get(k, [0, 0.0, 0.0])
        out["stats"][k] = [v[i] - b[i] for i in range(3)]
    for k, v in after["callers"].items():
        b = before["callers"].get(k, {})
        out["callers"][k] = {c: n - b.get(c, 0) for c, n in v.items()}
    for k, n in after["counters"].items():
        out["counters"][k] = n - before["counters"].get(k, 0)
    return out


def merge(into, part):
    """Add the counters of snapshot ``part`` into snapshot ``into``."""
    for k, v in part["stats"].items():
        acc = into["stats"].setdefault(k, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += v[i]
    for k, v in part["callers"].items():
        acc = into["callers"].setdefault(k, {})
        for c, n in v.items():
            acc[c] = acc.get(c, 0) + n
    for k, n in part["counters"].items():
        into["counters"][k] = into["counters"].get(k, 0) + n
    return into


def empty():
    return {"stats": {}, "callers": {}, "counters": {}}
