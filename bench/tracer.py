"""Per-layer tracing installed from outside the program.

``Installation`` wraps the public functions of every ``ltdirac`` module
and the public methods (plus the arithmetic dunders) of its classes.  Each
wrapper times its call and charges the time to a name of the form
``<module>.<qualname>``; self time is the call's duration minus the time
spent in wrapped calls below it.  Nothing under ``src/`` changes: module
functions are rebound in every ltdirac module that holds them (names
imported with ``from .exactalg import ...`` are separate bindings), and
methods, dunders included, are replaced on the class.

Stage-level calls (module functions and the methods of DiffOperator,
ConnectionMatrix and FieldHandle.extend) are also kept as span records
(name, start, end, parent, job).  Element-level methods of AlgElem,
LaurentSeries, UniPoly, ExpForm and the rest run hundreds of thousands
of times per job, so for them only the call count and self time are
aggregated, which keeps the recorder's memory bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("cli", "diffop", "dilatation", "errors", "exactalg", "invariant",
           "parsing", "puiseux", "series", "turrittin")

ARITH_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__truediv__", "__rtruediv__"))

#: classes whose methods get a span record, not only aggregates
SPAN_CLASSES = frozenset(("DiffOperator", "ConnectionMatrix"))
SPAN_METHODS = frozenset(("FieldHandle.extend",))

SPAN_CAP = 50_000


class Recorder:
    """Spans and per-name aggregates of one traced run, kept in memory."""

    def __init__(self):
        self.origin = perf_counter()
        self.stack = []        # open frames: [start, child_time]
        self.span_stack = []   # indices of open recorded spans
        self.calls = {}
        self.self_s = {}
        self.inclusive_s = {}  # outermost calls only, for span names
        self.depth = {}
        self.spans = []
        self.dropped_spans = 0
        self.max_abs_degree = 1  # Q, until an extension is built
        self.job = None

    def wrap(self, name, fn, keep_span, after=None):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s

        if not keep_span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [perf_counter(), 0.0]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - frame[0]
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
                    calls[name] = calls.get(name, 0) + 1
            return wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            span = self._open(name)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, result)
                return result
            finally:
                end = perf_counter()
                dur = end - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_s[name] = self_s.get(name, 0.0) + dur - frame[1]
                calls[name] = calls.get(name, 0) + 1
                self._close(name, span, frame[0], end, dur)
        return span_wrapper

    def _open(self, name):
        self.depth[name] = self.depth.get(name, 0) + 1
        if len(self.spans) >= SPAN_CAP:
            self.dropped_spans += 1
            return None
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append([name, None, None, parent, self.job])
        self.span_stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, name, span, start, end, dur):
        self.depth[name] -= 1
        if self.depth[name] == 0:
            self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + dur
        if span is not None:
            self.span_stack.pop()
            record = self.spans[span]
            record[1] = start - self.origin
            record[2] = end - self.origin

    def snapshot(self):
        """Aggregates and spans as plain data (JSON-ready)."""
        return {"calls": self.calls, "self_s": self.self_s,
                "inclusive_s": self.inclusive_s,
                "max_abs_degree": self.max_abs_degree,
                "spans": self.spans, "dropped_spans": self.dropped_spans}


def _note_degree(recorder, field):
    recorder.max_abs_degree = max(recorder.max_abs_degree, field.abs_degree)


class Installation:
    """The wrappers of one recorder, built once; ``apply`` puts them in
    place and ``remove`` restores the originals."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.swaps = []  # (owner, attribute, original, wrapper)
        modules = {short: importlib.import_module(f"ltdirac.{short}")
                   for short in MODULES}
        holders = list(modules.values()) + [importlib.import_module("ltdirac")]
        for short, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = recorder.wrap(f"{short}.{attr}", obj, True)
                    for holder in holders:
                        for name, value in vars(holder).items():
                            if value is obj:
                                self.swaps.append((holder, name, obj, wrapper))
                elif inspect.isclass(obj) and \
                        not issubclass(obj, BaseException):
                    self._wrap_class(short, obj)

    def _wrap_class(self, short, cls):
        for attr, value in vars(cls).items():
            if attr.startswith("_") and attr not in ARITH_DUNDERS:
                continue
            qual = f"{cls.__name__}.{attr}"
            name = f"{short}.{qual}"
            keep = (cls.__name__ in SPAN_CLASSES and attr not in ARITH_DUNDERS
                    or qual in SPAN_METHODS)
            after = _note_degree if qual == "FieldHandle.extend" else None
            if isinstance(value, staticmethod):
                new = staticmethod(
                    self.recorder.wrap(name, value.__func__, keep, after))
            elif isinstance(value, property):
                new = property(self.recorder.wrap(name, value.fget, keep))
            elif inspect.isfunction(value):
                new = self.recorder.wrap(name, value, keep, after)
            else:
                continue
            self.swaps.append((cls, attr, value, new))

    def apply(self):
        for owner, attr, _, wrapper in self.swaps:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in reversed(self.swaps):
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------

ELEM_OPS = tuple(sorted(ARITH_DUNDERS)) + ("inverse",)
LAYER_MODULES = ("exactalg", "series", "diffop", "puiseux", "invariant",
                 "parsing", "cli")


def merge(total, part):
    """Add the aggregates of ``part`` (a snapshot) into ``total``."""
    for key in ("calls", "self_s", "inclusive_s"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    total["max_abs_degree"] = max(total.get("max_abs_degree", 0),
                                  part["max_abs_degree"])
    return total


def layer_metrics(agg, jobs, matrix_jobs):
    """Per-layer metrics (per traced job unless the name says otherwise)."""
    calls = agg.get("calls", {})
    self_s = agg.get("self_s", {})
    incl = agg.get("inclusive_s", {})
    per = 1.0 / max(jobs, 1)

    def n(*names):
        return sum(calls.get(x, 0) for x in names) * per

    def s(*names):
        return sum(self_s.get(x, 0.0) for x in names) * per

    def prefix(p):
        return sum(v for k, v in self_s.items() if k.startswith(p)) * per

    alg = [f"exactalg.AlgElem.{op}" for op in ELEM_OPS]
    out = {
        "exactalg.elem_ops": (n(*alg), "count/job"),
        "exactalg.elem_self_s": (prefix("exactalg.AlgElem."), "s/job"),
        "exactalg.zero_one_reads": (
            n("exactalg.FieldHandle.zero", "exactalg.FieldHandle.one"),
            "count/job"),
        "exactalg.extend_calls": (n("exactalg.FieldHandle.extend"),
                                  "count/job"),
        "exactalg.extend_self_s": (s("exactalg.FieldHandle.extend"), "s/job"),
        "exactalg.max_abs_degree": (agg.get("max_abs_degree", 0), "degree"),
        "exactalg.poly_factor_calls": (n("exactalg.poly_factor"), "count/job"),
        "exactalg.poly_factor_self_s": (s("exactalg.poly_factor"), "s/job"),
        "exactalg.minimal_poly_calls": (n("exactalg.minimal_poly"),
                                        "count/job"),
        "exactalg.minimal_poly_self_s": (s("exactalg.minimal_poly"), "s/job"),
        "puiseux.form_key_calls": (n("puiseux.ExpForm.key"), "count/job"),
        "puiseux.form_key_self_s": (s("puiseux.ExpForm.key"), "s/job"),
        "invariant.descend_self_s": (s("invariant.descend"), "s/job"),
        "series.mul_calls": (n("series.LaurentSeries.__mul__",
                               "series.LaurentSeries.__rmul__"), "count/job"),
        "series.mul_self_s": (s("series.LaurentSeries.__mul__",
                                "series.LaurentSeries.__rmul__"), "s/job"),
        "series.inverse_calls": (n("series.LaurentSeries.inverse"),
                                 "count/job"),
        "series.inverse_self_s": (s("series.LaurentSeries.inverse"), "s/job"),
        "series.add_self_s": (s("series.LaurentSeries.__add__",
                                "series.LaurentSeries.__sub__"), "s/job"),
        "turrittin.precision_attempts": (
            calls.get("diffop.ConnectionMatrix.truncate", 0)
            / max(matrix_jobs, 1), "count/job"),
        "diffop.gauge_shift_calls": (n("diffop.DiffOperator.gauge_shift"),
                                     "count/job"),
        "diffop.gauge_shift_self_s": (s("diffop.DiffOperator.gauge_shift"),
                                      "s/job"),
        "diffop.newton_polygon_self_s": (s("diffop.newton_polygon"), "s/job"),
        "diffop.ramify_self_s": (s("diffop.DiffOperator.ramify",
                                   "diffop.ramify"), "s/job"),
        "turrittin.forms_conjugate_calls": (n("turrittin.forms_conjugate"),
                                            "count/job"),
        "turrittin.forms_conjugate_self_s": (s("turrittin.forms_conjugate"),
                                             "s/job"),
        "turrittin.lt_decompose_s": (
            incl.get("turrittin.lt_decompose", 0.0) * per, "s/job"),
        "turrittin.self_s": (prefix("turrittin."), "s/job"),
        "parsing.parse_self_s": (s("parsing.parse_operator"), "s/job"),
        "cli.run_self_s": (s("cli.run"), "s/job"),
    }
    for module in LAYER_MODULES:
        out[f"{module}.self_s"] = (prefix(f"{module}."), "s/job")
    return out
