"""Span tracing of psolve from outside the package.

`Tracer.install()` replaces public functions (and a few engine methods)
of the psolve modules with wrappers that record a span: name, start, end
and the index of the enclosing span.  Every module attribute bound to the
same function object is replaced, so `from .x import f` imports are
traced too.  `Tracer.uninstall()` restores the originals.

A span's self time is its duration minus the durations of its direct
children.  The self times of one round of queries, summed over every span
name, add up to the sum of the round's root spans.  Counters are read from
the results at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# (module, attribute or Class.method, span name).  A hook whose module or
# target no longer exists is skipped, so the tracer keeps working while the
# program is refactored; the span's metrics then read 0.
HOOKS = [
    ("cli", "main", "cli"),
    ("queries", "run_query", "queries"),
    ("queries", "joint_moment", "queries"),
    ("queries", "conditional_moment", "queries"),
    ("queries", "node_distribution", "queries"),
    ("queries", "distribution_from_moments", "queries"),
    ("queries", "expected_samples", "queries"),
    ("queries", "expected_positive", "queries"),
    ("queries", "predict", "queries"),
    ("queries", "sensitivity", "queries"),
    ("queries", "expectation_at", "queries"),
    ("queries", "expectation_closed", "queries"),
    ("queries", "forward_filter", "queries.filter"),
    ("encode", "compile_bn", "encode.compile"),
    ("encode", "compile_dynbn", "encode.compile"),
    ("encode", "compile_sampling_monitor", "encode.compile"),
    ("encode", "evidence_indicator", "encode"),
    ("encode", "normalize_evidence", "encode"),
    ("moments", "compute_mbis", "moments"),
    ("moments", "check_mbis", "moments.check"),
    ("moments", "MomentEngine.__init__", "moments"),
    ("moments", "MomentEngine.substitute_body", "moments.substitute"),
    ("moments", "MomentEngine.expectation", "moments.expectation"),
    ("moments", "MomentEngine._reduce", "symbolic.reduce"),
    ("symbolic", "reduce_finite_support", "symbolic.reduce"),
    ("recurrence", "solve_first_order", "recurrence.solve"),
    ("recurrence", "verify_solution", "recurrence.verify"),
    ("exppoly", "expoly_limit", "exppoly.limit"),
    ("bayesnet", "load_bn", "bayesnet.load"),
    ("bayesnet", "load_bn_path", "bayesnet.load"),
    ("parser", "parse_program", "parser.parse"),
    ("parser", "parse_poly", "parser.parse"),
    ("parser", "parse_ratfun", "parser.parse"),
    ("parser", "parse_draw_expr", "parser.parse"),
    ("program", "validate", "program"),
    ("program", "pretty", "program"),
    ("oracle", "enumerate_discrete", "oracle.enumerate"),
    ("oracle", "differential_check", "oracle.check"),
    ("oracle", "gaussian_propagate", "oracle"),
    ("oracle", "mc_estimate", "oracle"),
]

# Called far too often for a span; counted only.
COUNTED = [("symbolic", "Polynomial.degree_in", "symbolic.degree_in_calls")]

MODULES = ("", "bayesnet", "cli", "encode", "exppoly", "moments",
           "oracle", "parser", "program", "queries", "recurrence", "symbolic")


def _terms(value) -> int:
    """Number of monomials in a polynomial or rational function."""
    terms = getattr(value, "terms", None)
    if terms is not None:
        return len(terms)
    num, den = getattr(value, "num", None), getattr(value, "den", None)
    if num is None or den is None:
        return 0
    return _terms(num) + _terms(den)


def _variables(prog) -> int:
    prog = getattr(prog, "program", prog)  # sampling monitors wrap one
    return len(getattr(prog, "variables", ()))


class Tracer:
    """Spans and counters of one round at a time; see `take`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- counters read at span boundaries ----------------------------------

    def _after(self, hook: str, result) -> None:
        c, peaks = self.counts, self.peaks
        if hook.startswith("encode.compile"):
            c["encode.compile_calls"] += 1
            c["encode.program_vars"] += _variables(result)
        elif hook == "moments.compute_mbis":
            c["moments.compute_mbis_calls"] += 1
            c["moments.closure_size"] += len(result)
            for mono in result:
                peaks["moments.max_degree"] = max(peaks["moments.max_degree"], mono.degree())
        elif hook == "moments.MomentEngine.__init__":
            c["moments.engines"] += 1
        elif hook == "moments.MomentEngine.substitute_body":
            n = _terms(result)
            c["moments.body_terms_total"] += n
            peaks["moments.body_terms_peak"] = max(peaks["moments.body_terms_peak"], n)
        elif hook == "recurrence.solve_first_order":
            c["recurrence.solve_calls"] += 1
        elif hook == "symbolic.reduce_finite_support":
            c["symbolic.reduce_calls"] += 1
        elif hook == "queries.forward_filter":
            peak = max((_terms(entry) for step in result.value for entry in step), default=0)
            peaks["queries.filter_terms_peak"] = max(peaks["queries.filter_terms_peak"], peak)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, hook: str):
        spans, stack, clock, after = self.spans, self.stack, time.perf_counter, self._after

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            after(hook, result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module("psolve" + ("." + m if m else ""))
            except ModuleNotFoundError:
                continue
        for mod, attr, name in HOOKS:
            self._patch(mods, mod, attr, lambda fn, a=attr, m=mod, n=name: self._span(n, fn, f"{m}.{a}"))
        for mod, attr, key in COUNTED:
            self._patch(mods, mod, attr, lambda fn, k=key: self._count(k, fn))

    def _patch(self, mods, mod: str, attr: str, make) -> None:
        owner = mods.get(mod)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in mods.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- per-round summary -------------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str = "bench"):
        """A root span around one unit of harness work."""
        rec = [name, time.perf_counter(), 0.0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name and the counters since the last call;
        clears both."""
        self_time: dict[str, float] = {}
        for name, start, end, parent in self.spans:
            dur = end - start
            self_time[name] = self_time.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - dur
        counts = dict(self.counts)
        counts.update(self.peaks)
        self.spans.clear()
        self.counts.clear()
        self.peaks.clear()
        return self_time, counts
