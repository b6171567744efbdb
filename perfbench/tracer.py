"""Per-layer counters and timers, installed from outside the program.

The tracer replaces the public entry points of each repident module with
wrappers that count calls and record spans. A span's self time is its
duration minus the time covered by the spans it encloses, so
``<layer>.self_s`` is the time spent in that layer's own code. A busy time
(``..._s``) is the duration of the outermost span of one entry point, so
recursion and nested calls are not counted twice.

Nothing in ``src/`` is edited: the wrappers are set as attributes on the
program's classes and modules by ``install()`` and the originals are put back
by ``uninstall()``. Tracing adds a Python call and two clock reads to every
wrapped call, so its figures are for attribution, not for end-to-end time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

# Node kinds of freeexpr.Expr, each reported as freeexpr.eval.<kind>.calls.
EXPR_KINDS = ("const", "var", "inv", "star", "sum", "prod",
              "stream_subsets", "stream_partitions", "stream_perm_body")

VERIFIER_MODES = ("guarded", "sampled", "exhaustive", "structured", "sl2")

# The predicates compare_all calls, in the order it calls them.
EQ_PREDICATES = ("ranges_equal", "range_signatures_equal", "gassmann_equivalent",
                 "strong_gassmann", "table_equivalent", "strongly_table_equivalent",
                 "galois_conjugate_reps", "similar_reps", "uniformly_gassmann")

# (class attribute, counter name or None) per layer. Entries without a
# counter name are wrapped only so that their time lands in the right layer.
CYC_METHODS = (("__init__", "cyc_new"), ("__add__", "cyc_add"), ("__mul__", "cyc_mul"),
               ("inverse", "cyc_inverse"), ("__radd__", None), ("__sub__", None),
               ("__rsub__", None), ("__neg__", None), ("__rmul__", None),
               ("__truediv__", None), ("lift", None), ("key", None), ("galois", None),
               ("conjugate", None), ("__eq__", None))
MAT_METHODS = (("__add__", "add"), ("__mul__", "mul"), ("scale", "scale"),
               ("is_zero", "is_zero"), ("inverse", "inverse"), ("__sub__", None),
               ("__neg__", None), ("__eq__", None), ("is_scalar", None),
               ("is_identity", None), ("pow_int", None), ("trace", None), ("det", None),
               ("galois", None), ("conj_transpose", None), ("monomial_form", None))
EVALUATOR_METHODS = ("_is_zero", "_to_mat", "evaluate", "evaluate_value", "scalar_of")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"exactnum.{c}.calls" for c in ("cyc_add", "cyc_mul", "cyc_new", "cyc_inverse")]
    names.append("exactnum.self_s")
    names += [f"matrices.{c}.calls" for c in ("add", "mul", "scale", "is_zero", "inverse")]
    names.append("matrices.self_s")
    names += [f"freeexpr.eval.{k}.calls" for k in EXPR_KINDS]
    names.append("freeexpr.self_s")
    for mode in VERIFIER_MODES:
        names += [f"verifier.{mode}.verdicts", f"verifier.{mode}.busy_s",
                  f"verifier.{mode}.assignments"]
    names.append("verifier.self_s")
    names += ["replab.rep_new.calls", "replab.rep_new_s", "replab.character_s",
              "replab.adams_partition_s", "replab.restrict_rep.calls",
              "replab.spectrum_key.calls"]
    names += ["grouplab.automorphisms.calls", "grouplab.automorphisms_s",
              "grouplab.all_subgroups_s", "grouplab.conjugacy_classes_s"]
    names += ["catalog.rep_build_s", "idfactory.build_s"]
    for p in EQ_PREDICATES:
        names += [f"equivalence.{p}.calls", f"equivalence.{p}_s"]
    names.append("trace.overhead")
    return names


def metric_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def _verdict_assignments(verdict) -> int:
    """The assignment count a verdict's own detail reports."""
    detail = verdict.detail
    for key in ("checked", "assignments", "n"):
        if key in detail:
            return int(detail[key])
    return 0


class Tracer:
    """Counts and span times for one traced pass; see the module docstring."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._eq_stack: list[str] = []
        self._verifier_depth = 0
        self._decides = 0  # assignments decided inside the outermost verdict
        self._patches: list[tuple[object, str, object]] = []
        self.calls: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)

    def reset(self):
        """Zero every figure in place; the installed wrappers keep theirs."""
        self.calls.clear()
        self.busy.clear()
        self.self_s.clear()

    # -- span bookkeeping -----------------------------------------------

    def _span(self, layer: str, busy_key: str | None, fn, on_enter=None):
        """Wrap fn in a span of the given layer.

        busy_key accumulates the duration of the outermost span of that key;
        on_enter(args) runs before the call (used for counting).
        """
        stack, depth, self_s, busy = self._stack, self._depth, self.self_s, self.busy
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            if busy_key is not None:
                depth[busy_key] += 1
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if busy_key is not None:
                    depth[busy_key] -= 1
                    if depth[busy_key] == 0:
                        busy[busy_key] += dur

        return wrapper

    def _counter(self, key: str):
        calls = self.calls

        def on_enter(_args):
            calls[key] += 1

        return on_enter

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, layer: str, count_key: str | None,
                      busy_key: str | None = None):
        on_enter = self._counter(count_key) if count_key else None
        self._set(cls, attr, self._span(layer, busy_key, cls.__dict__[attr], on_enter))

    def _patch_cached(self, cls, attr: str, layer: str, busy_key: str):
        prop = cls.__dict__[attr]
        new = cached_property(self._span(layer, busy_key, prop.func))
        new.__set_name__(cls, attr)
        self._set(cls, attr, new)

    def _patch_function(self, module, attr: str, wrapper):
        """Replace a function in every repident module that imported it."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repident" and mod is not None \
                    and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapper)

    def install(self):
        from repident import catalog, equivalence, exactnum, freeexpr, grouplab
        from repident import idfactory, matrices, replab, verifier

        for attr, key in CYC_METHODS:
            self._patch_method(exactnum.Cyc, attr, "exactnum",
                               f"exactnum.{key}.calls" if key else None)
        for attr, key in MAT_METHODS:
            self._patch_method(matrices.Mat, attr, "matrices",
                               f"matrices.{key}.calls" if key else None)

        # expression evaluation: one counter per node kind at the recursive
        # _eval, which every Evaluator entry point goes through
        calls = self.calls

        def count_kind(args):
            calls[f"freeexpr.eval.{args[1].kind}.calls"] += 1

        ev_cls = freeexpr.Evaluator
        self._set(ev_cls, "_eval", self._span("freeexpr", None, ev_cls.__dict__["_eval"],
                                              count_kind))
        for attr in EVALUATOR_METHODS:
            self._patch_method(ev_cls, attr, "freeexpr", None)

        self._install_verifier(verifier)

        self._patch_method(replab.Rep, "__init__", "replab", "replab.rep_new.calls",
                           "replab.rep_new_s")
        self._patch_cached(replab.Rep, "character", "replab", "replab.character_s")
        self._patch_cached(replab.Rep, "adams_partition", "replab",
                           "replab.adams_partition_s")
        for attr in ("restrict_rep", "spectrum_key"):
            fn = getattr(replab, attr)
            self._patch_function(replab, attr, self._span(
                "replab", None, fn, self._counter(f"replab.{attr}.calls")))

        group_cls = grouplab.FiniteGroup
        self._patch_method(group_cls, "automorphisms", "grouplab",
                           "grouplab.automorphisms.calls", "grouplab.automorphisms_s")
        self._patch_method(group_cls, "all_subgroups", "grouplab", None,
                           "grouplab.all_subgroups_s")
        self._patch_cached(group_cls, "conjugacy_classes", "grouplab",
                           "grouplab.conjugacy_classes_s")

        self._patch_method(catalog.CatalogEntry, "rep", "catalog", None, "catalog.rep_build_s")
        for attr, fn in list(vars(idfactory).items()):
            if callable(fn) and getattr(fn, "__module__", None) == idfactory.__name__ \
                    and not isinstance(fn, type) and not attr.startswith("_"):
                self._patch_function(idfactory, attr,
                                     self._span("idfactory", "idfactory.build_s", fn))

        self._install_equivalence(equivalence)

    def _install_verifier(self, verifier):
        modes = {"holds_guarded": "guarded", "holds_sampled": "sampled",
                 "holds_exhaustive": "exhaustive", "holds_structured": "structured",
                 "sl2_sample_check": "sl2", "sl2_trace_identity_check": "sl2"}
        tracer = self
        # A structured verdict's detail carries no assignment count, so its
        # assignments are the _Session.decide calls its own enumeration makes
        # (one per assignment) plus the detail count of the sampled verdict
        # that ends it.
        decide = verifier._Session.decide

        def counted_decide(*args, **kwargs):
            if tracer._verifier_depth == 1:
                tracer._decides += 1
            return decide(*args, **kwargs)

        self._set(verifier._Session, "decide", functools.wraps(decide)(counted_decide))
        for attr, mode in modes.items():
            inner = self._span("verifier", None, getattr(verifier, attr))

            def verdict(*args, _inner=inner, _mode=mode, **kwargs):
                # only the outermost call is a verdict: holds_structured
                # finishes with a nested holds_sampled
                outer = tracer._verifier_depth == 0
                tracer._verifier_depth += 1
                decides = tracer._decides
                t0 = time.perf_counter()
                try:
                    result = _inner(*args, **kwargs)
                finally:
                    tracer._verifier_depth -= 1
                if not outer:
                    tracer._decides += _verdict_assignments(result)
                    return result
                tracer.busy[f"verifier.{_mode}.busy_s"] += time.perf_counter() - t0
                tracer.calls[f"verifier.{_mode}.verdicts"] += 1
                tracer.calls[f"verifier.{_mode}.assignments"] += (
                    tracer._decides - decides if _mode == "structured"
                    else _verdict_assignments(result))
                return result

            functools.update_wrapper(verdict, getattr(verifier, attr))
            self._patch_function(verifier, attr, verdict)

    def _install_equivalence(self, equivalence):
        """Count each predicate where compare_all calls it directly; the same
        predicate called from inside another one (gassmann_equivalent from
        uniformly_gassmann) adds to the caller's time, not to its own count."""
        tracer = self
        eq_stack = self._eq_stack
        for attr in EQ_PREDICATES + ("compare_all",):
            inner = self._span("equivalence", None, getattr(equivalence, attr))

            def predicate(*args, _inner=inner, _name=attr, **kwargs):
                direct = bool(eq_stack) and eq_stack[-1] == "compare_all"
                eq_stack.append(_name)
                t0 = time.perf_counter()
                try:
                    return _inner(*args, **kwargs)
                finally:
                    eq_stack.pop()
                    if direct:
                        tracer.busy[f"equivalence.{_name}_s"] += time.perf_counter() - t0
                        tracer.calls[f"equivalence.{_name}.calls"] += 1

            functools.update_wrapper(predicate, getattr(equivalence, attr))
            self._patch_function(equivalence, attr, predicate)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {}
        out.update(self.calls)
        out.update(self.busy)
        for layer, value in self.self_s.items():
            out[f"{layer}.self_s"] = value
        return out
