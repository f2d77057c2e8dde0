"""Span tracing of patmat's public functions from outside the package.

Wrappers replace each traced function at every place the program calls it
through: the defining module, every patmat module that bound it with
`from .x import y`, and the class for methods such as
PatternMatrix.__matmul__.  Each call records a span (name, start, end,
parent) in memory; counters attached to a span read its arguments and
result.  Nothing in patmat changes, and uninstall() restores every binding.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _nonzero_tol(args, kwargs) -> bool:
    tol = kwargs.get("tol", args[1] if len(args) > 1 else 0)
    return tol != 0


# Counters also run when the call raised (result None), so that a call cut
# by the time limit still counts as a call.


def _count_decision(counts, args, kwargs, result, outermost):
    if outermost and result is not None:
        counts["rank.eliminate_calls"] += 1
        counts["rank.pivots"] += len(result.pivots)
        if result.stall is not None:
            counts["rank.stall_rows"] += len(result.stall.rows)


def _count_matmul(counts, args, kwargs, result, outermost):
    counts["pattern.matmul_calls"] += 1
    if result is not None:
        counts["pattern.matmul_entries"] += result.rows * result.cols


def _count_refute(counts, args, kwargs, result, outermost):
    counts["rank.refute_calls"] += 1
    counts["rank.witnesses"] += result is not None


def _count_exact_rank(counts, args, kwargs, result, outermost):
    if not _nonzero_tol(args, kwargs):
        counts["rank.exact_rank_calls"] += 1


def _count_sample(counts, args, kwargs, result, outermost):
    counts["realization.sample_calls"] += 1


def _count_report(counts, args, kwargs, result, outermost):
    if outermost and hasattr(result, "conditions"):
        counts["systems.conditions"] += len(result.conditions)


def _count_oracle(counts, args, kwargs, result, outermost):
    if outermost and hasattr(result, "trials"):
        counts["oracles.trials"] += result.trials


def _rank_span(args, kwargs) -> str:
    return "rank.float_rank" if _nonzero_tol(args, kwargs) else "rank.exact_rank"


# (module, attribute, span name or function of the call, counter)
# A span name doubles as the layer its self time is charged to.
FUNCTIONS = [
    ("patmat.pattern", "parse_pattern_text", "pattern.parse", None),
    ("patmat.pattern", "hstack", "pattern.stack", None),
    ("patmat.pattern", "vstack", "pattern.stack", None),
    ("patmat.rank", "full_row_rank", "rank.eliminate", _count_decision),
    ("patmat.rank", "full_column_rank", "rank.eliminate", _count_decision),
    ("patmat.rank", "verify_certificate", "rank.verify", None),
    ("patmat.rank", "strongly_nonsingular_square", "rank.matching", None),
    ("patmat.rank", "refute_full_rank", "rank.refute", _count_refute),
    ("patmat.rank", "numeric_rank", _rank_span, _count_exact_rank),
    ("patmat.realization", "sample_member", "realization.sample", _count_sample),
    ("patmat.realization", "contains", "realization.contains", None),
    ("patmat.realization", "decompose_sum", "realization.decompose", None),
    ("patmat.systems", "check_ssc", "systems.check", _count_report),
    ("patmat.systems", "check_descriptor", "systems.check", _count_report),
    ("patmat.systems", "check_iso", "systems.check", _count_report),
    ("patmat.systems", "check_output_controllability", "systems.check", _count_report),
    ("patmat.systems", "build_output_ctrl_pattern", "systems.check", None),
    ("patmat.network", "parse_graph", "network.parse", None),
    ("patmat.network", "qualitative_pattern", "network.build", None),
    ("patmat.network", "selector_pattern", "network.build", None),
    ("patmat.network", "check_target_controllability", "network.check", None),
    ("patmat.oracles", "rank_soundness", "oracles.self", _count_oracle),
    ("patmat.oracles", "pencil_agreement", "oracles.self", _count_oracle),
    ("patmat.oracles", "minkowski_roundtrip", "oracles.self", _count_oracle),
    ("patmat.oracles", "iso_stacked_rank_check", "oracles.self", _count_oracle),
    ("patmat.oracles", "pencil_refutation_witness", "oracles.self", None),
    ("patmat.cli", "run", "cli.run", None),
]

# (module, class, method, span name, counter)
METHODS = [
    ("patmat.pattern", "PatternMatrix", "__matmul__", "pattern.matmul", _count_matmul),
    ("patmat.pattern", "PatternMatrix", "__add__", "pattern.add", None),
    ("patmat.pattern", "PatternMatrix", "transpose", "pattern.transpose", None),
]

# Spans that nest inside spans of the same name (full_column_rank calls
# full_row_rank, oracles call oracles); their counters fire on the outermost.
_NESTING = {"rank.eliminate", "systems.check", "oracles.self"}


class Tracer:
    """Collects spans and counts; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list = []

    def span(self, name: str):
        """Context manager for a benchmark-side span, such as one operation."""
        return _Span(self, name)

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        self._open[name] += 1
        return index

    def _exit(self, index: int, name: str, start: int) -> None:
        self.spans[index] = (name, start, time.perf_counter_ns(), self.spans[index][3])
        self._stack.pop()
        self._open[name] -= 1

    def wrap(self, fn: Callable, name, counter: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            outermost = span_name not in _NESTING or tracer._open[span_name] == 0
            index = tracer._enter(span_name)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(index, span_name, start)
                if counter is not None:
                    counter(tracer.counts, args, kwargs, result, outermost)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        for module_name in {entry[0] for entry in FUNCTIONS + METHODS}:
            importlib.import_module(module_name)
        modules = [m for k, m in sys.modules.items() if k == "patmat" or k.startswith("patmat.")]
        for module_name, attr, name, counter in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        for module_name, cls_name, method, name, counter in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(original, name, counter))
            self._restore.append((cls, method, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> Counter:
        """Seconds of self time per span name: each span's duration less the
        durations of its direct children."""
        child = Counter()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start - child[index]) / 1e9
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._enter(self.name)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.index, self.name, self.start)
        return False
