"""Per-layer spans recorded from outside the package.

The traced run replaces the functions of each layer at the names their
callers look up (``transport.solve_lp``, ``verify.solve_mmot``, ...) with
wrappers that record a span: its name, parent, start and end.  Spans stay in
memory and are aggregated when the run ends.  A name that no longer exists
in the package is skipped, so its layer records no span and its time shows
up in the parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

# (module, attribute the callers look up, span name, count hook)
WRAP_TABLE = (
    ("baryflow.transport", "batch_barycenters", "infconv.batch_barycenters", "tuples"),
    ("baryflow.flows", "batch_barycenters", "infconv.batch_barycenters", "tuples"),
    ("baryflow.transport", "solve_lp", "linprog.solve_lp", "lp"),
    ("baryflow.transport", "solve_pairwise", "transport.solve_pairwise", None),
    ("baryflow.transport", "solve_mmot", "transport.solve_mmot", "plan"),
    ("baryflow.verify", "solve_mmot", "transport.solve_mmot", "plan"),
    ("baryflow.verify", "wb_value", "transport.wb_value", None),
    ("baryflow.verify", "dual_feasibility_check", "transport.dual_feasibility_check", None),
    ("baryflow.verify", "continuity_residual", "flows.continuity_residual", None),
    ("baryflow.verify", "coupling_flow_action", "flows.coupling_flow_action", None),
    ("baryflow.verify", "run_verification", "verify.run_verification", None),
    ("baryflow.cli", "run_verification", "verify.run_verification", None),
    ("baryflow.cli", "load_measure", "measures.load_measure", None),
    ("baryflow.transport", "canonicalize", "measures.canonicalize", None),
    ("baryflow.verify", "canonicalize", "measures.canonicalize", None),
    ("baryflow.flows", "canonicalize", "measures.canonicalize", None),
)
# Span whose allocation peak is measured when tracemalloc is on.
ALLOC_SPAN = "transport.solve_mmot"

# Layer call counts reported under the layer's own name.
CALL_ALIASES = {"infconv.calls": "infconv.batch_barycenters", "linprog.calls": "linprog.solve_lp"}

# Counts that must repeat exactly between two traced runs of one list.
EXACT_COUNTS = ("infconv.tuples", "linprog.pivots", "linprog.cols", "transport.plan_support")


def _count_tuples(counts, args, out) -> None:
    counts["infconv.tuples"] += len(args[0])


def _count_lp(counts, args, out) -> None:
    counts["linprog.cols"] += int(args[0].A.shape[1])
    counts["linprog.pivots"] += int(out.iterations)


def _count_plan(counts, args, out) -> None:
    counts["transport.plan_support"] += len(out.plan)


_HOOKS = {"tuples": _count_tuples, "lp": _count_lp, "plan": _count_plan}


class Tracer:
    """In-memory span recorder; ``paused`` lets calls through untraced."""

    def __init__(self, measure_alloc: bool = False) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.alloc_peaks: list[int] = []
        self.measure_alloc = measure_alloc
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, fn, name: str, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            alloc = self.measure_alloc and name == ALLOC_SPAN
            if alloc:
                tracemalloc.start()
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if hook is not None:
                try:
                    hook(self.counts, args, out)
                except (AttributeError, TypeError, IndexError):
                    pass  # the layer's interface changed: record no count
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every name of ``WRAP_TABLE`` that exists; return the skipped ones."""
        skipped = []
        for module_name, attr, name, hook in WRAP_TABLE:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                skipped.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, _HOOKS.get(hook)))
        return skipped

    def summary(self, n_ops: int) -> dict[str, float]:
        """Per-op means of each span name's ``s``, ``self_s`` and ``calls``
        and of each count; the allocation peak is a mean per call."""
        durations = [end - start for _, _, start, end in self.spans]
        inner = [0.0] * len(self.spans)
        for (_, parent, _, _), dur in zip(self.spans, durations):
            if parent >= 0:
                inner[parent] += dur
        totals: dict[str, float] = defaultdict(float)
        for (name, _, _, _), dur, covered in zip(self.spans, durations, inner):
            totals[f"{name}.s"] += dur
            totals[f"{name}.self_s"] += dur - covered
            totals[f"{name}.calls"] += 1
        totals.update(self.counts)
        for alias, name in CALL_ALIASES.items():
            totals[alias] = totals[f"{name}.calls"]
        out = {key: value / n_ops for key, value in totals.items()}
        if self.alloc_peaks:
            out[f"{ALLOC_SPAN}.alloc_peak_mb"] = sum(self.alloc_peaks) / len(self.alloc_peaks) / 2**20
        return out

    def exact_counts(self) -> dict[str, int]:
        """Integer totals that must repeat exactly: the counts and the calls."""
        out = {key: int(self.counts[key]) for key in EXACT_COUNTS if key in self.counts}
        for name, _, _, _ in self.spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "alloc_peaks": self.alloc_peaks}

    def merge(self, dumped: dict) -> None:
        """Append the spans and counts another process recorded with ``dump``."""
        offset = len(self.spans)
        for name, parent, start, end in dumped["spans"]:
            self.spans.append([name, parent + offset if parent >= 0 else -1, start, end])
        for key, value in dumped["counts"].items():
            self.counts[key] += value
        self.alloc_peaks.extend(dumped["alloc_peaks"])
