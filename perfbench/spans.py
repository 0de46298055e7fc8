"""Layer spans recorded from outside the program.

The traced run wraps public functions of each layer (module functions and
class methods, looked up by attribute at call time by their callers) and
records a span per call.  Nothing under ``src`` changes; the untraced run
never calls :meth:`Tracer.install`, so it runs the program's own
functions.

Spans are kept in memory for the current point only.  When the point
ends, its time is attributed exclusively: at every instant the innermost
open span gets the time, where a span on a service thread counts as
deeper than any span on the benchmark's own thread (the client thread is
blocked while the service works).  Time no span covers is
``bench.unattributed``.  Per-layer busy time is therefore self time, and
busy times plus unattributed time add up to point time.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Relative tolerance of the nesting check: a parent span must equal its
#: self time plus its same-thread children's durations to within this
#: share of its duration (plus one microsecond of clock granularity).
NEST_TOLERANCE = 0.01

_NAME, _T0, _T1, _RANK, _CHILDREN = range(5)


def _targets():
    """(owner, attribute, span name or None, on-exit hook name) to wrap."""
    import repro.lang
    from repro.core import multicore
    from repro.core.processor import Processor
    from repro.core.stages import specialize
    from repro.runtime.engine import JobEngine
    from repro.runtime.service import JobService, ServiceClient
    from repro.runtime.store import ResultStore
    from repro.trace import format as trace_format
    from repro.trace import predecode
    from repro.vm.machine import Machine
    from repro.workloads import builder

    replay = importlib.import_module("repro.trace.replay")

    return [
        (builder, "build_trace_uncached", "workloads.generate", "generate"),
        (repro.lang, "compile_source", "lang.compile", None),
        (Machine, "run", "vm.run", "vm"),
        (trace_format, "write_trace", "trace.capture", "file_bytes"),
        (predecode, "predecode_trace", "trace.capture", None),
        (predecode, "write_predecoded", "trace.capture", "file_bytes"),
        (replay, "replay_fast", "trace.load", None),
        (replay, "replay_insts", "trace.load", None),
        (predecode, "materialized_cached", None, "memo_probe"),
        (Processor, "run", "core.run", "core_run"),
        (specialize, "kernel_for", "core.kernel_for", None),
        (multicore, "run_mix", "core.mix", "core_mix"),
        (ServiceClient, "submit", "runtime.client.submit", None),
        (ServiceClient, "stream", "runtime.client.wait", "stream"),
        (ServiceClient, "result", "runtime.client.result", None),
        (JobService, "submit_jobs", None, "enqueued"),
        (JobEngine, "run", "runtime.engine.run", "engine_run"),
        (ResultStore, "lookup", "runtime.store.lookup", "store_lookup"),
        (ResultStore, "store", "runtime.store.write", None),
        (ResultStore, "flush", "runtime.store.write", None),
    ]


def current_targets() -> List[Any]:
    """The objects the wrap targets currently resolve to."""
    return [owner.__dict__[attr] for owner, attr, _, _ in _targets()]


class Tracer:
    """Span recorder and exclusive-time attribution for one traced phase."""

    def __init__(self):
        self._main = threading.get_ident()
        self._stacks: Dict[int, List[list]] = defaultdict(list)
        self._point: Optional[List[list]] = None
        self._saved: List[Tuple[Any, str, Any]] = []
        self._enqueued: Optional[float] = None
        #: Exclusive milliseconds by span name, and unattributed time.
        self.busy_ms: Dict[str, float] = defaultdict(float)
        #: Calls by span name, and sums gathered by the on-exit hooks.
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.point_ms = 0.0
        self.points = 0
        #: Worst relative nesting error seen (see :data:`NEST_TOLERANCE`).
        self.worst_nesting = 0.0
        self.accounting_error_ms = 0.0

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, name: Optional[str],
              hook: Optional[str]) -> Callable:
        if hook == "stream":
            # A generator: the span covers the iteration, to exhaustion.
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                span = self._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._close(span)
            return stream

        on_exit = getattr(self, "_on_" + hook, None) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._point is None:
                return fn(*args, **kwargs)
            span = self._open(name) if name else None
            entry = self._on_entry(hook, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_exit is not None and self._point is not None:
                on_exit(args, result, entry)
            return result
        return wrapper

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> Optional[list]:
        point = self._point
        if point is None:
            return None
        ident = threading.get_ident()
        stack = self._stacks[ident]
        rank = len(stack) + (0 if ident == self._main else 1000)
        span = [name, perf_counter(), None, rank, []]
        if stack:
            stack[-1][_CHILDREN].append(span)
        self.calls[name] += 1
        stack.append(span)
        point.append(span)
        return span

    def _close(self, span: Optional[list]) -> None:
        if span is None:
            return
        span[_T1] = perf_counter()
        stack = self._stacks[threading.get_ident()]
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def begin_point(self) -> None:
        self._point = []

    def end_point(self, t0: float, t1: float) -> None:
        spans, self._point = self._point, None
        self._stacks.clear()
        self._enqueued = None
        self.points += 1
        self.point_ms += (t1 - t0) * 1e3
        for span in spans:
            if span[_T1] is None:  # left open by an exception elsewhere
                span[_T1] = t1
        self._check_nesting(spans)
        exclusive, unattributed = attribute(spans, t0, t1)
        for name, seconds in exclusive.items():
            self.busy_ms[name] += seconds * 1e3
        self.busy_ms["bench.unattributed"] += unattributed * 1e3
        accounted = sum(exclusive.values()) + unattributed
        self.accounting_error_ms = max(self.accounting_error_ms,
                                       abs(accounted - (t1 - t0)) * 1e3)

    def _check_nesting(self, spans: List[list]) -> None:
        for span in spans:
            children = span[_CHILDREN]
            if not children:
                continue
            duration = span[_T1] - span[_T0]
            covered = _union(
                [(max(c[_T0], span[_T0]), min(c[_T1], span[_T1]))
                 for c in children])
            self_time = duration - covered
            total = self_time + sum(c[_T1] - c[_T0] for c in children)
            error = max(0.0, abs(total - duration) - 1e-6)
            if duration > 0:
                self.worst_nesting = max(self.worst_nesting,
                                         error / duration)

    # -- hooks (run only while a point is open) -----------------------------

    def _on_entry(self, hook: Optional[str], args) -> Any:
        if hook == "vm":
            return args[0].instructions_executed
        if hook == "enqueued":
            # Taken on entry: the scheduler thread may start the engine
            # before ``submit_jobs`` has returned.
            self._enqueued = perf_counter()
        elif hook == "engine_run" and self._enqueued is not None:
            self.counts["runtime.queue_wait_s"] += (
                perf_counter() - self._enqueued)
            self.counts["runtime.queue_waits"] += 1
            self._enqueued = None
        return None

    def _on_generate(self, args, trace, entry) -> None:
        self.counts["workloads.generate.insts"] += len(trace)

    def _on_vm(self, args, result, entry) -> None:
        self.counts["vm.run.insts"] += args[0].instructions_executed - entry

    def _on_file_bytes(self, args, path, entry) -> None:
        self.counts["trace.capture.bytes"] += os.path.getsize(path)

    def _on_memo_probe(self, args, cached, entry) -> None:
        self.counts["trace.load.memo_probes"] += 1
        self.counts["trace.load.memo_hits"] += cached is not None

    def _on_core_run(self, args, result, entry) -> None:
        self.counts["core.run.insts"] += result.instructions
        self.counts["core.sim_cycles"] += result.cycles

    def _on_core_mix(self, args, results, entry) -> None:
        self.counts["core.mix.insts"] += sum(r.instructions for r in results)
        self.counts["core.sim_cycles"] += max(r.cycles for r in results)

    def _on_engine_run(self, args, report, entry) -> None:
        self.counts["runtime.engine.retries"] += sum(
            max(0, outcome.attempts - 1)
            for outcome in report.outcomes.values())

    def _on_store_lookup(self, args, result, entry) -> None:
        self.counts["runtime.store.lookups"] += 1
        self.counts["runtime.store.hits"] += result is not None



def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def attribute(spans: List[list], t0: float, t1: float
              ) -> Tuple[Dict[str, float], float]:
    """Exclusive seconds per span name, and seconds no span covers.

    Spans are clipped to the point ``[t0, t1]``; each elementary interval
    between span boundaries goes to the active span of highest rank.
    """
    clipped = [(max(s[_T0], t0), min(s[_T1], t1), s[_RANK], s[_NAME])
               for s in spans]
    clipped = [c for c in clipped if c[1] > c[0]]
    edges = sorted({t0, t1, *(c[0] for c in clipped),
                    *(c[1] for c in clipped)})
    exclusive: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for a, b in zip(edges, edges[1:]):
        best = None
        for start, end, rank, name in clipped:
            if start <= a and end >= b and (best is None or rank > best[0]):
                best = (rank, name)
        if best is None:
            unattributed += b - a
        else:
            exclusive[best[1]] += b - a
    return exclusive, unattributed
