"""In-memory span recording around calls into the program's layers.

The traced run replaces a handful of public callables with wrappers that
record one span per call — name, wall start and end, thread CPU spent,
and the index of the enclosing span — into a plain list.  Nothing is
written while the timed phase runs; :meth:`SpanRecorder.write` dumps the
spans once the run ends, and :meth:`SpanRecorder.layer_totals` folds them
into per-layer totals and self times (a span's time minus the time of the
spans it encloses).

CPU time per span comes from ``time.thread_time_ns``: the serving
process runs one thread, so per-layer CPU self times add up to at most
the process CPU measured from outside, and the remainder is the
unattributed event-loop, framing and encoding work.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

#: Span fields, in the order they are stored and written.
FIELDS = ("name", "start_ns", "end_ns", "cpu_ns", "parent")


class SpanRecorder:
    """Collects spans from wrapped callables of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_enter: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A wrapper recording one *name* span per call of *fn*.

        *on_enter*, when given, is called with the wrapped call's
        arguments before *fn* runs (the hook for per-call counts such as
        batch sizes).
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        cpu = time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args, **kwargs)
            record = [name, clock(), 0, cpu(), stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[3] = cpu() - record[3]
                record[2] = clock()

        return wrapper

    def patch(self, owner: object, attribute: str, name: str, on_enter=None) -> None:
        """Replace ``owner.attribute`` by its :meth:`wrap` wrapper."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), on_enter))

    def reset(self) -> None:
        """Drop every recorded span (call between requests, never inside one)."""
        if self._stack:
            raise RuntimeError("reset() while a span is open")
        self.spans.clear()

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``calls``, ``wall_ns``, ``cpu_ns``, ``self_wall_ns``, ``self_cpu_ns``."""
        child_wall = [0] * len(self.spans)
        child_cpu = [0] * len(self.spans)
        for name, start, end, cpu_ns, parent in self.spans:
            if parent >= 0:
                child_wall[parent] += end - start
                child_cpu[parent] += cpu_ns
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, cpu_ns, _) in enumerate(self.spans):
            entry = totals.setdefault(
                name,
                {"calls": 0, "wall_ns": 0, "cpu_ns": 0, "self_wall_ns": 0, "self_cpu_ns": 0},
            )
            entry["calls"] += 1
            entry["wall_ns"] += end - start
            entry["cpu_ns"] += cpu_ns
            entry["self_wall_ns"] += end - start - child_wall[index]
            entry["self_cpu_ns"] += cpu_ns - child_cpu[index]
        return totals

    def write(self, path: str) -> None:
        """Write every span as one JSON line (fields as in :data:`FIELDS`)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
