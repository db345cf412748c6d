"""In-memory span recorder and attribute wrapping for the traced run.

A span is (name, start_ns, end_ns, parent index).  Spans nest per thread;
a layer's self time is its duration minus the time its direct children
cover.  Spans are kept in memory and summarised when the run ends.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 for a root span


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else -1)
            )
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx].end = time.perf_counter_ns()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def total_ns(self, name: str) -> int:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_ns_each(self, name: str) -> list[int]:
        """Self time of each span called ``name``: its duration minus the
        time its direct children cover."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start
        return [
            s.end - s.start - child_ns[i]
            for i, s in enumerate(self.spans)
            if s.name == name
        ]

    def durations_s(self, name: str) -> list[float]:
        return [(s.end - s.start) / 1e9 for s in self.spans if s.name == name]


@contextmanager
def wrapped(tracer: Tracer, targets: list[tuple]):
    """Replace ``owner.attr`` with a span-recording wrapper for each
    ``(owner, attr, span_name[, observe])``; ``owner`` may be a module,
    class or dict, and ``observe`` (optional) is called with every result.
    The originals are restored on exit."""
    saved = []

    def get(owner, attr):
        return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

    def put(owner, attr, value):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def make(fn, name, observe):
        def w(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return w

    try:
        for owner, attr, name, *observe in targets:
            fn = get(owner, attr)
            saved.append((owner, attr, fn))
            put(owner, attr, make(fn, name, observe[0] if observe else None))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            put(owner, attr, fn)
