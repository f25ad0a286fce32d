"""In-memory spans recorded by the benchmark around calls into a layer.

A span is ``(name, start, end, parent, request id)``.  Spans are kept in
parallel columns — appending to them allocates no container object, so
recording does not feed the cycle collector whose passes it is timing —
written out once when the staged run ends, and reduced to per-layer
*self* time: a span's duration minus the part of it its children cover.

While a span is open on the recording thread, every pass of the cycle
collector is recorded as a ``runtime.gc`` child span (``gc.callbacks``):
the optimizer pauses the collector for the length of an ``optimize`` call,
so the debt is paid in whichever span allocates next, and without this
that layer would be charged for it.
"""

from __future__ import annotations

import gc
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

GC_SPAN = "runtime.gc"
_clock = time.perf_counter


class SpanRecorder:
    def __init__(self):
        self._thread = threading.get_ident()
        self.clear()

    def clear(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.request_ids = array("l")
        self.request_id = -1
        self._open: list[int] = []
        self._busy = False

    def _enter(self, name: str) -> None:
        # clock first: what the bookkeeping below allocates (and a
        # collector pass it may set off) then lies inside the span
        start = _clock()
        self._busy = True  # a pass set off in here is not recorded
        opened = self._open
        self.parents.append(opened[-1] if opened else -1)
        opened.append(len(self.names))
        self.names.append(name)
        self.request_ids.append(self.request_id)
        self.ends.append(start)
        self.starts.append(start)
        self._busy = False

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _gc_event(self, phase: str, info: dict) -> None:
        if not self._open or self._busy or threading.get_ident() != self._thread:
            return
        if phase == "start":
            self._enter(GC_SPAN)
        elif self.names[self._open[-1]] == GC_SPAN:
            _close(self)

    @contextmanager
    def watching_gc(self):
        """Record collector passes as spans for the length of the block."""
        gc.callbacks.append(self._gc_event)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._gc_event)

    def rows(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.request_ids)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        return self_times(list(self.rows()))

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "request": r}
            for n, s, e, p, r in self.rows()
        ]


class _Span:
    """``with recorder.span(name):`` — a plain class, not a generator
    context manager: leaving one of those raises ``StopIteration``, an
    allocation, before control returns."""

    __slots__ = ("recorder", "name")

    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> None:
        self.recorder._enter(self.name)

    def __exit__(self, exc_type, exc, traceback) -> None:
        _close(self.recorder)


def _close(recorder: SpanRecorder) -> None:
    """End the innermost open span.  The clock is read first, and nothing
    before it allocates a collectable object (a plain function call does
    not; a bound-method call would): the program's calls return without
    allocating, so a collector pass they deferred must not land inside
    the span either."""
    end = _clock()
    opened = recorder._open
    recorder.ends[opened[-1]] = end
    del opened[-1]


def self_times(spans) -> dict[str, float]:
    """``spans``: ``(name, start, end, parent index or -1, request id)``."""
    covered = defaultdict(float)
    for _name, start, end, parent, _rid in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _rid) in enumerate(spans):
        totals[name] += (end - start) - covered[index]
    return dict(totals)
