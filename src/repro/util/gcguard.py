"""Ref-counted pausing of the cycle collector.

The optimizers pause generational GC for the duration of a call: they
allocate hundreds of thousands of tuples and expressions that are all
still reachable until the call returns, so collector passes inside it
only add pauses.  (Nothing they return is cyclic either: on every route
owners point down — the exact memo owns its columnar stores, which read
it back weakly — so a dropped result dies by reference count whether the
collector runs or not.)
``gc.disable()``/``gc.enable()`` are *process-wide*, though —
under a thread-pool front end (:mod:`repro.serving.server`), a sibling
optimize finishing first would re-enable GC mid-flight for every other
in-flight call.  :func:`paused_gc` nests instead: the collector is
disabled when the first pauser enters and restored to its *original*
enabled-state only when the last one leaves.
"""

from __future__ import annotations

import gc
import threading

__all__ = ["paused_gc", "pause_depth"]

_lock = threading.Lock()
_depth = 0
_was_enabled = False


class paused_gc:
    """Pause the cycle collector for the ``with`` block, ref-counted.

    Safe under concurrent and nested use: only the outermost pauser
    across *all threads* toggles the collector, and the original
    enabled-state is restored (a caller running with GC already off
    never has it switched on behind its back).

    A plain class, not a ``contextlib`` generator: resuming the collector
    is the last thing ``__exit__`` does and nothing is allocated after
    it, so the pass the pause deferred runs at the caller's next
    allocation — after the optimize call has returned its result — rather
    than inside the guard's own exit (a generator's ``StopIteration``).
    """

    __slots__ = ()

    def __enter__(self) -> None:
        global _depth, _was_enabled
        with _lock:
            _depth += 1
            if _depth == 1:
                _was_enabled = gc.isenabled()
                if _was_enabled:
                    gc.disable()

    def __exit__(self, exc_type, exc, traceback) -> None:
        global _depth
        _lock.acquire()
        try:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
        finally:
            _lock.release()


def pause_depth() -> int:
    """How many pausers are currently active (diagnostics/tests)."""
    with _lock:
        return _depth
