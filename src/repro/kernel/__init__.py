"""The vector-kernel layer.

Three hot loops in the exact path share the same inner machinery —
batched implementation (:mod:`repro.memo.columnar`), the layered
best-plan DP (:mod:`repro.optimizer.bestplan`), and the implicit
engine's turbo counting pass (:mod:`repro.planspace.implicit.turbo`):
row interning over uint64 word matrices, cut-bitmask decoding, byte-wise
lexicographic ranking with prefix intervals, first-occurrence ordering,
and segmented range minima.  :mod:`.vector` is the single home for those
primitives: plain numpy functions (numpy is a hard dependency), with no
backend to select and nothing read from the environment.
"""

from __future__ import annotations

__all__ = ["selected_backend"]


def selected_backend() -> str:
    """The one kernel there is — kept for provenance blocks that record it."""
    return "numpy"
