"""The vector-kernel layer.

The exact path's csg–cmp enumeration (:meth:`repro.optimizer.joingraph.
JoinGraph.enumeration_universe`, which the explorer and the implicit
layout share) runs here as one vectorized DPccp.  Three more hot loops
share the same inner machinery — the exact path's batched
implementation (:mod:`repro.memo.columnar`) and layered best-plan DP
(:mod:`repro.optimizer.bestplan`), and the implicit engine's one count
pass (:mod:`repro.planspace.implicit.turbo`): row interning over uint64
word matrices, per-mask edge unions, the one cut-key table (every cut
key and every other order a query interns, in one byte-lex-ranked
matrix), byte-wise lexicographic ranking with prefix intervals, and
segmented range minima.  :mod:`.vector` is the single home for those
primitives: plain numpy functions (numpy is a hard dependency), with no
backend to select and nothing read from the environment.
"""

from __future__ import annotations

__all__ = ["selected_backend"]


def selected_backend() -> str:
    """The one kernel there is — kept for provenance blocks that record it."""
    return "numpy"
