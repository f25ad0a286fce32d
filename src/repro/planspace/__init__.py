"""The paper's contribution (system S8): counting, enumerating, ranking,
unranking, and uniform sampling of execution plans.

:mod:`repro.planspace.implicit` is the one engine: it numbers a query's
plans from the bound query and the join graph, never building the
physical memo (Section 3's counting and unranking over virtual
operators).  :class:`ImplicitPlanSpace` is its facade.  The modules
beside it read the same tables:

* :mod:`repro.planspace.sampling` — :class:`RankSampler`, the one
  rank-drawing contract (the RNG contract of :mod:`repro.util.rng`);
* :mod:`repro.planspace.participation` — exact per-operator plan counts
  (``repro participation``);
* :mod:`repro.planspace.diff` — operator-level diff of two
  configurations' spaces (``repro diff``).

The paper-literal algorithm over a materialized memo lives under
``tests/`` as the oracle this engine is tested against; nothing in
``src/`` imports it.
"""

from repro.planspace.sampling import RankSampler
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.participation import (
    participation_counts,
    participation_report,
)
from repro.planspace.diff import SpaceDiff, diff_spaces

__all__ = [
    "ImplicitPlanSpace",
    "RankSampler",
    "SpaceDiff",
    "diff_spaces",
    "participation_counts",
    "participation_report",
]
