"""The paper's contribution (system S8): counting, enumerating, ranking,
unranking, and uniform sampling of execution plans from an optimized MEMO.

Production numbers plans with :mod:`repro.planspace.implicit`, which never
builds the physical memo.  The modules below are the paper's literal
algorithm over a materialized memo, kept once as the reference the
equivalence suites diff against, and for the diagnostics that print its
internals (``repro participation``, ``repro diff``, ``repro unrank
--trace``).  :mod:`repro.planspace.sampling` also holds
:class:`RankSampler`, the one rank-drawing contract both engines share.

Workflow (Section 3 of the paper):

1. :mod:`repro.planspace.links` — the preparatory step: extract all
   physical operators and materialize, per operator and child slot, the
   list of child alternatives whose physical properties qualify.
2. :mod:`repro.planspace.counting` — compute ``N(v)`` for every operator
   bottom-up and the space total ``N``.
3. :mod:`repro.planspace.unranking` — the bijection between ``0..N-1``
   and plans (both directions: unrank and rank).
4. :mod:`repro.planspace.sampling` / :mod:`repro.planspace.enumeration` —
   uniform sampling and exhaustive generation built on unranking.

:class:`PlanSpace` is the reference's facade.
"""

from repro.planspace.links import LinkedOperator, LinkedSpace, materialize_links
from repro.planspace.counting import annotate_counts
from repro.planspace.unranking import UnrankTrace, Unranker
from repro.planspace.sampling import (
    RankSampler,
    UniformPlanSampler,
    naive_walk_sample,
)
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.enumeration import enumerate_plans
from repro.planspace.participation import (
    participation_counts,
    participation_report,
)
from repro.planspace.export import (
    memo_to_dict,
    plan_to_dict,
    space_to_dict,
    to_json,
)
from repro.planspace.diff import SpaceDiff, diff_spaces
from repro.planspace.space import PlanSpace

__all__ = [
    "LinkedOperator",
    "LinkedSpace",
    "materialize_links",
    "annotate_counts",
    "Unranker",
    "UnrankTrace",
    "RankSampler",
    "UniformPlanSampler",
    "naive_walk_sample",
    "ImplicitPlanSpace",
    "enumerate_plans",
    "participation_counts",
    "participation_report",
    "memo_to_dict",
    "plan_to_dict",
    "space_to_dict",
    "to_json",
    "SpaceDiff",
    "diff_spaces",
    "PlanSpace",
]
