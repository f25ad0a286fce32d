"""The implicit plan-space engine: count, unrank, and sample without
materializing the physical memo.

The paper's literal pipeline over a materialized memo (kept under
``tests/`` as this engine's oracle) pays to build every physical
``GroupExpr`` — for a 12-relation clique that is millions of
expressions and minutes of wall clock — before the first count is taken,
even though counting is linear in the memo and sampling needs only
O(depth) operators per plan.  This package treats the plan space as the
implicit combinatorial object it is:

* :mod:`.layout` simulates the memo's group structure (ids, logical
  expression order) from the bound query and the arrays of the join
  graph's csg–cmp kernel — nothing is inserted anywhere;
* :mod:`.edges` / :mod:`.keys` reduce merge-key identity and the paper's
  physical-property qualification to bitmask and byte-string operations;
* :mod:`.counting` derives per-group alternative counts analytically from
  the shared rule module (:mod:`repro.optimizer.rules`); the relation-set
  groups are counted by :mod:`.turbo`'s one vectorized layer pass;
* :mod:`.tables` + :mod:`.unranking` select positions over per-group
  count columns and build a row only where a plan lands, so unranking
  yields byte-identical ``PlanNode`` trees (same ``group.local`` ids) at
  O(plan) cost;
* :mod:`.sampling` binds the shared rank-sampler contract to it.

:class:`ImplicitPlanSpace` is the facade, and the one engine every
production route numbers plans with: ``Session.plan_space`` /
``count_plans`` / ``iterate_plans``, ``OPTION (USEPLAN n)``, the
validation harness, the golden corpus, the cost-distribution experiments,
the ``count`` / ``sample`` / ``unrank`` CLI commands and the diagnostics
that print a space's internals (``participation``, ``diff``, ``unrank
--trace``).  See
``README.md`` in this directory for the derivation.
"""

from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.edges import EdgeCatalog
from repro.planspace.implicit.keys import KeyTable
from repro.planspace.implicit.layout import ImplicitGroup, ImplicitLayout
from repro.planspace.implicit.sampling import ImplicitPlanSampler
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.planspace.implicit.tables import GroupTable, TableSet
from repro.planspace.implicit.unranking import ImplicitUnranker

__all__ = [
    "CountState",
    "EdgeCatalog",
    "GroupTable",
    "ImplicitGroup",
    "ImplicitLayout",
    "ImplicitPlanSampler",
    "ImplicitPlanSpace",
    "ImplicitUnranker",
    "KeyTable",
    "TableSet",
]
