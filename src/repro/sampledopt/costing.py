"""Memo-free plan costing over the implicit engine.

Costing rides directly on the implicit tables, one virtual operator row
at a time: :class:`RowCoster` prices a row's *local* cost from its group
cardinality and its child groups' cardinalities
(``TableSet.cardinality``: annotate's one per-group estimate, computed
on first touch), cached per ``(gid, local_id)``.  A sampled plan's cost
is the sum of its rows' local costs, added in ``CostModel.plan_cost``'s
order so it is the same float; the sampled optimizer's fragment pool
(:mod:`.search`) sums them on its one walk per drawn rank, and no
``PlanNode`` is assembled for a drawn plan.

A join row is priced without its operator: its kind is the physical
join ``join_physical_kinds`` names (``nlj`` / ``hash`` / ``merge``),
the key of that operator's formula in the cost model's
``CARDINALITY_FORMULAS``, which reads only cardinalities.  So is a sort
row (``sort``): its formula reads the child's cardinality alone.
Join and sort operators are therefore built only for the plan the
optimizer returns.  Scan, unary and index-lookup rows price through
their operator (a leaf's scans are built with its table).  Because
cardinality is a group property, every alternative subtree of the same
``(group, requirement)`` context feeds its parent the same row count,
which is what makes fragment-local costs composable.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.optimizer.cost import CARDINALITY_FORMULAS, CostModel, CostParameters
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.planspace.implicit.tables import Row, TableSet

__all__ = ["RowCoster", "SampledPlanCoster"]


class RowCoster:
    """Local costs of virtual operator rows, cached per ``(gid, local)``."""

    def __init__(self, tables: TableSet, cost_model: CostModel):
        self.tables = tables
        self.cost_model = cost_model
        self._local: dict[tuple[int, int], float] = {}

    def local_cost(self, gid: int, row: Row) -> float:
        """The row's own operator cost (children's costs not included)."""
        key = (gid, row.local_id)
        cached = self._local.get(key)
        if cached is not None:
            return cached
        tables = self.tables
        output_rows = tables.cardinality(gid)
        child_rows = tuple(
            tables.cardinality(child_gid) for child_gid, _ in row.slots
        )
        formula = CARDINALITY_FORMULAS.get(row.kind)
        if formula is not None:
            cost = formula(self.cost_model.params, output_rows, *child_rows)
        else:
            cost = self.cost_model.operator_cost(
                tables.operator(gid, row), output_rows, child_rows
            )
        self._local[key] = cost
        return cost


class SampledPlanCoster:
    """Cost sampled plans straight off an implicit space.

    Owns the :class:`CostModel` (built from the space's options so costs
    are comparable with the materialized optimizer's) and the
    :class:`RowCoster` the recombination search shares.
    """

    def __init__(
        self,
        catalog: Catalog,
        space: ImplicitPlanSpace,
        cost_params: CostParameters | None = None,
    ):
        self.space = space
        self.cost_model = CostModel(catalog, cost_params)
        self.rows = RowCoster(space.unranker.tables, self.cost_model)

    def cost(self, plan: PlanNode) -> float:
        return self.cost_model.plan_cost(plan)

    def cost_batch(self, plans: list[PlanNode]) -> list[float]:
        """Price assembled plans (one ``plan_costs`` call)."""
        return self.cost_model.plan_costs(plans)
