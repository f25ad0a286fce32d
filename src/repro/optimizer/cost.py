"""The cost model.

Abstract, unit-less work estimates in the style of textbook cost models:
scans pay per row scanned, hash operators pay to build and probe, sorts
pay ``n log n``, nested loops pay per pair.  Absolute values are not
comparable to the paper's (SQL Server's model is proprietary) — but the
paper's experiments only ever use costs *scaled to the optimum*, which is
exactly what our experiment harness reports too.

The one structural subtlety: a plan's cost is the sum of per-operator
costs, each computed from the *group* cardinalities of its inputs and
output.  Every plan for the same query therefore prices the same logical
sub-result identically, and plan costs differ only through operator and
shape choices — matching how the memo's costing works in the paper
("when costing a new operator we compute the costs using the children's
best implementations").

This module is the one home of the formulas; no other module reads a
:class:`CostParameters` field.  The four that read cardinalities alone
are published as :data:`CARDINALITY_FORMULAS` for the exact DP and the
sampled optimizer, which price rows without building their operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from repro.algebra.expressions import (
    ColumnId,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Scalar,
    split_conjuncts,
)
from repro.algebra.physical import (
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PhysicalFilter,
    PhysicalOperator,
    PhysicalProject,
    Sort,
    StreamAggregate,
    TableScan,
)
from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError
from repro.optimizer.plan import PlanNode

__all__ = ["CARDINALITY_FORMULAS", "CostParameters", "CostModel"]


@dataclass(frozen=True)
class CostParameters:
    """Tunable constants of the cost model (per-row work factors)."""

    seq_row: float = 1.0
    index_row: float = 1.15
    index_probe_row: float = 2.0
    index_lookup: float = 12.0
    index_join_seek: float = 2.5
    filter_row: float = 0.05
    nlj_outer_row: float = 1.0
    nlj_pair: float = 0.25
    hash_build_row: float = 1.8
    hash_probe_row: float = 1.0
    join_output_row: float = 0.1
    merge_row: float = 1.0
    sort_row_log: float = 0.3
    hash_agg_row: float = 1.5
    stream_agg_row: float = 1.0
    group_output_row: float = 1.0
    project_row: float = 0.03


def _constrains_leading_key(predicate: Scalar | None, key: ColumnId) -> bool:
    """True if ``predicate`` has a sargable conjunct on the leading index
    key column (equality, range, or IN against a literal)."""
    for conjunct in split_conjuncts(predicate):
        if isinstance(conjunct, Comparison):
            sides = (conjunct.left, conjunct.right)
            for this, other in (sides, sides[::-1]):
                if (
                    isinstance(this, ColumnRef)
                    and this.column_id == key
                    and isinstance(other, Literal)
                ):
                    return True
        elif isinstance(conjunct, InList):
            if (
                isinstance(conjunct.arg, ColumnRef)
                and conjunct.arg.column_id == key
                and not conjunct.negated
            ):
                return True
    return False


# -- the cardinality-only formulas ---------------------------------------
def _nlj_cost(p: CostParameters, output_rows, outer, inner):
    return outer * p.nlj_outer_row + outer * inner * p.nlj_pair


def _hash_cost(p: CostParameters, output_rows, probe, build):
    return (
        build * p.hash_build_row
        + probe * p.hash_probe_row
        + output_rows * p.join_output_row
    )


def _merge_cost(p: CostParameters, output_rows, left, right):
    return (left + right) * p.merge_row + output_rows * p.join_output_row


def _sort_cost(p: CostParameters, output_rows: float, rows: float) -> float:
    return rows * math.log2(rows + 2.0) * p.sort_row_log


#: row kind -> ``formula(params, output_rows, *child_rows)`` for the
#: operators whose local cost reads row counts alone (children in
#: operator order; ``CostModel`` prices these operators through it too).
#: Each join formula is a fixed sequence of ``+`` and ``*``, so float64
#: arrays of cardinalities price a whole layer with the same IEEE
#: operations, in the same order, as the scalar call — keep it so.
#: ``sort`` calls ``math.log2`` and takes scalars only.
CARDINALITY_FORMULAS = {
    "nlj": _nlj_cost,
    "hash": _hash_cost,
    "merge": _merge_cost,
    "sort": _sort_cost,
}


class CostModel:
    """Prices physical operators and whole plans."""

    def __init__(self, catalog: Catalog, params: CostParameters | None = None):
        self.catalog = catalog
        self.params = params if params is not None else CostParameters()

    # ------------------------------------------------------------------
    def table_rows(self, table: str) -> float:
        return float(max(1, self.catalog.table_stats(table).row_count))

    def operator_cost(
        self,
        op: PhysicalOperator,
        output_rows: float,
        child_rows: tuple[float, ...],
    ) -> float:
        """Local cost of one operator (children's costs not included).

        Dispatches on the operator's concrete type via a lookup table —
        this is called once per physical expression in the memo, where an
        isinstance chain costs several failed checks per join.
        """
        formula = _FORMULAS.get(type(op))
        if formula is None:
            raise OptimizerError(f"no cost formula for operator {op.name}")
        return formula(self, op, output_rows, child_rows)

    # -- per-operator formulas (bound through the dispatch table) -------
    def _cost_table_scan(self, op, output_rows, child_rows) -> float:
        return self.table_rows(op.table) * self.params.seq_row

    def _cost_index_scan(self, op, output_rows, child_rows) -> float:
        p = self.params
        base = self.table_rows(op.table)
        if _constrains_leading_key(op.predicate, op.key_order[0]):
            # Seek to the qualifying key range, then read matches.
            return p.index_lookup * math.log2(base + 1.0) + output_rows * p.index_probe_row
        return base * p.index_row

    def _cost_filter(self, op, output_rows, child_rows) -> float:
        return child_rows[0] * self.params.filter_row

    def _cost_index_nl_join(self, op, output_rows, child_rows) -> float:
        p = self.params
        outer = child_rows[0]
        inner_base = self.table_rows(op.inner_table)
        seek = p.index_join_seek * math.log2(inner_base + 1.0)
        return outer * seek + output_rows * p.index_probe_row

    def _cost_hash_aggregate(self, op, output_rows, child_rows) -> float:
        p = self.params
        return child_rows[0] * p.hash_agg_row + output_rows * p.group_output_row

    def _cost_stream_aggregate(self, op, output_rows, child_rows) -> float:
        p = self.params
        return child_rows[0] * p.stream_agg_row + output_rows * p.group_output_row

    def _cost_project(self, op, output_rows, child_rows) -> float:
        return child_rows[0] * self.params.project_row * max(1, len(op.outputs))

    # ------------------------------------------------------------------
    def plan_cost(self, plan: PlanNode, rows=attrgetter("cardinality")) -> float:
        """Total cost of an assembled plan (sum of operator costs).

        ``rows`` maps a plan node to the output rows it is priced at,
        as an operator and as a child; by default the cardinality the
        node carries.  Iterative (explicit stack): a plan's cost is a
        sum of per-node local costs, so traversal order is irrelevant
        and deep chain-query plans cannot hit Python's recursion limit.
        """
        total = 0.0
        stack = [plan]
        operator_cost = self.operator_cost
        while stack:
            node = stack.pop()
            children = node.children
            total += operator_cost(
                node.op, rows(node), tuple(rows(child) for child in children)
            )
            stack.extend(children)
        return total

    def plan_costs(self, plans: list[PlanNode]) -> list[float]:
        """Batch-cost many assembled plans.

        The sampled optimizer itself prices drawn plans row by row on its
        one walk per rank (``FragmentPool.add_ranks``) and assembles none
        of them; this is for callers that hold ``PlanNode`` trees.
        """
        plan_cost = self.plan_cost
        return [plan_cost(plan) for plan in plans]


def _by_cardinality(kind: str):
    """``CARDINALITY_FORMULAS[kind]`` in the operator-formula signature."""
    formula = CARDINALITY_FORMULAS[kind]

    def cost(model: CostModel, op, output_rows, child_rows) -> float:
        return formula(model.params, output_rows, *child_rows)

    return cost


#: concrete operator type -> unbound cost formula (joins first in spirit:
#: they dominate every explored memo)
_FORMULAS = {
    NestedLoopJoin: _by_cardinality("nlj"),
    HashJoin: _by_cardinality("hash"),
    MergeJoin: _by_cardinality("merge"),
    IndexNestedLoopJoin: CostModel._cost_index_nl_join,
    TableScan: CostModel._cost_table_scan,
    IndexScan: CostModel._cost_index_scan,
    PhysicalFilter: CostModel._cost_filter,
    Sort: _by_cardinality("sort"),
    HashAggregate: CostModel._cost_hash_aggregate,
    StreamAggregate: CostModel._cost_stream_aggregate,
    PhysicalProject: CostModel._cost_project,
}
