"""Row schemas: which columns a plan node's output rows carry, in order."""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from repro.algebra.expressions import ColumnId
from repro.algebra.physical import (
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PhysicalFilter,
    PhysicalProject,
    Sort,
    StreamAggregate,
    TableScan,
)
from repro.catalog.catalog import Catalog
from repro.errors import ExecutionError
from repro.optimizer.plan import PlanNode

__all__ = ["RowSchema", "output_schema", "schema_positions"]


class RowSchema(tuple):
    """The ordered column ids of one operator's output rows.

    The ``{column: position}`` map every compile against this schema
    needs is built on first use and kept: once per operator output,
    however many predicates, keys and projections read it.
    """

    @cached_property
    def positions(self) -> dict[ColumnId, int]:
        return {column: i for i, column in enumerate(self)}

    def __add__(self, other: tuple) -> "RowSchema":
        return RowSchema(tuple.__add__(self, other))


def output_schema(plan: PlanNode, catalog: Catalog) -> RowSchema:
    """The ordered column ids of ``plan``'s output rows."""
    op = plan.op

    if isinstance(op, (TableScan, IndexScan)):
        schema = catalog.table(op.table)
        return RowSchema(ColumnId(op.alias, col.name) for col in schema.columns)

    if isinstance(op, (PhysicalFilter, Sort)):
        return output_schema(plan.children[0], catalog)

    if isinstance(op, (NestedLoopJoin, HashJoin, MergeJoin)):
        left = output_schema(plan.children[0], catalog)
        right = output_schema(plan.children[1], catalog)
        return left + right

    if isinstance(op, IndexNestedLoopJoin):
        outer = output_schema(plan.children[0], catalog)
        return outer + inner_columns(op, catalog)

    if isinstance(op, (HashAggregate, StreamAggregate)):
        return RowSchema(op.group_by) + tuple(
            ColumnId("", name) for name, _ in op.aggregates
        )

    if isinstance(op, PhysicalProject):
        return RowSchema(ColumnId("", name) for name, _ in op.outputs)

    raise ExecutionError(f"no output schema rule for operator {op.name}")


def inner_columns(op: IndexNestedLoopJoin, catalog: Catalog) -> RowSchema:
    """The inner table's columns under the join's inner alias."""
    columns = catalog.table(op.inner_table).columns
    return RowSchema(ColumnId(op.inner_alias, col.name) for col in columns)


def schema_positions(schema: Sequence[ColumnId]) -> dict[ColumnId, int]:
    """``{column: position}``: a :class:`RowSchema`'s own map, a fresh
    one for any other sequence of column ids."""
    if isinstance(schema, RowSchema):
        return schema.positions
    return {column: i for i, column in enumerate(schema)}
