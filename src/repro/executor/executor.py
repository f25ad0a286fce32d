"""Plan execution.

A straightforward materializing executor: each operator consumes its
children's row lists and produces its own.  At the micro data scale used
for validation, materialization is simpler and just as fast as a pull
iterator pipeline, and it keeps the merge-join and aggregate logic easy
to audit — which matters, since the validation harness's whole point is
that independent implementations cross-check each other.

``PlanExecutor`` can optionally *verify* the sort-order contracts of
merge join and stream aggregate at runtime (``check_orders=True``): if
the optimizer ever wires an unsorted child below an order-requiring
operator, execution fails loudly instead of silently producing wrong
results.  This is the kind of defect the paper's methodology is designed
to expose.

``README.md`` beside this file: the operators' contract with the scalar
compiler, and NULLs (a NULL join key matches nothing; none may be sorted).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter

from repro.algebra.expressions import AggFunc, ColumnId, Literal, make_conjunction
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
from repro.errors import ExecutionError, ResourceExhausted
from repro.executor.scalar import compile_filter, compile_join, compile_projection
from repro.obs.analyze import ExecutionStats, OperatorStats
from repro.resilience.faults import fault_point
from repro.executor.schema import RowSchema, inner_columns, output_schema
from repro.optimizer.plan import PlanNode
from repro.storage.database import Database

__all__ = ["QueryResult", "PlanExecutor", "execute_plan"]


@dataclass
class QueryResult:
    """Rows plus column names, as a client would see them.

    ``stats`` is populated only by an instrumented execution
    (``collect_stats=True``): a tree of per-operator
    :class:`~repro.obs.analyze.OperatorStats` — rows in/out, wall time,
    actual cardinality — mirroring the executed plan.
    """

    columns: list[str]
    rows: list[tuple]
    stats: ExecutionStats | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> list[tuple]:
        """Rows in a canonical order (for order-insensitive comparison)."""
        return sorted(self.rows, key=repr)

    def render(self, limit: int = 20) -> str:
        header = " | ".join(self.columns)
        lines = [header, "-" * len(header)]
        for row in self.rows[:limit]:
            lines.append(" | ".join(str(v) for v in row))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows)} rows total)")
        return "\n".join(lines)


def _column_label(column: ColumnId) -> str:
    return column.column if not column.alias else f"{column.alias}.{column.column}"


def _aggregate(func: AggFunc, values: tuple):
    """One aggregate call over one group's argument values, in row order
    (NULLs do not count; SUM and AVG add left to right from ``0.0``)."""
    values = [value for value in values if value is not None]
    if func is AggFunc.COUNT:
        return len(values)
    if not values:
        return None
    if func is AggFunc.MIN:
        return min(values)
    if func is AggFunc.MAX:
        return max(values)
    total = reduce(add, values, 0.0)
    return total if func is AggFunc.SUM else total / len(values)


class PlanExecutor:
    """Executes physical plans against a database."""

    def __init__(
        self,
        database: Database,
        check_orders: bool = False,
        max_rows: int | None = None,
    ):
        self.database = database
        self.catalog = database.catalog
        self.check_orders = check_orders
        #: runaway guard: no operator may produce more than this many
        #: rows (``None`` = unbounded); a cross-product explosion raises
        #: ResourceExhausted instead of eating the heap
        self.max_rows = max_rows
        #: per-operator stats collection: ``None`` on the fast path, a
        #: stack of open :class:`OperatorStats` frames while instrumented
        self._stats_stack: list[OperatorStats] | None = None
        self._root_stats: OperatorStats | None = None
        #: optional :class:`repro.resilience.budget.BudgetScope` polled
        #: once per operator result (the ``execute.operator`` site —
        #: budget ceilings, cancellation, and metrics observers all ride
        #: the same checkpoint); ``None`` keeps the fast path bare
        self._scope = None

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PlanNode,
        max_rows: int | None = None,
        collect_stats: bool = False,
        scope=None,
    ) -> QueryResult:
        """Execute ``plan``.  ``collect_stats=True`` additionally times
        every operator and records rows in/out (the EXPLAIN ANALYZE
        raw material) on the result's ``stats``.  ``scope`` threads a
        budget/metrics scope through the per-operator
        ``execute.operator`` checkpoint."""
        stats = None
        if collect_stats:
            self._stats_stack = []
            self._root_stats = None
        self._scope = scope
        started = time.perf_counter()
        try:
            if max_rows is not None:
                previous = self.max_rows
                self.max_rows = max_rows
                try:
                    schema, rows = self._run(plan)
                finally:
                    self.max_rows = previous
            else:
                schema, rows = self._run(plan)
            if collect_stats:
                stats = ExecutionStats(
                    root=self._root_stats,
                    wall_s=time.perf_counter() - started,
                )
        finally:
            self._scope = None
            if collect_stats:
                self._stats_stack = None
                self._root_stats = None
        return QueryResult(
            columns=[_column_label(c) for c in schema], rows=rows, stats=stats
        )

    # ------------------------------------------------------------------
    def _run(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        """One operator, through the stats collector when instrumented."""
        stack = self._stats_stack
        if stack is None:
            return self._run_guarded(plan)
        frame = OperatorStats(
            op=plan.op.name,
            detail=plan.op.render(),
            group_id=plan.group_id,
            est_rows=plan.cardinality,
        )
        if stack:
            stack[-1].children.append(frame)
        else:
            self._root_stats = frame
        stack.append(frame)
        started = time.perf_counter()
        try:
            schema, rows = self._run_guarded(plan)
        finally:
            frame.wall_s = time.perf_counter() - started
            stack.pop()
        frame.actual_rows = len(rows)
        return schema, rows

    def _run_guarded(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        """Dispatch one operator, then apply the per-operator guards:
        the injected-fault hook and the row-ceiling check.  Recursive
        calls for children come back through ``_run``, so the ceiling
        bounds every intermediate result, not just the root's."""
        schema, rows = self._dispatch(plan)
        fault_point("execute.operator", rows)
        scope = self._scope
        if scope is not None:
            scope.checkpoint("execute.operator", len(rows))
        max_rows = self.max_rows
        if max_rows is not None and len(rows) > max_rows:
            raise ResourceExhausted(
                f"operator {plan.op.name} produced {len(rows)} rows, "
                f"over the ceiling of {max_rows}",
                resource="rows",
            )
        return schema, rows

    def _dispatch(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        op = plan.op
        if isinstance(op, (TableScan, IndexScan)):
            return self._run_scan(plan)
        if isinstance(op, PhysicalFilter):
            return self._run_filter(plan)
        if isinstance(op, NestedLoopJoin):
            return self._run_nested_loop(plan)
        if isinstance(op, HashJoin):
            return self._run_hash_join(plan)
        if isinstance(op, MergeJoin):
            return self._run_merge_join(plan)
        if isinstance(op, IndexNestedLoopJoin):
            return self._run_index_nl_join(plan)
        if isinstance(op, Sort):
            return self._run_sort(plan)
        if isinstance(op, (HashAggregate, StreamAggregate)):
            return self._run_aggregate(plan)
        if isinstance(op, PhysicalProject):
            return self._run_project(plan)
        raise ExecutionError(f"no executor for operator {op.name}")

    # ------------------------------------------------------------------
    def _run_scan(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        op = plan.op
        table = self.database.table(op.table)
        if isinstance(op, IndexScan):
            rows = table.index_scan(op.index_name)
        else:
            rows = table.scan()
        schema = output_schema(plan, self.catalog)
        return schema, compile_filter(op.predicate, schema)(rows)

    def _run_filter(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        schema, rows = self._run(plan.children[0])
        return schema, compile_filter(plan.op.predicate, schema)(rows)

    def _run_nested_loop(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        left_schema, left_rows = self._run(plan.children[0])
        right_schema, right_rows = self._run(plan.children[1])
        join = compile_join(plan.op.predicate, left_schema, right_schema)
        return left_schema + right_schema, join(left_rows, right_rows)

    def _run_hash_join(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        op = plan.op
        left_schema, left_rows = self._run(plan.children[0])
        right_schema, right_rows = self._run(plan.children[1])

        left_key = self._key_fn(op.left_keys, left_schema)
        right_key = self._key_fn(op.right_keys, right_schema)
        join = compile_join(op.residual, left_schema, right_schema)

        # A NULL key equals nothing: such a row is never built, so no
        # probe -- NULL-keyed or not -- can find it.
        one_column = len(op.right_keys) == 1
        buckets: dict[object, list[tuple]] = {}
        for row in right_rows:
            key = right_key(row)
            if not (key is None if one_column else None in key):
                buckets.setdefault(key, []).append(row)
        out = []
        for left in left_rows:
            bucket = buckets.get(left_key(left))
            if bucket:
                out += join((left,), bucket)
        return left_schema + right_schema, out

    def _run_merge_join(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        op = plan.op
        left_schema, left_rows = self._run(plan.children[0])
        right_schema, right_rows = self._run(plan.children[1])

        left_key = self._key_fn(op.left_keys, left_schema)
        right_key = self._key_fn(op.right_keys, right_schema)
        join = compile_join(op.residual, left_schema, right_schema)

        if self.check_orders:
            self._assert_sorted(left_rows, left_key, "merge join left input")
            self._assert_sorted(right_rows, right_key, "merge join right input")

        out = []
        li = ri = 0
        n_left, n_right = len(left_rows), len(right_rows)
        while li < n_left and ri < n_right:
            lk = left_key(left_rows[li])
            rk = right_key(right_rows[ri])
            if lk < rk:
                li += 1
            elif lk > rk:
                ri += 1
            else:
                lj = li
                while lj < n_left and left_key(left_rows[lj]) == lk:
                    lj += 1
                rj = ri
                while rj < n_right and right_key(right_rows[rj]) == rk:
                    rj += 1
                out += join(left_rows[li:lj], right_rows[ri:rj])
                li, ri = lj, rj
        return left_schema + right_schema, out

    def _run_index_nl_join(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        op = plan.op
        outer_schema, outer_rows = self._run(plan.children[0])
        inner_schema = inner_columns(op, self.catalog)
        # An index seek: the rows under the probed key prefix, in index
        # order; the inner table's own filter runs on what the seek finds.
        inner = self.database.table(op.inner_table)
        seek = inner.index_lookup(op.index_name, len(op.inner_keys))
        outer_key = self._key_fn(op.outer_keys, outer_schema)
        predicates = [p for p in (op.inner_predicate, op.residual) if p is not None]
        join = compile_join(make_conjunction(predicates), outer_schema, inner_schema)
        out = []
        for outer in outer_rows:
            bucket = seek.get(outer_key(outer))
            if bucket:
                out += join((outer,), bucket)
        return outer_schema + inner_schema, out

    def _run_sort(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        schema, rows = self._run(plan.children[0])
        return schema, sorted(rows, key=self._key_fn(plan.op.order, schema))

    def _run_aggregate(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        op = plan.op
        child_schema, rows = self._run(plan.children[0])
        schema = output_schema(plan, self.catalog)

        funcs = [call.func for _, call in op.aggregates]
        # COUNT(*) counts a constant: every row, NULLs and all
        arguments = compile_projection(
            [Literal(1) if call.arg is None else call.arg for _, call in op.aggregates],
            child_schema,
        )(rows)

        def aggregates(members: list[tuple]) -> tuple:
            columns = zip(*members) if members else [()] * len(funcs)
            return tuple(map(_aggregate, funcs, columns))

        if not op.group_by:
            return schema, [aggregates(arguments)]

        group_key = self._key_fn(op.group_by, child_schema)
        if isinstance(op, StreamAggregate):
            if self.check_orders:
                self._assert_sorted(rows, group_key, "stream aggregate input")
            # one group per run of equal keys
            groups = []
            for row, values in zip(rows, arguments):
                key = group_key(row)
                if not groups or groups[-1][0] != key:
                    groups.append((key, []))
                groups[-1][1].append(values)
        else:
            # one group per key, in first-seen order
            table: dict[object, list[tuple]] = {}
            for row, values in zip(rows, arguments):
                table.setdefault(group_key(row), []).append(values)
            groups = table.items()
        if len(op.group_by) == 1:  # a one-column key is the bare value
            return schema, [(key,) + aggregates(members) for key, members in groups]
        return schema, [key + aggregates(members) for key, members in groups]

    def _run_project(self, plan: PlanNode) -> tuple[RowSchema, list[tuple]]:
        child_schema, rows = self._run(plan.children[0])
        project = compile_projection([e for _, e in plan.op.outputs], child_schema)
        return output_schema(plan, self.catalog), project(rows)

    # ------------------------------------------------------------------
    def _key_fn(self, columns: tuple[ColumnId, ...], schema: RowSchema):
        """``fn(row) -> key``: the bare value for one column, a tuple
        otherwise (``operator.itemgetter``) -- on both sides of a join
        alike, so their keys hash and compare as the tuples would."""
        try:
            return itemgetter(*[schema.positions[column] for column in columns])
        except KeyError as missing:
            raise ExecutionError(
                f"key column {missing.args[0].render()!r} not in input schema"
            ) from None

    @staticmethod
    def _assert_sorted(rows: list[tuple], key, what: str) -> None:
        for i in range(1, len(rows)):
            if key(rows[i - 1]) > key(rows[i]):
                raise ExecutionError(f"{what} is not sorted as required")


def execute_plan(
    plan: PlanNode, database: Database, check_orders: bool = False
) -> QueryResult:
    """Convenience wrapper: execute ``plan`` against ``database``."""
    return PlanExecutor(database, check_orders=check_orders).execute(plan)
