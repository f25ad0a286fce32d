"""Reference (slow-path) implementation: one ``memo.insert`` per operator.

The materializing consumer of the shared rule module
(:mod:`repro.optimizer.rules`) that :func:`repro.optimizer.
implementation.implement_memo_columnar` replaced — moved here verbatim
(minus the fault and budget hooks of its retired ``implement.object``
site) when the columnar store became the only production engine.  It
walks the logical memo and inserts one :class:`~repro.memo.group.
GroupExpr` per generated operator, then adds the ``Sort`` enforcers the
physical operators (and ORDER BY) require — exactly the shape of the
paper's Figure 2, where Sort operators appear inside scan groups.  The
columnar store's row order, local ids and requirement stream are defined
as "what this loop inserts"; ``tests/reference_pipeline.py`` composes it
into the slow end-to-end oracle.
"""

from __future__ import annotations

from repro.algebra.expressions import ColumnId
from repro.algebra.logical import LogicalGet, LogicalJoin
from repro.algebra.physical import HashJoin, MergeJoin, PhysicalOperator, Sort
from repro.catalog.catalog import Catalog
from repro.memo.group import GroupExpr
from repro.memo.memo import Memo
from repro.optimizer.rules import (
    ImplementationConfig,
    extract_equi_keys,
    index_nl_join_implementations,
    nested_loop_join,
    scan_implementations,
    unary_implementations,
)

__all__ = ["implement_memo"]


def _implement_index_nl_join(
    expr: GroupExpr,
    memo: Memo,
    catalog: Catalog,
    left_keys: tuple[ColumnId, ...],
    right_keys: tuple[ColumnId, ...],
) -> int:
    """Insert index-lookup joins when the inner side is a single base
    table with a usable index (see
    :func:`repro.optimizer.rules.index_nl_join_implementations`)."""
    op = expr.op
    assert isinstance(op, LogicalJoin)
    right_group = memo.group(expr.children[1])
    if len(right_group.relations) != 1:
        return 0
    get = next(
        (e.op for e in right_group.logical_exprs() if isinstance(e.op, LogicalGet)),
        None,
    )
    if get is None:
        return 0
    group = memo.group(expr.group_id)
    inserted = 0
    for join in index_nl_join_implementations(
        get, catalog, op.predicate, left_keys, right_keys
    ):
        if memo.insert(join, (expr.children[0],), group) is not None:
            inserted += 1
    return inserted


def implement_memo(
    memo: Memo,
    catalog: Catalog,
    config: ImplementationConfig | None = None,
    root_order: tuple[ColumnId, ...] = (),
) -> int:
    """Generate physical operators for every logical expression, then add
    the Sort enforcers the physical operators (and ORDER BY) require.

    Returns the number of physical expressions inserted.
    """
    if config is None:
        config = ImplementationConfig()
    inserted = 0
    groups = memo.groups
    insert = memo.insert
    enable_nlj = config.enable_nested_loop_join
    enable_hash = config.enable_hash_join
    enable_merge = config.enable_merge_join
    enable_index_nlj = config.enable_index_nl_join
    # Merge-join child-order requirements are collected inline while the
    # operators are built (their keys are at hand), sparing the enforcer
    # pass a virtual call per join child.
    collect_merge_reqs = enable_merge and config.enable_sort_enforcers
    sort_requirements: dict[tuple[int, tuple[ColumnId, ...]], None] = {}
    record_requirement = sort_requirements.setdefault
    # Snapshot: implementation adds physical exprs only, so iterating over
    # the logical expressions present now is exhaustive.  Joins — the bulk
    # of any explored memo — are handled inline with hoisted locals; the
    # operator construction itself is the shared rule module's.  The
    # inline structure mirrors rules.join_implementations (NLJ, Hash,
    # Merge, IndexNLJ order) without building an operator tuple per join.
    logical = [
        expr
        for group in memo.groups
        for expr in group.exprs
        if not expr.is_physical
    ]
    for expr in logical:
        op = expr.op
        if type(op) is LogicalJoin:
            group = groups[expr.group_id]
            children = expr.children
            predicate = op.predicate
            left_keys, right_keys, residual = extract_equi_keys(
                predicate,
                groups[children[0]].relations,
                groups[children[1]].relations,
            )
            if enable_nlj:
                if insert(nested_loop_join(predicate), children, group) is not None:
                    inserted += 1
            if left_keys:
                if enable_hash:
                    hash_join = HashJoin(left_keys, right_keys, residual)
                    if insert(hash_join, children, group) is not None:
                        inserted += 1
                if enable_merge:
                    merge_join = MergeJoin(left_keys, right_keys, residual)
                    if insert(merge_join, children, group) is not None:
                        inserted += 1
                    if collect_merge_reqs:
                        record_requirement((children[0], left_keys))
                        record_requirement((children[1], right_keys))
                if enable_index_nlj:
                    inserted += _implement_index_nl_join(
                        expr, memo, catalog, left_keys, right_keys
                    )
        elif isinstance(op, LogicalGet):
            group = groups[expr.group_id]
            for scan in scan_implementations(op, catalog, config):
                if insert(scan, (), group) is not None:
                    inserted += 1
        else:
            group = groups[expr.group_id]
            for phys in unary_implementations(op, config):
                if insert(phys, expr.children, group) is not None:
                    inserted += 1

    if config.enable_sort_enforcers:
        inserted += _insert_enforcers(
            memo,
            root_order,
            required=sort_requirements,
            skip_merge_joins=collect_merge_reqs,
        )
    return inserted


_NO_CHILD_ORDER = PhysicalOperator.required_child_order


def _insert_enforcers(
    memo: Memo,
    root_order: tuple[ColumnId, ...],
    required: dict[tuple[int, tuple[ColumnId, ...]], None] | None = None,
    skip_merge_joins: bool = False,
) -> int:
    """Add ``Sort`` expressions for every required (group, order) pair.

    Requirements are deduplicated (in first-occurrence order, so memo
    layout matches the historical one-insert-per-occurrence loop) before
    touching the memo: a 12-way join yields tens of thousands of merge
    joins but only a handful of distinct (group, order) pairs.  Operators
    that inherit the base class's trivial ``required_child_order`` are
    skipped without calling it; merge joins are skipped entirely when the
    caller already collected their requirements into ``required``.
    """
    if required is None:
        required = {}
    for group in memo.groups:
        for expr in group.exprs:
            if not expr.is_physical:
                continue
            op = expr.op
            op_type = type(op)
            if op_type.required_child_order is _NO_CHILD_ORDER:
                continue
            if skip_merge_joins and op_type is MergeJoin:
                continue
            for child_pos, child_gid in enumerate(expr.children):
                order = op.required_child_order(child_pos)
                if order:
                    required.setdefault((child_gid, order))
    if root_order and memo.root_group_id is not None:
        required.setdefault((memo.root_group_id, root_order))

    inserted = 0
    for gid, order in required:
        group = memo.group(gid)
        if memo.insert(Sort(order), (gid,), group) is not None:
            inserted += 1
    return inserted
