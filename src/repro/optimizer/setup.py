"""Initial memo construction: copy the query's plan into the MEMO.

Mirrors the paper's Figure 1: the bound query is translated into an
initial tree of logical operators, every operator is assigned to a group,
and child links become group references.  The initial join shape is a
left-deep tree over the FROM order (re-ordered greedily to avoid Cartesian
products when those are disallowed); exploration then derives all other
shapes.

Above the join root we stack, as needed: a residual Select for constant
predicates, the Aggregate, and a final Project.  The Project is always
present — it pins the output column order so that every plan in the space
produces comparable results (the paper's Section 4 verification depends on
plans being result-equivalent).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import make_conjunction
from repro.algebra.logical import (
    LogicalAggregate,
    LogicalGet,
    LogicalProject,
    LogicalSelect,
)
from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.joingraph import JoinGraph
from repro.sql.binder import BoundQuery

__all__ = ["MemoSetup", "build_initial_memo"]


@dataclass
class MemoSetup:
    """The freshly seeded memo plus everything exploration needs."""

    memo: Memo
    graph: JoinGraph
    query: BoundQuery
    join_root_gid: int


def _initial_join_order(
    query: BoundQuery, graph: JoinGraph, allow_cross_products: bool
) -> list[str]:
    """The FROM-clause order, fixed up to avoid cross products if needed.

    With cross products disallowed, each next range variable must be
    connected to the prefix already joined; we greedily pick the first
    FROM entry that is (a disconnected query graph is reported as an
    error, since no such order exists).
    """
    aliases = [q.alias for q in query.quantifiers]
    if allow_cross_products or len(aliases) <= 1:
        return aliases
    remaining = list(aliases)
    order = [remaining.pop(0)]
    prefix = graph.mask_of(order)
    while remaining:
        for i, alias in enumerate(remaining):
            bit = graph.mask_of([alias])
            if graph.applicable_conjuncts_m(prefix, bit):
                order.append(remaining.pop(i))
                prefix |= bit
                break
        else:
            raise OptimizerError(
                "query join graph is disconnected; the space without "
                "Cartesian products is empty (enable allow_cross_products)"
            )
    return order


def build_initial_memo(
    query: BoundQuery, allow_cross_products: bool = True
) -> MemoSetup:
    """Seed a memo with the initial logical plan for ``query``.

    Every route — exact, sampled, heuristic tier, implicit counting —
    starts here, so this is where a query beyond the kernels' limits is
    refused, before anything is explored.
    """
    # Deferred import: repro.planspace's package __init__ reaches back
    # into repro.optimizer.
    from repro.planspace.implicit.edges import check_limits

    graph = JoinGraph(
        aliases=query.aliases(), conjuncts=list(query.where_conjuncts)
    )
    check_limits(graph)
    memo = Memo(universe=graph.universe)

    # Leaf groups: one per range variable, with its pushed-down filter.
    for quantifier in query.quantifiers:
        group = memo.get_or_create_rels_group(graph.mask_of([quantifier.alias]))
        memo.insert(
            LogicalGet(
                table=quantifier.table,
                alias=quantifier.alias,
                predicate=query.pushed_filters.get(quantifier.alias),
            ),
            (),
            group,
        )

    # Initial left-deep join tree (Figure 1's copy-in).
    order = _initial_join_order(query, graph, allow_cross_products)
    prefix = graph.mask_of([order[0]])
    current_gid = memo.get_or_create_rels_group(prefix).gid
    for alias in order[1:]:
        right = graph.mask_of([alias])
        right_gid = memo.get_or_create_rels_group(right).gid
        combined = prefix | right
        group = memo.get_or_create_rels_group(combined)
        memo.insert(
            graph.join_operator_m(prefix, right), (current_gid, right_gid), group
        )
        current_gid = group.gid
        prefix = combined

    join_root_gid = current_gid
    top_gid = join_root_gid

    # Residual constant predicates (rare; e.g. WHERE 1 = 2).
    if graph.constant_conjuncts:
        predicate = make_conjunction(graph.constant_conjuncts)
        select_group = memo.get_or_create_group(
            ("select", top_gid, predicate.fingerprint()),
            memo.group(top_gid).relations,
            mask=memo.group(top_gid).mask,
        )
        memo.insert(LogicalSelect(predicate), (top_gid,), select_group)
        top_gid = select_group.gid

    if query.is_aggregate_query:
        agg_group = memo.get_or_create_group(
            ("agg", top_gid),
            memo.group(top_gid).relations,
            mask=memo.group(top_gid).mask,
        )
        memo.insert(
            LogicalAggregate(group_by=query.group_by, aggregates=query.aggregates),
            (top_gid,),
            agg_group,
        )
        top_gid = agg_group.gid

    project_group = memo.get_or_create_group(
        ("proj", top_gid),
        memo.group(top_gid).relations,
        mask=memo.group(top_gid).mask,
    )
    memo.insert(LogicalProject(outputs=query.select_outputs), (top_gid,), project_group)
    memo.set_root(project_group.gid)

    return MemoSetup(
        memo=memo, graph=graph, query=query, join_root_gid=join_root_gid
    )
