"""The last-resort tier: one greedy join sequence, no search.

When every budgeted tier of the degradation ladder has been exhausted
the session still owes the caller an executable plan.  This module
produces one without exploring: quantifiers are greedily ordered
smallest-estimated-table first (connectivity-permitting, so the
no-cross-products policy is honoured), the initial left-deep memo is
built exactly as the exact path would, and its n - 1 seeded joins become
the memo's logical store, one split per join group
(:func:`~repro.memo.columnar.seeded_logical_store`), so each join may
take either input as its outer.  The exact tier's own kernel — the
vectorized emitter and
:class:`~repro.optimizer.bestplan.ColumnarBestPlanSearch` — runs over
that sub-space in milliseconds, even on queries whose full search space
takes minutes.

The result is a genuine :class:`~repro.optimizer.optimizer.OptimizationResult`
(``engine="heuristic"``): it renders, costs finitely, and executes
through the same machinery as any exact plan.  No budget is enforced
inside this tier — it serves every query within the kernel's limits
(a query past them never reaches a tier: memo setup refuses it), and it
is cheap enough that enforcement would only add a failure mode.
"""

from __future__ import annotations

import dataclasses
import time

from repro.catalog.catalog import Catalog
from repro.memo.columnar import seeded_logical_store
from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.implementation import implement_memo_columnar
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.optimizer import OptimizationResult, OptimizerOptions
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import BoundQuery

__all__ = ["greedy_quantifier_order", "optimize_heuristic"]


def greedy_quantifier_order(
    catalog: Catalog, query: BoundQuery, allow_cross_products: bool
) -> tuple:
    """Quantifiers reordered smallest-table-first, connectivity-first.

    The classic greedy join heuristic: start from the smallest estimated
    base table and repeatedly append the smallest remaining quantifier
    that shares a join predicate with the prefix (falling back to the
    smallest disconnected one when cross products are allowed, or when
    nothing connects — in which case the downstream memo setup reports
    the disconnected graph exactly as the exact path would).
    """
    quantifiers = list(query.quantifiers)
    if len(quantifiers) <= 1:
        return tuple(quantifiers)
    graph = JoinGraph(
        aliases=query.aliases(), conjuncts=list(query.where_conjuncts)
    )

    def rows_of(q) -> float:
        return catalog.table_stats(q.table).row_count

    remaining = sorted(quantifiers, key=lambda q: (rows_of(q), q.alias))
    order = [remaining.pop(0)]
    prefix = graph.mask_of([order[0].alias])
    while remaining:
        pick = None
        if not allow_cross_products or len(remaining) > 1:
            for i, q in enumerate(remaining):
                bit = graph.mask_of([q.alias])
                if graph.applicable_conjuncts_m(prefix, bit):
                    pick = i
                    break
        if pick is None:
            # Nothing connects: take the smallest and let build_initial_memo
            # apply the cross-product policy (error when disallowed).
            pick = 0
        q = remaining.pop(pick)
        order.append(q)
        prefix |= graph.mask_of([q.alias])
    return tuple(order)


def optimize_heuristic(
    catalog: Catalog,
    query: BoundQuery,
    options: OptimizerOptions | None = None,
) -> OptimizationResult:
    """The best plan over one greedy join sequence — no exploration."""
    if options is None:
        options = OptimizerOptions()
    timings: dict[str, float] = {}

    start = time.perf_counter()
    ordered = dataclasses.replace(
        query,
        quantifiers=greedy_quantifier_order(
            catalog, query, options.allow_cross_products
        ),
    )
    setup = build_initial_memo(ordered, options.allow_cross_products)
    memo, graph = setup.memo, setup.graph
    # No exploration: every physical operator of the greedy joins, either
    # input outer, is offered, and the DP picks the cheapest.
    seeded_logical_store(memo, graph, options.allow_cross_products).attach()
    timings["setup"] = time.perf_counter() - start

    start = time.perf_counter()
    store = implement_memo_columnar(
        memo, graph, catalog, options.implementation, root_order=query.order_by
    )
    timings["implement"] = time.perf_counter() - start

    start = time.perf_counter()
    estimator = CardinalityEstimator(catalog, ordered)
    annotate_cardinalities(memo, graph, estimator)
    timings["annotate"] = time.perf_counter() - start

    cost_model = CostModel(catalog, options.cost_params)
    start = time.perf_counter()
    search = ColumnarBestPlanSearch(store, cost_model)
    best_plan, best_cost = search.run().best_plan(query.order_by)
    timings["bestplan"] = time.perf_counter() - start

    return OptimizationResult(
        memo=memo,
        # The query as bound, not the greedy reordering: plan numbers
        # (validation, USEPLAN) are defined over the query's own space.
        query=query,
        graph=graph,
        best_plan=best_plan,
        best_cost=best_cost,
        root_order=query.order_by,
        cost_model=cost_model,
        estimator=estimator,
        options=options,
        timings=timings,
        engine="heuristic",
        fallback_reason="greedy join order tier (no exploration)",
    )
