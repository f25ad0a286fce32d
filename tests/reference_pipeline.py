"""The slow end-to-end oracle: one object-memo optimization, no arrays.

``optimize_reference`` runs the pipeline the production optimizer's
columnar engine must reproduce byte for byte — reference (generate-and-
test) enumeration, one ``memo.insert`` per physical operator
(:func:`~repro.optimizer.implementation.implement_memo`), and the
recursive :class:`~repro.optimizer.bestplan.BestPlanSearch` — the shape
:func:`repro.resilience.heuristic.optimize_heuristic` has, plus
exploration.  The memo it returns carries no columnar store, so every
differential suite diffs the default engine's best plan, cost, memo
render, operator census and plan count against it.
"""

from __future__ import annotations

from collections import Counter

from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.bestplan import find_best_plan
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.explorer import TransformationExplorer
from repro.optimizer.implementation import implement_memo
from repro.optimizer.optimizer import (
    ExplorationStrategy,
    OptimizationResult,
    OptimizerOptions,
)
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import Binder
from repro.sql.parser import parse
from tests.optimizer.reference_enumeration import ReferenceEnumerationExplorer

__all__ = ["assert_matches_reference", "operator_census", "optimize_reference"]


def optimize_reference(
    catalog, sql: str, options: OptimizerOptions | None = None
) -> OptimizationResult:
    """Optimize ``sql`` on the object memo only (``engine="object"``)."""
    if options is None:
        options = OptimizerOptions()
    assert options.pruning_factor is None, "the oracle does not prune"
    query = Binder(catalog).bind(parse(sql))
    setup = build_initial_memo(query, options.allow_cross_products)
    memo, graph = setup.memo, setup.graph
    if options.exploration is ExplorationStrategy.TRANSFORMATION:
        explorer = TransformationExplorer(options.rules)
    else:
        explorer = ReferenceEnumerationExplorer()
    explorer.explore(memo, graph, options.allow_cross_products)
    implement_memo(memo, catalog, options.implementation, root_order=query.order_by)
    estimator = CardinalityEstimator(catalog, query)
    annotate_cardinalities(memo, graph, estimator)
    cost_model = CostModel(catalog, options.cost_params)
    best_plan, best_cost = find_best_plan(
        memo, cost_model, required_order=query.order_by
    )
    assert memo.columnar is None and memo.columnar_logical is None
    return OptimizationResult(
        memo=memo,
        query=query,
        graph=graph,
        best_plan=best_plan,
        best_cost=best_cost,
        root_order=query.order_by,
        cost_model=cost_model,
        estimator=estimator,
        options=options,
        engine="object",
        fallback_reason="reference pipeline (tests)",
    )


def operator_census(memo) -> Counter:
    """Physical expression counts per operator name (forces the lazy
    materialization of a columnar memo)."""
    census: Counter = Counter()
    for group in memo.groups:
        for expr in group.physical_exprs():
            census[expr.op.name] += 1
    return census


def assert_matches_reference(result, reference, tag=None) -> None:
    """The production result equals the oracle's: best plan render and
    cost to the bit, expression counts, and the full memo dump."""
    assert result.best_cost == reference.best_cost, tag
    assert result.best_plan.render() == reference.best_plan.render(), tag
    assert (
        result.memo.logical_expression_count()
        == reference.memo.logical_expression_count()
    ), tag
    assert result.memo.expression_count() == reference.memo.expression_count(), tag
    assert (
        result.memo.physical_expression_count()
        == reference.memo.physical_expression_count()
    ), tag
    assert result.memo.render() == reference.memo.render(), tag
