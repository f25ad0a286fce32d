"""The slow end-to-end oracle: one object-memo optimization, no arrays.

``optimize_reference`` runs the pipeline the production optimizer's
columnar engine must reproduce byte for byte — reference (generate-and-
test) enumeration (``tests/optimizer/reference_enumeration.py``), one
``memo.insert`` per physical operator
(``tests/optimizer/reference_implementation.py``), and the recursive
``BestPlanSearch`` (``tests/optimizer/reference_bestplan.py``): the
three object-memo phases production replaced, each kept as it was.  The
memo it returns carries no columnar store, so every differential suite
diffs the one engine's best plan, cost, memo render, operator census and
plan count against it.  ``reference_heuristic`` is the same oracle over
the heuristic tier's greedy memo: the seeded left-deep joins, each with
its commuted orientation inserted beside it.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.executor.executor import PlanExecutor
from repro.obs.feedback import CardinalityLedger
from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.optimizer import OptimizationResult, OptimizerOptions
from repro.optimizer.setup import build_initial_memo
from repro.resilience.heuristic import greedy_quantifier_order
from repro.sql.binder import Binder
from repro.sql.parser import parse
from tests.optimizer.reference_bestplan import BestPlanSearch, find_best_plan
from tests.optimizer.reference_enumeration import ReferenceEnumerationExplorer
from tests.optimizer.reference_implementation import implement_memo

__all__ = [
    "assert_matches_reference",
    "operator_census",
    "optimize_reference",
    "reference_heuristic",
    "reference_true_cardinality_ledger",
]


def optimize_reference(
    catalog,
    sql: str,
    options: OptimizerOptions | None = None,
    explorer=None,
) -> OptimizationResult:
    """Optimize ``sql`` on the object memo only (``engine="reference"``).

    ``explorer`` overrides the exploration oracle: generate-and-test
    walks all ``2**n`` subsets, so the 25- and 63-relation limit tests
    pass the production ``EnumerationExplorer()`` and diff the two
    phases this oracle exists for — implementation and best-plan search.
    The rule-engine oracle comes in the same way:
    ``explorer=TransformationExplorer(rules)`` from
    ``tests/optimizer/reference_transformation.py``.
    """
    if options is None:
        options = OptimizerOptions()
    assert options.pruning_factor is None, "the oracle does not prune"
    query = Binder(catalog).bind(parse(sql))
    setup = build_initial_memo(query, options.allow_cross_products)
    if explorer is None:
        explorer = ReferenceEnumerationExplorer()
    explorer.explore(setup.memo, setup.graph, options.allow_cross_products)
    return _implement_and_search(catalog, query, setup, options)


def reference_heuristic(
    catalog, sql: str, options: OptimizerOptions | None = None
) -> OptimizationResult:
    """The heuristic tier as the oracle serves it: the same greedy
    left-deep memo, each seeded join group given its commuted
    orientation (a split is unordered), implemented and searched on
    objects."""
    if options is None:
        options = OptimizerOptions()
    query = Binder(catalog).bind(parse(sql))
    ordered = dataclasses.replace(
        query,
        quantifiers=greedy_quantifier_order(
            catalog, query, options.allow_cross_products
        ),
    )
    setup = build_initial_memo(ordered, options.allow_cross_products)
    memo, graph = setup.memo, setup.graph
    for group in list(memo.groups):
        if group.key[0] == "rels" and len(group.relations) > 1:
            (seeded,) = group.logical_exprs()
            left, right = seeded.children
            memo.insert(
                graph.join_operator_m(memo.groups[right].mask, memo.groups[left].mask),
                (right, left),
                group,
            )
    return _implement_and_search(catalog, ordered, setup, options)


def _implement_and_search(catalog, query, setup, options) -> OptimizationResult:
    memo, graph = setup.memo, setup.graph
    implement_memo(memo, catalog, options.implementation, root_order=query.order_by)
    estimator = CardinalityEstimator(catalog, query)
    annotate_cardinalities(memo, graph, estimator)
    cost_model = CostModel(catalog, options.cost_params)
    best_plan, best_cost = find_best_plan(
        memo, cost_model, required_order=query.order_by
    )
    assert memo.columnar is None
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
        engine="reference",
    )


def reference_true_cardinality_ledger(result, database) -> CardinalityLedger:
    """:func:`repro.obs.true_cardinality_ledger` as it was before it read
    the production DP: the oracle search picks each join-level group's
    cheapest subplan off the object memo."""
    ledger = CardinalityLedger()
    universe = result.graph.universe.order
    search = BestPlanSearch(result.memo, result.cost_model)
    executor = PlanExecutor(database)
    for group in result.memo.groups:
        if group.key[0] != "rels":
            continue
        best = search.best(group.gid, ())
        actual = len(executor.execute(best.plan).rows)
        ledger.observe(
            universe,
            group.key[1],
            actual_rows=float(actual),
            est_rows=float(group.cardinality or 0.0),
        )
    return ledger


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
