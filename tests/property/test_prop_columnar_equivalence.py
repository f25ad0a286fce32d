"""Equivalence of the columnar optimization path against the object memo.

The struct-of-arrays memo (:mod:`repro.memo.columnar`) — batched
exploration, batched implementation, and the layered best-plan DP — must
reproduce the object pipeline *exactly*: same best plan (byte-identical
render, same local ids, same cost), same plan-space total ``N``, same
per-operator census — and, through the lazy materialization facade, a
byte-identical memo render.  The object pipeline is the slow oracle of
``tests/reference_pipeline.py``; the engine under test is the only one
production has (``tests/optimizer/test_engine_selection.py`` pins that,
and the equivalence at 25 and 63 relations).  These tests sweep chain/star/clique/cycle
shapes in both cross-product modes; n in {7, 8} runs under ``-m slow``.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import OptimizerOptions
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.planspace.materialized.space import PlanSpace
from tests.reference_pipeline import (
    assert_matches_reference,
    operator_census,
    optimize_reference,
)

SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "clique": clique_query,
    "cycle": cycle_query,
}

FAST_CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (3, 4, 5, 6)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 5)  # keep the smoke tier quick
]

SLOW_CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (7, 8)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 7)
]


def _optimize_both(
    workload, cross: bool, implementation=ImplementationConfig()
):
    options = OptimizerOptions(
        allow_cross_products=cross, implementation=implementation
    )
    columnar = Session(workload.database, options=options).optimize(workload.sql)
    objectpath = optimize_reference(workload.catalog, workload.sql, options)
    assert columnar.engine == "columnar"
    assert columnar.memo.columnar is not None
    return columnar, objectpath


def _check_equivalence(shape: str, n: int, cross: bool) -> None:
    workload = SHAPES[shape](n, rows=5, seed=0)
    columnar, objectpath = _optimize_both(workload, cross)
    assert columnar.memo.columnar_logical is not None

    # Counts answered from the arrays, before anything materializes;
    # best plan byte-identical (operators, shape, group/local ids), same
    # cost to the bit; then the full memo dump.
    assert_matches_reference(columnar, objectpath)

    # Plan-space N and the per-operator census through the lazy facade.
    n_columnar = PlanSpace.from_result(columnar).count()
    n_object = PlanSpace.from_result(objectpath).count()
    assert n_columnar == n_object
    assert operator_census(columnar.memo) == operator_census(objectpath.memo)


@pytest.mark.parametrize("shape,n,cross", FAST_CASES)
def test_columnar_matches_object_path(shape, n, cross):
    _check_equivalence(shape, n, cross)


@pytest.mark.slow
@pytest.mark.parametrize("shape,n,cross", SLOW_CASES)
def test_columnar_matches_object_path_large(shape, n, cross):
    _check_equivalence(shape, n, cross)


@pytest.mark.parametrize("query", ["Q3", "Q5", "Q9", "Q10"])
@pytest.mark.parametrize("cross", [False, True])
def test_columnar_matches_object_path_tpch(query, cross):
    sql = TPCH_QUERIES[query].sql
    options = OptimizerOptions(allow_cross_products=cross)
    session = Session.tpch(options=options)
    columnar = session.optimize(sql)
    assert columnar.engine == "columnar"
    assert_matches_reference(
        columnar, optimize_reference(session.catalog, sql, options)
    )


@pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_fused_and_pruning_random_topologies(density, seed):
    """Random connected topologies: dominated-state pruning on and off
    land on the identical plan and cost."""
    from repro.workloads.synthetic import random_query

    workload = random_query(7, edge_density=density, seed=seed, rows=5)
    on, off = (
        Session(
            workload.database, options=OptimizerOptions(prune_dominated=prune)
        ).optimize(workload.sql)
        for prune in (True, False)
    )
    assert off.best_cost == on.best_cost
    assert off.best_plan.render() == on.best_plan.render()


@pytest.mark.parametrize(
    "shape,n,cross", [("clique", 6, False), ("star", 7, False)]
)
def test_dominated_state_pruning_equivalence(shape, n, cross):
    """Pruning dominated DP states changes how much work the layer
    resolution does (the stats prove it fired) but never the answer."""
    workload = SHAPES[shape](n, rows=5, seed=0)
    results = {}
    for prune in (True, False):
        results[prune] = Session(
            workload.database,
            options=OptimizerOptions(
                allow_cross_products=cross, prune_dominated=prune
            ),
        ).optimize(workload.sql)
    on, off = results[True], results[False]
    assert on.best_cost == off.best_cost
    assert on.best_plan.render() == off.best_plan.render()
    assert on.memo.render() == off.memo.render()
    assert on.dp_stats is not None
    assert on.dp_stats["pruned"] >= 0
    assert off.dp_stats["pruned"] == 0


def test_logical_counts_do_not_materialize():
    """Logical counting on a batched memo must not rebuild GroupExprs."""
    workload = SHAPES["cycle"](6, rows=5, seed=0)
    result = Session(workload.database).optimize(workload.sql)
    memo = result.memo
    store = memo.columnar_logical
    assert store is not None
    assert memo.logical_expression_count() > 0
    join_gids = [
        gid for gid in range(len(memo.groups)) if store.pending_count(gid)
    ]
    assert join_gids
    assert all(memo.groups[gid]._pending is not None for gid in join_gids)
    # Materializing just the logical block keeps the physical one lazy.
    group = memo.groups[join_gids[0]]
    logical = group.logical_exprs()
    assert len(logical) == store.logical_join_count(group.gid)
    assert group._pending is not None
    assert group.physical_expr_count() > 0


@pytest.mark.parametrize(
    "implementation",
    [
        ImplementationConfig(enable_merge_join=False),
        ImplementationConfig(enable_hash_join=False),
        ImplementationConfig(enable_index_scans=False),
        ImplementationConfig(enable_sort_enforcers=False),
        ImplementationConfig(enable_index_nl_join=True),
        ImplementationConfig(enable_nested_loop_join=False),
    ],
)
def test_columnar_matches_object_path_ablations(implementation):
    """Rule ablations (including index-lookup joins) keep the paths
    identical — the configurations the diff tooling exercises."""
    workload = SHAPES["cycle"](5, rows=5, seed=0)
    columnar, objectpath = _optimize_both(
        workload, False, implementation=implementation
    )
    assert_matches_reference(columnar, objectpath)


def test_columnar_counts_do_not_materialize():
    """Counting a columnar memo must not rebuild GroupExpr objects."""
    workload = SHAPES["star"](6, rows=5, seed=0)
    result = Session(workload.database).optimize(workload.sql)
    memo = result.memo
    assert memo.expression_count() > 0
    assert memo.physical_expression_count() > 0
    assert all(
        group._pending is not None
        for group in memo.groups
        if group.physical_expr_count()
    )
