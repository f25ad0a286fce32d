"""Property-based tests: plan-result equivalence on random queries.

Hypothesis drives the Section 4 methodology itself: random synthetic
workloads (random join-graph shape, data seed, cross-product policy),
random plan samples — every plan must agree with the optimizer's choice.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.executor.executor import PlanExecutor
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.testing.diff import canonical_rows
from repro.workloads.synthetic import chain_query, clique_query, star_query
from tests.planspace.materialized.space import PlanSpace

_MAKERS = {"chain": chain_query, "star": star_query, "clique": clique_query}


@given(
    shape=st.sampled_from(sorted(_MAKERS)),
    n_tables=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=50),
    allow_cross=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_sampled_plans_result_equivalent(shape, n_tables, seed, allow_cross):
    workload = _MAKERS[shape](n_tables, rows=6, seed=seed)
    result = Optimizer(
        workload.catalog, OptimizerOptions(allow_cross_products=allow_cross)
    ).optimize_sql(workload.sql)
    space = PlanSpace.from_result(result)
    executor = PlanExecutor(workload.database, check_orders=True)
    reference = canonical_rows(executor.execute(result.best_plan).rows)
    for plan in space.sample(8, seed=seed):
        assert canonical_rows(executor.execute(plan).rows) == reference


@given(
    n_tables=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=15, deadline=None)
def test_best_plan_cost_is_global_minimum(n_tables, seed):
    """The optimizer's cost must equal the minimum over the whole space."""
    workload = chain_query(n_tables, rows=5, seed=seed)
    result = Optimizer(
        workload.catalog, OptimizerOptions(allow_cross_products=False)
    ).optimize_sql(workload.sql)
    space = PlanSpace.from_result(result)
    total = space.count()
    if total > 20_000:
        return  # keep the brute force bounded
    best = min(
        result.cost_model.plan_cost(plan) for _, plan in space.enumerate()
    )
    assert abs(best - result.best_cost) < 1e-6 * max(1.0, best)


@given(seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=20, deadline=None)
def test_useplan_rank_stability(seed):
    """Optimizing the same query twice gives identical rank->plan maps."""
    workload = star_query(3, rows=5, seed=seed)
    options = OptimizerOptions(allow_cross_products=False)
    space_a = PlanSpace.from_result(
        Optimizer(workload.catalog, options).optimize_sql(workload.sql)
    )
    space_b = PlanSpace.from_result(
        Optimizer(workload.catalog, options).optimize_sql(workload.sql)
    )
    assert space_a.count() == space_b.count()
    rank = seed % space_a.count()
    assert space_a.unrank(rank).fingerprint() == space_b.unrank(rank).fingerprint()
