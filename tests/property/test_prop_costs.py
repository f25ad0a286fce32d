"""Property-based tests for the cost model and plan costing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.workloads.synthetic import chain_query
from tests.planspace.materialized.space import PlanSpace


@given(
    seed=st.integers(min_value=0, max_value=60),
    n_tables=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_all_plan_costs_positive_and_at_least_best(seed, n_tables):
    workload = chain_query(n_tables, rows=6, seed=seed)
    result = Optimizer(
        workload.catalog, OptimizerOptions(allow_cross_products=False)
    ).optimize_sql(workload.sql)
    space = PlanSpace.from_result(result)
    for plan in space.sample(20, seed=seed):
        cost = result.cost_model.plan_cost(plan)
        assert cost > 0
        # No plan can beat the DP optimum.
        assert cost >= result.best_cost - 1e-9 * result.best_cost


@given(
    seed=st.integers(min_value=0, max_value=60),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=20, deadline=None)
def test_costs_homogeneous_in_parameters(seed, scale):
    """Multiplying every cost constant by one factor scales every plan's
    cost by exactly that factor (so relative plan quality is invariant)."""
    workload = chain_query(3, rows=6, seed=seed)
    base_params = CostParameters()
    scaled_params = CostParameters(
        **{
            name: getattr(base_params, name) * scale
            for name in base_params.__dataclass_fields__
        }
    )
    result = Optimizer(
        workload.catalog, OptimizerOptions(allow_cross_products=False)
    ).optimize_sql(workload.sql)
    space = PlanSpace.from_result(result)
    plans = space.sample(10, seed=seed)
    base_model = CostModel(workload.catalog, base_params)
    scaled_model = CostModel(workload.catalog, scaled_params)
    for plan in plans:
        base = base_model.plan_cost(plan)
        scaled = scaled_model.plan_cost(plan)
        assert scaled == pytest.approx(base * scale, rel=1e-9)


@given(seed=st.integers(min_value=0, max_value=60))
@settings(max_examples=15, deadline=None)
def test_scaled_costs_start_at_one(seed):
    """The optimizer's plan defines cost 1.0; sampled scaled costs >= 1."""
    from repro.experiments.distributions import distribution_from_result

    workload = chain_query(3, rows=6, seed=seed)
    result = Optimizer(
        workload.catalog, OptimizerOptions(allow_cross_products=False)
    ).optimize_sql(workload.sql)
    dist = distribution_from_result(result, "chain3", sample_size=50, seed=seed)
    assert dist.minimum() >= 1.0 - 1e-9
