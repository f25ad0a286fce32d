"""Tests for cost-distribution sampling (Section 5)."""

import pytest

from repro.experiments.distributions import (
    CostDistribution,
    distribution_from_result,
    sample_cost_distribution,
)
from repro.workloads.tpch_queries import tpch_query


@pytest.fixture(scope="module")
def q3_dist(cost_distribution):
    return cost_distribution("Q3")


# Re-declare catalog at module scope for the fixture above.
@pytest.fixture(scope="module")
def catalog():
    from repro.catalog.tpch import tpch_catalog

    return tpch_catalog()


class TestScaledCosts:
    def test_costs_scaled_to_optimum(self, q3_dist):
        # The optimum has cost 1.0; no sampled plan can beat it.
        assert q3_dist.minimum() >= 1.0

    def test_sample_size(self, q3_dist):
        assert q3_dist.sample_size == 2_000

    def test_mean_between_min_and_max(self, q3_dist):
        assert q3_dist.minimum() <= q3_dist.mean() <= q3_dist.maximum()

    def test_fractions_monotone(self, q3_dist):
        assert q3_dist.fraction_within(2) <= q3_dist.fraction_within(10) <= 1.0

    def test_some_plans_near_optimum(self, q3_dist):
        # Paper: "with a relatively small sample ... it is possible to find
        # plans that are pretty close to the optimum".
        assert q3_dist.fraction_within(10) > 0

    def test_distribution_right_skewed(self, q3_dist):
        assert q3_dist.skewness() > 0

    def test_median_and_lower_half(self, q3_dist):
        lower = q3_dist.lower_half()
        assert len(lower) == q3_dist.sample_size // 2
        assert max(lower) <= q3_dist.median() * 1.0001

    def test_gamma_shape_fitted(self, q3_dist):
        shape = q3_dist.gamma_shape()
        assert shape is not None
        assert shape > 0

    def test_describe_mentions_key_stats(self, q3_dist):
        text = q3_dist.describe()
        assert "Q3" in text and "sample=2000" in text


class TestDeterminism:
    def test_same_seed_same_distribution(self, catalog):
        kwargs = dict(
            query_name="Q3", allow_cross_products=False, sample_size=200, seed=7
        )
        a = sample_cost_distribution(catalog, tpch_query("Q3").sql, **kwargs)
        b = sample_cost_distribution(catalog, tpch_query("Q3").sql, **kwargs)
        assert a.scaled_costs == b.scaled_costs

    def test_different_seed_differs(self, catalog):
        a = sample_cost_distribution(
            catalog, tpch_query("Q3").sql, "Q3", sample_size=200, seed=1
        )
        b = sample_cost_distribution(
            catalog, tpch_query("Q3").sql, "Q3", sample_size=200, seed=2
        )
        assert a.scaled_costs != b.scaled_costs


class TestFromResult:
    def test_distribution_from_existing_result(self, catalog):
        from repro.optimizer.optimizer import Optimizer, OptimizerOptions

        result = Optimizer(
            catalog, OptimizerOptions(allow_cross_products=False)
        ).optimize_sql(tpch_query("Q3").sql)
        dist = distribution_from_result(result, "Q3", sample_size=100, seed=0)
        assert dist.total_plans > 0
        assert dist.best_cost == result.best_cost

    def test_gamma_shape_none_for_degenerate(self):
        dist = CostDistribution(
            query_name="x",
            allow_cross_products=False,
            total_plans=1,
            best_cost=1.0,
            scaled_costs=[1.0, 1.0, 1.0],
        )
        assert dist.gamma_shape() is None
