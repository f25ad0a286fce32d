"""Tests for the Table 1 reproduction harness."""

import pytest

from repro.experiments.distributions import CostDistribution
from repro.experiments.table1 import (
    PAPER_TABLE1,
    TABLE1_QUERIES,
    reproduce_table1,
    render_table1,
    row_from_distribution,
)
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.workloads.tpch_queries import tpch_query

#: The measured "# of plans" column: (query, cross products) -> N.
MEASURED_PLANS = {
    ("Q5", False): 140_951_971_740_672,
    ("Q7", False): 150_537_513_609_984,
    ("Q8", False): 573_618_354_504_634_368,
    ("Q9", False): 9_281_551_627_776,
    ("Q5", True): 21_037_435_312_880_256,
    ("Q7", True): 4_604_571_326_581_440,
    ("Q8", True): 284_140_946_585_379_031_049_856,
    ("Q9", True): 1_534_716_178_907_904,
}


@pytest.fixture(scope="module")
def catalog():
    from repro.catalog.tpch import tpch_catalog

    return tpch_catalog()


class TestPaperReference:
    def test_eight_rows(self):
        assert len(PAPER_TABLE1) == 8

    def test_row_order_matches_paper(self):
        assert [r.query for r in PAPER_TABLE1] == [
            "Q5", "Q7", "Q8", "Q9", "Q5", "Q7", "Q8", "Q9",
        ]
        assert [r.cross_products for r in PAPER_TABLE1[:4]] == [False] * 4

    def test_q8_dominates_both_spaces(self):
        no_cross = {r.query: r.plans for r in PAPER_TABLE1 if not r.cross_products}
        with_cross = {r.query: r.plans for r in PAPER_TABLE1 if r.cross_products}
        assert no_cross["Q8"] == max(no_cross.values())
        assert with_cross["Q8"] == max(with_cross.values())

    def test_cross_products_inflate_every_space(self):
        no_cross = {r.query: r.plans for r in PAPER_TABLE1 if not r.cross_products}
        with_cross = {r.query: r.plans for r in PAPER_TABLE1 if r.cross_products}
        for query in no_cross:
            assert with_cross[query] > no_cross[query]


class TestMeasuredTable:
    def test_small_scale_run(self, catalog):
        # Use Q5 only and a small sample to keep the test quick; the full
        # table is produced by the benchmark harness.
        distributions = reproduce_table1(
            catalog, sample_size=300, seed=0, queries=("Q5",)
        )
        assert len(distributions) == 2  # both cross-product policies
        row = row_from_distribution(distributions[0])
        assert row.query == "Q5" and not row.cross_products
        assert row.plans > 1_000_000
        assert row.min_cost >= 1.0

    def test_cross_space_larger(self, catalog):
        distributions = reproduce_table1(
            catalog, sample_size=100, seed=0, queries=("Q5",)
        )
        no_cross, with_cross = distributions
        assert with_cross.total_plans > no_cross.total_plans

    def test_render_includes_paper_rows(self, catalog):
        distributions = reproduce_table1(
            catalog, sample_size=100, seed=0, queries=("Q5",)
        )
        text = render_table1(distributions)
        assert "68,572,049" in text  # the paper's Q5 count
        assert "no-cross" in text and "+cross" in text

    def test_render_without_paper(self):
        dist = CostDistribution(
            query_name="Q5",
            allow_cross_products=False,
            total_plans=123,
            best_cost=1.0,
            scaled_costs=[1.0, 2.0, 3.0],
        )
        text = render_table1([dist], show_paper=False)
        assert "123" in text
        assert "68,572,049" not in text


class TestMeasuredShape:
    """The paper's headline observations on the measured table: Q8 has
    the largest space under both policies, cross products inflate every
    space, and each sampled distribution is right-skewed with a share of
    plans within 10x of the optimum."""

    def test_plan_counts(self, catalog):
        measured = {
            (name, cross): ImplicitPlanSpace.from_sql(
                catalog,
                tpch_query(name).sql,
                options=OptimizerOptions(allow_cross_products=cross),
            ).count()
            for name, cross in MEASURED_PLANS
        }
        assert measured == MEASURED_PLANS
        for cross in (False, True):
            plans = {name: measured[(name, cross)] for name in TABLE1_QUERIES}
            assert plans["Q8"] == max(plans.values())
        for name in TABLE1_QUERIES:
            assert measured[(name, True)] > measured[(name, False)]

    @pytest.mark.parametrize(
        "cross",
        [False, pytest.param(True, marks=pytest.mark.slow)],
        ids=["no-cross", "cross"],
    )
    @pytest.mark.parametrize("name", TABLE1_QUERIES)
    def test_sampled_row(self, cost_distribution, name, cross):
        dist = cost_distribution(name, cross)
        row = row_from_distribution(dist)
        assert row.plans == MEASURED_PLANS[(name, cross)]
        assert row.min_cost >= 1.0
        assert dist.skewness() > 0
        if not cross:
            assert row.within_10x > 0.001
