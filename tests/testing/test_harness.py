"""Tests for the plan-validation harness (Section 4)."""

import pytest

from repro.api import Session
from repro.optimizer.optimizer import OptimizerOptions
from repro.testing.faults import DroppedRowExecutor
from repro.testing.harness import PlanValidator
from repro.workloads.synthetic import chain_query, star_query
from repro.workloads.tpch_queries import tpch_query


@pytest.fixture(scope="module")
def validator(micro_db):
    return PlanValidator(
        micro_db, OptimizerOptions(allow_cross_products=False)
    )


# micro_db is session-scoped in the main conftest; re-export it here at
# module scope for the fixture above.
@pytest.fixture(scope="module")
def micro_db():
    from repro.storage.datagen import generate_tpch

    return generate_tpch(seed=0)


class TestExhaustiveValidation:
    def test_two_table_join_all_plans_agree(self, validator):
        sql = (
            "SELECT n.n_name, r.r_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey"
        )
        report = validator.validate_sql(sql, max_exhaustive=10_000)
        assert report.exhaustive
        assert report.executed_plans == report.total_plans
        assert report.all_equal

    def test_aggregate_query_all_plans_agree(self, validator):
        sql = (
            "SELECT r.r_name, COUNT(*) AS n FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey GROUP BY r.r_name"
        )
        report = validator.validate_sql(sql, max_exhaustive=10_000)
        assert report.exhaustive and report.all_equal

    def test_order_by_respected_in_comparison(self, validator):
        sql = (
            "SELECT n.n_name, r.r_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey ORDER BY n_name"
        )
        report = validator.validate_sql(sql, max_exhaustive=10_000)
        assert report.all_equal


class TestSampledValidation:
    def test_q3_sampled(self, validator):
        report = validator.validate_sql(
            tpch_query("Q3").sql, max_exhaustive=100, sample_size=80, seed=1
        )
        assert not report.exhaustive
        assert report.executed_plans == 80
        assert report.all_equal

    def test_q10_sampled(self, validator):
        report = validator.validate_sql(
            tpch_query("Q10").sql, max_exhaustive=100, sample_size=40, seed=2
        )
        assert report.all_equal

    def test_report_render(self, validator):
        report = validator.validate_sql(
            tpch_query("Q3").sql, max_exhaustive=10, sample_size=5, seed=0
        )
        text = report.render()
        assert "validated 5" in text
        assert "identical results" in text


class TestCrossProductSpaces:
    def test_cross_product_plans_agree(self, micro_db):
        validator = PlanValidator(
            micro_db, OptimizerOptions(allow_cross_products=True)
        )
        sql = (
            "SELECT n.n_name, r.r_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey"
        )
        report = validator.validate_sql(sql, max_exhaustive=0, sample_size=60)
        assert report.all_equal


class TestUseplanNumbering:
    """A reported rank is the plan ``OPTION (USEPLAN rank)`` executes.

    A heuristic-tier result's memo holds one greedy join order; the
    harness must still number the query's whole space, or its "replay
    with USEPLAN n" advice replays a different plan."""

    @pytest.mark.parametrize(
        "workload",
        [star_query(6, rows=6, seed=0), chain_query(5, rows=6, seed=0)],
        ids=["star6", "chain5"],
    )
    def test_degraded_result_is_numbered_like_useplan(self, workload):
        session = Session(workload.database)
        result = session.optimize(workload.sql, deadline_s=1e-6)
        assert result.engine == "heuristic"
        validator = PlanValidator(
            workload.database,
            session.options,
            executor=DroppedRowExecutor(workload.database),
        )
        report = validator.validate_result(
            result, sql=workload.sql, max_exhaustive=0, sample_size=5, seed=1
        )
        assert report.total_plans == session.count_plans(workload.sql)
        assert report.mismatches
        space = session.plan_space(workload.sql)
        for mismatch in report.mismatches:
            assert mismatch.plan.render() == space.unrank(mismatch.rank).render()
