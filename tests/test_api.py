"""Tests for the Session facade (including OPTION (USEPLAN n))."""

import pytest

from repro.api import Session
from repro.errors import PlanSpaceError
from repro.optimizer.optimizer import OptimizerOptions
from repro.testing.diff import canonical_rows

SQL = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)


@pytest.fixture(scope="module")
def session():
    return Session.tpch(seed=0, options=OptimizerOptions(allow_cross_products=False))


class TestExecute:
    def test_plain_execution(self, session):
        result = session.execute(SQL)
        assert result.columns == ["n_name", "r_name"]
        assert len(result.rows) == 25

    def test_useplan_forces_specific_plan(self, session):
        detailed = session.execute_detailed(SQL + " OPTION (USEPLAN 5)")
        assert detailed.used_rank == 5

    def test_useplan_results_match_default(self, session):
        reference = canonical_rows(session.execute(SQL).rows)
        for rank in (0, 3, 17):
            rows = canonical_rows(
                session.execute(f"{SQL} OPTION (USEPLAN {rank})").rows
            )
            assert rows == reference

    def test_useplan_out_of_range(self, session):
        with pytest.raises(PlanSpaceError):
            session.execute(SQL + " OPTION (USEPLAN 99999999999)")

    def test_default_plan_is_optimizers(self, session):
        detailed = session.execute_detailed(SQL)
        assert detailed.used_rank is None
        assert detailed.optimization.best_plan is not None

    def test_order_by_execution(self, session):
        result = session.execute(SQL + " ORDER BY n_name")
        names = [row[0] for row in result.rows]
        assert names == sorted(names)


class TestIteratePlans:
    def test_explicit_ranks(self, session):
        results = dict(session.iterate_plans(SQL, ranks=[0, 1, 2]))
        assert set(results) == {0, 1, 2}

    def test_sampled_iteration(self, session):
        results = list(session.iterate_plans(SQL, sample=5, seed=3))
        assert len(results) == 5

    @pytest.mark.parametrize("implicit", [False, True])
    def test_negative_sample_rejected(self, session, implicit):
        with pytest.raises(ValueError, match="non-negative"):
            list(session.iterate_plans(SQL, sample=-1, implicit=implicit))

    def test_full_enumeration_when_unspecified(self, session):
        space = session.plan_space(SQL)
        results = list(session.iterate_plans(SQL))
        assert len(results) == space.count()

    def test_all_iterated_plans_agree(self, session):
        reference = None
        for _, result in session.iterate_plans(SQL, sample=10, seed=1):
            rows = canonical_rows(result.rows)
            if reference is None:
                reference = rows
            assert rows == reference


class TestIntrospection:
    def test_plan_space(self, session):
        space = session.plan_space(SQL)
        assert space.count() > 100

    def test_explain(self, session):
        text = session.explain(SQL)
        assert "best cost" in text

    def test_optimize_returns_result(self, session):
        result = session.optimize(SQL)
        assert result.memo.root_group_id is not None

    def test_tpch_constructor_rows_override(self):
        session = Session.tpch(seed=1, rows={"lineitem": 12})
        assert len(session.database.table("lineitem")) == 12


class TestSampledOptimize:
    def test_sampled_method_returns_compatible_result(self, session):
        result = session.optimize(SQL, method="sampled", samples=40, seed=0)
        assert result.best_plan is not None
        assert result.best_cost > 0
        assert "best cost" in result.explain()
        assert result.samples == 40

    def test_sampled_cost_bounded_by_exhaustive(self, session):
        exhaustive = session.optimize(SQL)
        sampled = session.optimize(SQL, method="sampled", samples=60, seed=0)
        assert sampled.best_cost >= exhaustive.best_cost - 1e-9
        # the two-table space is tiny: recombination finds the optimum
        assert sampled.best_cost == pytest.approx(exhaustive.best_cost)

    def test_sampled_plan_is_executable(self, session):
        sampled = session.optimize(SQL, method="sampled", samples=30, seed=1)
        rows = canonical_rows(session.executor.execute(sampled.best_plan).rows)
        assert rows == canonical_rows(session.execute(SQL).rows)

    def test_sampled_budget_keyword(self, session):
        result = session.optimize(
            SQL, method="sampled", samples=10_000, budget_s=1e-9, seed=0
        )
        assert result.stopped_because == "budget"

    def test_unknown_method_rejected(self, session):
        with pytest.raises(PlanSpaceError):
            session.optimize(SQL, method="genetic")

    def test_exhaustive_rejects_sampling_kwargs(self, session):
        with pytest.raises(PlanSpaceError):
            session.optimize(SQL, samples=10)


class TestCostDistribution:
    def test_memo_free_distribution(self, session):
        dist = session.cost_distribution(SQL, sample_size=80, seed=0)
        assert dist.sample_size == 80
        assert min(dist.scaled_costs) >= 1.0 - 1e-9

    def test_materialized_matches_memo_free_scaling(self, session):
        materialized = session.cost_distribution(
            SQL, sample_size=80, seed=0, materialized=True
        )
        memo_free = session.cost_distribution(SQL, sample_size=80, seed=0)
        # tiny space: the recombined best equals the true optimum, so the
        # same seed yields identical scaled costs through either engine
        assert memo_free.scaled_costs == pytest.approx(
            materialized.scaled_costs, rel=1e-12
        )
