"""Tests for best-plan extraction.

The crucial property: the DP optimum must equal the true minimum over the
*entire* enumerated plan space — checked here by brute force on spaces
small enough to enumerate.
"""

import pytest

from repro.algebra.expressions import ColumnId
from repro.algebra.physical import Sort
from repro.errors import OptimizerError
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.planspace.space import PlanSpace
from tests.optimizer.reference_bestplan import BestPlanSearch


def _optimize(catalog, sql, **kwargs):
    return Optimizer(catalog, OptimizerOptions(**kwargs)).optimize_sql(sql)


def _search(result) -> ColumnarBestPlanSearch:
    return ColumnarBestPlanSearch(result.memo.columnar, result.cost_model)


JOIN2 = (
    "SELECT n.n_name FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey"
)


class TestAgainstBruteForce:
    def test_best_equals_global_minimum_join2(self, catalog):
        result = _optimize(catalog, JOIN2, allow_cross_products=False)
        space = PlanSpace.from_result(result)
        costs = [
            result.cost_model.plan_cost(plan) for _, plan in space.enumerate()
        ]
        assert result.best_cost == pytest.approx(min(costs))

    def test_best_equals_global_minimum_with_order_by(self, catalog):
        sql = JOIN2 + " ORDER BY n_name"
        result = _optimize(catalog, sql, allow_cross_products=False)
        space = PlanSpace.from_result(result)
        costs = [
            result.cost_model.plan_cost(plan) for _, plan in space.enumerate()
        ]
        assert result.best_cost == pytest.approx(min(costs))

    def test_best_plan_is_member_of_space(self, catalog):
        result = _optimize(catalog, JOIN2, allow_cross_products=False)
        space = PlanSpace.from_result(result)
        rank = space.rank(result.best_plan)
        assert 0 <= rank < space.count()

    def test_best_cost_matches_plan_cost(self, catalog):
        result = _optimize(catalog, JOIN2, allow_cross_products=False)
        assert result.cost_model.plan_cost(result.best_plan) == pytest.approx(
            result.best_cost
        )


class TestRequirements:
    def test_order_requirement_changes_root(self, catalog):
        unordered = _optimize(catalog, JOIN2, allow_cross_products=False)
        ordered = _optimize(
            catalog, JOIN2 + " ORDER BY n_name", allow_cross_products=False
        )
        assert ordered.best_cost >= unordered.best_cost
        assert isinstance(ordered.best_plan.op, Sort)

    def test_unsatisfiable_requirement_detected(self, catalog, q3_result):
        """The DP solves the states the store collected; an order nobody
        registered is refused, not silently served unordered."""
        search = _search(q3_result).run()
        bogus = (ColumnId("zz", "zz"),)
        with pytest.raises(OptimizerError, match="root order"):
            search.best_plan(bogus)

    def test_missing_cardinality_raises(self, catalog, q3_result):
        saved = q3_result.memo.groups[0].cardinality
        q3_result.memo.groups[0].cardinality = None
        try:
            with pytest.raises(OptimizerError, match="no cardinality"):
                _search(q3_result)
        finally:
            q3_result.memo.groups[0].cardinality = saved

    def test_find_best_plan_requires_root(self, catalog, q3_result):
        search = _search(q3_result).run()
        memo = q3_result.memo
        saved, memo.root_group_id = memo.root_group_id, None
        try:
            with pytest.raises(OptimizerError, match="no root group"):
                search.best_plan(q3_result.root_order)
        finally:
            memo.root_group_id = saved


class TestMemoization:
    def test_cache_reused(self, q3_result):
        """Extraction reads the resolved tables: a second ``best_plan``
        re-derives nothing and returns the same plan."""
        search = _search(q3_result).run()
        first, first_cost = search.best_plan(q3_result.root_order)
        winners = dict(search._state_winner)
        second, second_cost = search.best_plan(q3_result.root_order)
        assert first.render() == second.render() == q3_result.best_plan.render()
        assert first_cost == second_cost == q3_result.best_cost
        assert search._state_winner == winners


class TestGroupPlans:
    def test_group_plan_is_each_groups_optimum(self, q3_result):
        """``group_plan`` (the ledger oracle's accessor) returns, for
        every group, the subplan and cost the oracle search picks."""
        search = _search(q3_result).run()
        oracle = BestPlanSearch(q3_result.memo, q3_result.cost_model)
        for group in q3_result.memo.groups:
            plan = search.group_plan(group.gid)
            best = oracle.best(group.gid, ())
            assert plan.render() == best.plan.render()
            assert search.group_cost(group.gid) == best.cost
