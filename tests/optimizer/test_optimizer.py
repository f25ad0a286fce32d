"""Tests for the optimizer facade."""

import pytest

from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.planspace.space import PlanSpace
from repro.workloads.tpch_queries import tpch_query
from tests.optimizer.reference_transformation import (
    RuleSet,
    TransformationExplorer,
)
from tests.reference_pipeline import optimize_reference

Q3 = tpch_query("Q3").sql


class TestPipeline:
    def test_timings_recorded(self, q3_result):
        for phase in ("setup", "explore", "implement", "annotate", "bestplan"):
            assert phase in q3_result.timings
            assert q3_result.timings[phase] >= 0

    def test_all_groups_annotated(self, q3_result):
        assert all(g.cardinality is not None for g in q3_result.memo.groups)

    def test_explain_mentions_cost(self, q3_result):
        text = q3_result.explain()
        assert "best cost" in text

    def test_best_plan_has_cardinalities(self, q3_result):
        assert all(n.cardinality > 0 for n in q3_result.best_plan.iter_nodes())


class TestOptions:
    def test_cross_products_inflate_space(self, catalog):
        no_cross = Optimizer(
            catalog, OptimizerOptions(allow_cross_products=False)
        ).optimize_sql(Q3)
        with_cross = Optimizer(
            catalog, OptimizerOptions(allow_cross_products=True)
        ).optimize_sql(Q3)
        assert (
            PlanSpace.from_result(with_cross).count()
            > PlanSpace.from_result(no_cross).count()
        )

    def test_exploration_strategies_agree_on_count(self, catalog):
        """The optimizer's explorer against the rule-engine oracle."""
        options = OptimizerOptions(allow_cross_products=False)
        enum_result = Optimizer(catalog, options).optimize_sql(Q3)
        rule_result = optimize_reference(
            catalog, Q3, options, explorer=TransformationExplorer()
        )
        assert (
            PlanSpace.from_result(enum_result).count()
            == PlanSpace.from_result(rule_result).count()
        )
        assert enum_result.best_cost == pytest.approx(rule_result.best_cost)

    def test_restricted_rules_shrink_space(self, catalog):
        options = OptimizerOptions(allow_cross_products=False)
        full = optimize_reference(
            catalog, Q3, options, explorer=TransformationExplorer()
        )
        commute_only = optimize_reference(
            catalog,
            Q3,
            options,
            explorer=TransformationExplorer(RuleSet(True, False, False, False)),
        )
        assert (
            PlanSpace.from_result(commute_only).count()
            <= PlanSpace.from_result(full).count()
        )

    def test_same_input_same_result(self, catalog):
        options = OptimizerOptions(allow_cross_products=False)
        a = Optimizer(catalog, options).optimize_sql(Q3)
        b = Optimizer(catalog, options).optimize_sql(Q3)
        assert a.best_cost == b.best_cost
        assert (
            PlanSpace.from_result(a).count() == PlanSpace.from_result(b).count()
        )

    def test_default_options(self, catalog):
        result = Optimizer(catalog).optimize_sql(Q3)
        assert result.options.allow_cross_products is False


class TestOrderBy:
    def test_root_order_propagated(self, catalog):
        result = Optimizer(
            catalog, OptimizerOptions(allow_cross_products=False)
        ).optimize_sql(Q3 + " ORDER BY revenue")
        assert result.root_order
        assert result.best_plan.op.name == "Sort"
