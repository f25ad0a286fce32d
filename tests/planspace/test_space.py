"""Tests for the PlanSpace facade."""

import pytest

from tests.planspace.materialized.space import PlanSpace


class TestConstruction:
    def test_from_memo(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        assert space.count() == 44

    def test_from_result_honours_order_by(self, catalog):
        from repro.optimizer.optimizer import Optimizer, OptimizerOptions
        from repro.workloads.tpch_queries import tpch_query

        result = Optimizer(
            catalog, OptimizerOptions(allow_cross_products=False)
        ).optimize_sql(tpch_query("Q3").sql + " ORDER BY revenue")
        space = PlanSpace.from_result(result)
        # Every plan's root must deliver the ORDER BY.
        for _, plan in space.enumerate(stop=25):
            assert plan.op.delivered_order()[: len(result.root_order)] == (
                result.root_order
            )

    def test_redundant_sorts_flag_shrinks_space(self, paper_example):
        paper_semantics = PlanSpace.from_memo(
            paper_example.memo, include_redundant_sorts=True
        )
        restricted = PlanSpace.from_memo(
            paper_example.memo, include_redundant_sorts=False
        )
        assert restricted.count() < paper_semantics.count()


class TestFacadeMethods:
    def test_len_matches_count(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        assert len(space) == space.count() == 44

    def test_operator_counts_exposed(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        counts = space.operator_counts()
        assert counts[paper_example.paper_ids["7.7"]] == 22

    def test_describe(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        text = space.describe()
        assert "N = 44" in text

    def test_all_plans_limit(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        assert len(space.all_plans(limit=10)) == 10
        assert len(space.all_plans()) == 44

    def test_sampler_shared_unranker(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        sampler = space.sampler(seed=0)
        assert sampler.total == 44

    def test_unrank_with_trace(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        plan, trace = space.unrank_with_trace(13)
        assert trace.rank == 13
        assert trace.operator_ids()[0] == plan.expr_id

    def test_sample_deterministic(self, paper_example):
        space = PlanSpace.from_memo(paper_example.memo)
        a = [p.fingerprint() for p in space.sample(10, seed=4)]
        b = [p.fingerprint() for p in space.sample(10, seed=4)]
        assert a == b
