"""Tests for unranking/ranking (paper Section 3.3 + appendix).

The bijection property — every rank yields a distinct valid plan and
ranking inverts unranking — is the paper's central claim.
"""

import pytest

from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.executor.executor import PlanExecutor
from repro.testing.diff import canonical_result
from tests.planspace.materialized.links import materialize_links
from tests.planspace.materialized.unranking import Unranker


@pytest.fixture
def unranker(paper_example):
    return Unranker(materialize_links(paper_example.memo))


class TestCardinalityAnnotations:
    def test_unranked_plans_carry_real_estimates(self, unranker):
        for node in unranker.unrank(13).iter_nodes():
            assert node.cardinality > 0.0

    def test_unannotated_memo_fails_loudly(self, paper_example):
        """No silent cardinality=0.0 fallback: a memo that reaches
        unranking without annotations is a pipeline bug."""
        memo = paper_example.memo
        saved = [group.cardinality for group in memo.groups]
        try:
            memo.groups[0].cardinality = None
            stripped = Unranker(materialize_links(memo))
            with pytest.raises(PlanSpaceError, match="cardinality"):
                stripped.unrank(13)
        finally:
            for group, cardinality in zip(memo.groups, saved):
                group.cardinality = cardinality


class TestPaperAppendix:
    """Unranking rank 13 from the root group, as in the paper's appendix."""

    def test_root_choice_and_local_rank(self, unranker, paper_example):
        plan, trace = None, None
        plan = unranker.unrank(13)
        _, trace = unranker.unrank_with_trace(13)
        root_step = trace.steps[0]
        # k = 1: the first root operator (7.7) covers rank 13; r_l = 13.
        assert root_step.operator_id == paper_example.paper_ids["7.7"]
        assert root_step.local_rank == 13

    def test_appendix_recurrence_values(self, unranker):
        _, trace = unranker.unrank_with_trace(13)
        root_step = trace.steps[0]
        # R(2) = 13, R(1) = 13 mod B(1) = 1; s(2) = floor(13/2) = 6, s(1) = 1.
        assert root_step.remainders == (1, 13)
        assert root_step.sub_ranks == (1, 6)

    def test_appendix_child_choices(self, unranker, paper_example):
        plan, trace = unranker.unrank_with_trace(13)
        ids = trace.operator_ids()
        # Child 1 unranks (1, group C): second scan 4.3.
        assert paper_example.paper_ids["4.3"] in ids
        # Child 2 unranks (6, group AB): falls within 3.3's 8 plans.
        assert paper_example.paper_ids["3.3"] in ids

    def test_plan_operators_preorder(self, unranker, paper_example):
        plan = unranker.unrank(13)
        ids = plan.operator_ids()
        assert ids[0] == paper_example.paper_ids["7.7"]
        assert len(ids) == plan.size()

    def test_all_44_plans_execute_to_the_same_rows(self, unranker, paper_example):
        """Section 4 on the paper's own example: every plan is executable
        and returns the same result."""
        executor = PlanExecutor(paper_example.database)
        results = [
            canonical_result(result.columns, result.rows)
            for result in (
                executor.execute(unranker.unrank(rank))
                for rank in range(unranker.total)
            )
        ]
        assert len(results) == 44
        assert all(result == results[0] for result in results)


class TestBijection:
    def test_all_ranks_distinct_and_valid(self, unranker):
        seen = set()
        for rank in range(unranker.total):
            plan = unranker.unrank(rank)
            fingerprint = plan.fingerprint()
            assert fingerprint not in seen
            seen.add(fingerprint)
        assert len(seen) == 44

    def test_rank_inverts_unrank(self, unranker):
        for rank in range(unranker.total):
            assert unranker.rank(unranker.unrank(rank)) == rank

    def test_out_of_range_rejected(self, unranker):
        with pytest.raises(RankOutOfRangeError):
            unranker.unrank(44)
        with pytest.raises(RankOutOfRangeError):
            unranker.unrank(-1)

    def test_foreign_plan_rejected(self, unranker, q3_space):
        foreign = q3_space.unrank(0)
        with pytest.raises(PlanSpaceError):
            unranker.rank(foreign)


class TestBijectionOnRealQuery:
    def test_random_ranks_roundtrip_q3(self, q3_space):
        import random

        rng = random.Random(7)
        total = q3_space.count()
        for _ in range(200):
            rank = rng.randrange(total)
            plan = q3_space.unrank(rank)
            assert q3_space.rank(plan) == rank

    def test_random_ranks_roundtrip_q5(self, q5_space):
        import random

        rng = random.Random(11)
        total = q5_space.count()
        for _ in range(50):
            rank = rng.randrange(total)
            plan = q5_space.unrank(rank)
            assert q5_space.rank(plan) == rank

    def test_boundary_ranks(self, q5_space):
        total = q5_space.count()
        for rank in (0, 1, total // 2, total - 2, total - 1):
            assert q5_space.rank(q5_space.unrank(rank)) == rank

    def test_plans_are_rooted_in_root_group(self, q3_space):
        root_gid = q3_space.linked.memo.root_group_id
        for rank in (0, 1, 2, 100, 1000):
            assert q3_space.unrank(rank).group_id == root_gid


class TestMergeJoinPlansRespectProperties:
    def test_merge_join_children_sorted(self, q3_space):
        """Every merge join in every sampled plan must sit on children
        that deliver the required key order — the Section 3.1 guarantee."""
        from repro.algebra.physical import MergeJoin
        from repro.algebra.properties import order_satisfies

        for plan in q3_space.sample(300, seed=5):
            for node in plan.iter_nodes():
                if isinstance(node.op, MergeJoin):
                    for pos, child in enumerate(node.children):
                        required = node.op.required_child_order(pos)
                        assert order_satisfies(
                            child.op.delivered_order(), required
                        )
