"""Tests for link materialization (paper Section 3.1)."""

import pytest

from repro.algebra.physical import MergeJoin, Sort
from repro.errors import PlanSpaceError
from repro.memo.memo import Memo
from tests.planspace.materialized.links import materialize_links


class TestPaperExampleLinks:
    def test_all_physical_operators_linked(self, paper_example):
        space = materialize_links(paper_example.memo)
        assert len(space.operators) == 11  # 10 scans/joins + 1 sort

    def test_hash_join_links_to_all_group_members(self, paper_example):
        space = materialize_links(paper_example.memo)
        gid, lid = map(int, paper_example.paper_ids["3.3"].split("."))
        node = space.operator(gid, lid)
        # Child 1 (group A): TableScan, IdxScan, Sort -> 3 alternatives.
        assert len(node.alternatives[0]) == 3
        # Child 2 (group B): both scans.
        assert len(node.alternatives[1]) == 2

    def test_merge_join_filters_by_order(self, paper_example):
        space = materialize_links(paper_example.memo)
        gid, lid = map(int, paper_example.paper_ids["3.4"].split("."))
        node = space.operator(gid, lid)
        assert isinstance(node.expr.op, MergeJoin)
        # Child 1 (group B): only the sorted index scan.
        assert len(node.alternatives[0]) == 1
        # Child 2 (group A): index scan + Sort enforcer.
        assert len(node.alternatives[1]) == 2

    def test_sort_links_to_non_enforcers_only(self, paper_example):
        space = materialize_links(paper_example.memo)
        gid, lid = map(int, paper_example.paper_ids["1.4"].split("."))
        sort_node = space.operator(gid, lid)
        assert isinstance(sort_node.expr.op, Sort)
        alternatives = sort_node.alternatives[0]
        assert len(alternatives) == 2  # both scans, including the sorted one
        assert all(not a.expr.is_enforcer for a in alternatives)

    def test_redundant_sorts_can_be_excluded(self, paper_example):
        space = materialize_links(
            paper_example.memo, include_redundant_sorts=False
        )
        gid, lid = map(int, paper_example.paper_ids["1.4"].split("."))
        sort_node = space.operator(gid, lid)
        # Only the unsorted TableScan remains a child alternative.
        assert len(sort_node.alternatives[0]) == 1

    def test_roots_are_root_group_operators(self, paper_example):
        space = materialize_links(paper_example.memo)
        root_gid = paper_example.memo.root_group_id
        assert all(n.expr.group_id == root_gid for n in space.roots)
        assert len(space.roots) == 2


class TestRootRequirements:
    def test_root_requirement_filters_roots(self, q3_result, catalog):
        from repro.optimizer.optimizer import Optimizer, OptimizerOptions
        from repro.workloads.tpch_queries import tpch_query

        ordered = Optimizer(
            catalog, OptimizerOptions(allow_cross_products=False)
        ).optimize_sql(tpch_query("Q3").sql + " ORDER BY revenue")
        space = materialize_links(ordered.memo, root_required=ordered.root_order)
        assert all(
            n.expr.op.delivered_order()[: len(ordered.root_order)]
            == ordered.root_order
            for n in space.roots
        )

    def test_unsatisfiable_root_requirement(self, paper_example):
        from repro.algebra.expressions import ColumnId

        with pytest.raises(PlanSpaceError):
            materialize_links(
                paper_example.memo, root_required=(ColumnId("zz", "zz"),)
            )

    def test_memo_without_root_rejected(self):
        with pytest.raises(PlanSpaceError):
            materialize_links(Memo())


class TestLinkedSpaceApi:
    def test_operator_lookup_error(self, paper_example):
        space = materialize_links(paper_example.memo)
        with pytest.raises(PlanSpaceError):
            space.operator(99, 99)

    def test_group_operators(self, paper_example):
        space = materialize_links(paper_example.memo)
        root_gid = paper_example.memo.root_group_id
        ops = space.group_operators(root_gid)
        assert len(ops) == 2

    def test_render_mentions_children(self, paper_example):
        space = materialize_links(paper_example.memo)
        gid, lid = map(int, paper_example.paper_ids["3.3"].split("."))
        text = space.operator(gid, lid).render()
        assert "child 1" in text and "child 2" in text
