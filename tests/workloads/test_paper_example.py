"""Tests for the reconstructed paper example itself."""

import pytest

from tests.planspace.materialized.paper_example import (
    EXPECTED_COUNTS,
    EXPECTED_TOTAL,
    build_paper_example,
)


class TestStructure:
    def test_groups(self, paper_example):
        # Scan A, Scan B, A join B, Scan C, root.
        assert len(paper_example.memo.groups) == 5

    def test_paper_ids_complete(self, paper_example):
        assert set(paper_example.paper_ids) == set(EXPECTED_COUNTS)

    def test_sort_only_in_group_a(self, paper_example):
        sorts = [
            e
            for g in paper_example.memo.groups
            for e in g.exprs
            if e.is_enforcer
        ]
        assert len(sorts) == 1
        group = paper_example.memo.group(sorts[0].group_id)
        assert group.relations == frozenset(["a"])

    def test_root_group_set(self, paper_example):
        root = paper_example.memo.root_group()
        assert root.relations == frozenset(["a", "b", "c"])

    def test_expected_total_consistent(self):
        assert EXPECTED_TOTAL == (
            EXPECTED_COUNTS["7.7"] + EXPECTED_COUNTS["7.8"]
        )


class TestData:
    def test_tables_loaded(self, paper_example):
        for name in ("a", "b", "c"):
            assert len(paper_example.database.table(name)) == 8

    def test_deterministic(self):
        a = build_paper_example(rows=5, seed=3)
        b = build_paper_example(rows=5, seed=3)
        assert a.database.table("a").rows == b.database.table("a").rows

    def test_row_count_parameter(self):
        example = build_paper_example(rows=3)
        assert len(example.database.table("b")) == 3

    def test_cardinalities_filled(self, paper_example):
        assert all(
            g.cardinality is not None for g in paper_example.memo.groups
        )

    def test_joins_produce_rows(self, paper_example):
        from repro.executor import execute_plan
        from tests.planspace.materialized.space import PlanSpace

        space = PlanSpace.from_memo(paper_example.memo)
        result = execute_plan(space.unrank(0), paper_example.database)
        assert len(result.rows) > 0
