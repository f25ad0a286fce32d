"""Tests for JSON export."""

import json

from tests.planspace.materialized.export import (
    memo_to_dict,
    plan_to_dict,
    space_to_dict,
    to_json,
)
from tests.planspace.materialized.links import materialize_links
from tests.planspace.materialized.counting import annotate_counts


class TestMemoExport:
    def test_structure(self, paper_example):
        data = memo_to_dict(paper_example.memo)
        assert data["group_count"] == len(paper_example.memo.groups)
        assert data["root_group"] == paper_example.memo.root_group_id
        first = data["groups"][0]
        assert {"gid", "relations", "cardinality", "expressions"} <= set(first)

    def test_expression_kinds(self, paper_example):
        data = memo_to_dict(paper_example.memo)
        kinds = {
            e["kind"] for g in data["groups"] for e in g["expressions"]
        }
        assert kinds == {"logical", "physical"}

    def test_enforcers_marked(self, paper_example):
        data = memo_to_dict(paper_example.memo)
        enforcers = [
            e
            for g in data["groups"]
            for e in g["expressions"]
            if e["enforcer"]
        ]
        assert len(enforcers) == 1
        assert "Sort" in enforcers[0]["operator"]

    def test_json_serializable(self, paper_example):
        text = to_json(memo_to_dict(paper_example.memo))
        assert json.loads(text)["group_count"] > 0


class TestSpaceExport:
    def test_counts_included(self, paper_example):
        space = materialize_links(paper_example.memo)
        annotate_counts(space)
        data = space_to_dict(space)
        assert data["total"] == 44
        by_id = {op["id"]: op for op in data["operators"]}
        root_id = paper_example.paper_ids["7.7"]
        assert by_id[root_id]["count"] == 22
        assert by_id[root_id]["child_sums"] == [2, 11]

    def test_alternatives_are_ids(self, paper_example):
        space = materialize_links(paper_example.memo)
        annotate_counts(space)
        data = space_to_dict(space)
        by_id = {op["id"]: op for op in data["operators"]}
        root = by_id[paper_example.paper_ids["7.7"]]
        assert len(root["alternatives"]) == 2
        assert all(isinstance(i, str) for alt in root["alternatives"] for i in alt)


class TestPlanExport:
    def test_nested_structure(self, q3_space):
        plan = q3_space.unrank(0)
        data = plan_to_dict(plan)
        assert data["id"] == plan.expr_id

        def count_nodes(node):
            return 1 + sum(count_nodes(c) for c in node["children"])

        assert count_nodes(data) == plan.size()

    def test_file_output(self, q3_space, tmp_path):
        plan = q3_space.unrank(5)
        path = tmp_path / "plan.json"
        to_json(plan_to_dict(plan), path=str(path))
        assert json.loads(path.read_text())["id"] == plan.expr_id
