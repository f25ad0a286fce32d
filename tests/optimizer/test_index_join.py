"""Tests for the IndexNestedLoopJoin extension.

The paper's plan space covers "multiple execution algorithms, index
utilization" — index-lookup joins are the utilization path beyond plain
index scans.  Off by default; these tests turn it on explicitly.
"""

import pytest

from repro.algebra.expressions import ColumnId
from repro.algebra.physical import IndexNestedLoopJoin
from repro.errors import AlgebraError
from repro.executor.executor import PlanExecutor
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.testing.diff import canonical_rows
from tests.planspace.materialized.space import PlanSpace

JOIN2 = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)

COMPOSITE = (
    "SELECT l.l_orderkey FROM lineitem l, partsupp ps "
    "WHERE ps.ps_suppkey = l.l_suppkey AND ps.ps_partkey = l.l_partkey"
)


def _optimize(catalog, sql, enable=True, **kwargs):
    options = OptimizerOptions(
        allow_cross_products=False,
        implementation=ImplementationConfig(enable_index_nl_join=enable),
        **kwargs,
    )
    return Optimizer(catalog, options).optimize_sql(sql)


def _inlj_exprs(memo):
    return [
        e
        for g in memo.groups
        for e in g.physical_exprs()
        if isinstance(e.op, IndexNestedLoopJoin)
    ]


class TestGeneration:
    def test_generated_for_indexed_inner(self, catalog):
        result = _optimize(catalog, JOIN2)
        joins = _inlj_exprs(result.memo)
        # Both orientations have an indexed inner: region_pk for r inner,
        # nation_regionkey (and nation_pk? only leading col counts) for n.
        assert joins
        inner_tables = {e.op.inner_table for e in joins}
        assert "region" in inner_tables

    def test_disabled_by_default(self, catalog):
        result = _optimize(catalog, JOIN2, enable=False)
        assert not _inlj_exprs(result.memo)

    def test_arity_one_child_is_outer(self, catalog):
        result = _optimize(catalog, JOIN2)
        for expr in _inlj_exprs(result.memo):
            assert len(expr.children) == 1
            outer_group = result.memo.group(expr.children[0])
            assert expr.op.inner_alias not in outer_group.relations

    def test_only_leading_prefix_matches(self, catalog):
        result = _optimize(catalog, COMPOSITE)
        by_index = {e.op.index_name: e.op for e in _inlj_exprs(result.memo)}
        # partsupp_pk(ps_partkey, ps_suppkey): both equi columns match.
        pk_join = by_index.get("partsupp_pk")
        assert pk_join is not None
        assert len(pk_join.outer_keys) == 2
        assert pk_join.residual is None
        # partsupp_suppkey(ps_suppkey): one key matches; the partkey
        # equality stays as residual.
        sk_join = by_index.get("partsupp_suppkey")
        assert sk_join is not None
        assert len(sk_join.outer_keys) == 1
        assert sk_join.residual is not None

    def test_inner_predicate_carried(self, catalog):
        sql = (
            "SELECT n.n_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey AND r.r_name = 'ASIA'"
        )
        result = _optimize(catalog, sql)
        region_joins = [
            e.op for e in _inlj_exprs(result.memo) if e.op.inner_table == "region"
        ]
        assert region_joins
        assert all(j.inner_predicate is not None for j in region_joins)

    def test_space_grows(self, catalog):
        without = PlanSpace.from_result(_optimize(catalog, JOIN2, enable=False))
        with_inlj = PlanSpace.from_result(_optimize(catalog, JOIN2, enable=True))
        assert with_inlj.count() > without.count()


class TestOperatorValidation:
    def test_key_lists_must_match(self):
        with pytest.raises(AlgebraError):
            IndexNestedLoopJoin(
                inner_table="t",
                inner_alias="t",
                index_name="i",
                outer_keys=(ColumnId("u", "a"),),
                inner_keys=(),
            )

    def test_render_mentions_index(self):
        join = IndexNestedLoopJoin(
            inner_table="region",
            inner_alias="r",
            index_name="region_pk",
            outer_keys=(ColumnId("n", "n_regionkey"),),
            inner_keys=(ColumnId("r", "r_regionkey"),),
        )
        assert "region_pk" in join.render()
        assert join.arity == 1


class TestExecution:
    def test_index_join_plans_result_equivalent(self, catalog, micro_db):
        result = _optimize(catalog, JOIN2)
        space = PlanSpace.from_result(result)
        executor = PlanExecutor(micro_db)
        reference = canonical_rows(executor.execute(result.best_plan).rows)
        checked_inlj = 0
        for _, plan in space.enumerate(stop=min(space.count(), 600)):
            rows = canonical_rows(executor.execute(plan).rows)
            assert rows == reference
            if any(
                isinstance(n.op, IndexNestedLoopJoin) for n in plan.iter_nodes()
            ):
                checked_inlj += 1
        assert checked_inlj > 0  # the sweep actually exercised index joins

    def test_composite_key_execution(self, catalog, micro_db):
        result = _optimize(catalog, COMPOSITE)
        space = PlanSpace.from_result(result)
        executor = PlanExecutor(micro_db)
        reference = canonical_rows(executor.execute(result.best_plan).rows)
        for plan in space.sample(40, seed=3):
            assert canonical_rows(executor.execute(plan).rows) == reference

    def test_validator_passes_with_index_joins(self, catalog, micro_db):
        from repro.testing.harness import PlanValidator

        options = OptimizerOptions(
            allow_cross_products=False,
            implementation=ImplementationConfig(enable_index_nl_join=True),
        )
        validator = PlanValidator(micro_db, options)
        report = validator.validate_sql(JOIN2, max_exhaustive=0, sample_size=80)
        assert report.all_equal, report.render()


class TestCosting:
    def test_cheap_for_small_outer(self, catalog):
        from repro.optimizer.cost import CostModel

        model = CostModel(catalog)
        join = IndexNestedLoopJoin(
            inner_table="lineitem",
            inner_alias="l",
            index_name="lineitem_pk",
            outer_keys=(ColumnId("o", "o_orderkey"),),
            inner_keys=(ColumnId("l", "l_orderkey"),),
        )
        from repro.algebra.physical import NestedLoopJoin

        seek_cost = model.operator_cost(join, 100.0, (25.0,))
        scan_cost = model.operator_cost(
            NestedLoopJoin(None), 100.0, (25.0, 6_001_215.0)
        )
        assert seek_cost < scan_cost / 1000

    def test_expensive_for_huge_outer(self, catalog):
        from repro.optimizer.cost import CostModel

        model = CostModel(catalog)
        join = IndexNestedLoopJoin(
            inner_table="region",
            inner_alias="r",
            index_name="region_pk",
            outer_keys=(ColumnId("n", "n_regionkey"),),
            inner_keys=(ColumnId("r", "r_regionkey"),),
        )
        small = model.operator_cost(join, 10.0, (10.0,))
        huge = model.operator_cost(join, 10.0, (10**7,))
        assert huge > small * 10**5
