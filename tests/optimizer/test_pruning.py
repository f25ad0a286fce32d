"""Tests for cost-bound pruning (ablation E11)."""

import pytest

from repro.errors import OptimizerError
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.pruning import prune_memo
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)
from tests.optimizer.reference_bestplan import find_best_plan
from tests.planspace.materialized.space import PlanSpace

JOIN2 = (
    "SELECT n.n_name FROM nation n, region r WHERE n.n_regionkey = r.r_regionkey"
)


def _fresh_result(catalog, **kwargs):
    return Optimizer(catalog, OptimizerOptions(**kwargs)).optimize_sql(JOIN2)


class TestPruneMemo:
    def test_pruning_shrinks_space(self, catalog):
        result = _fresh_result(catalog, allow_cross_products=False)
        before = PlanSpace.from_result(result).count()
        removed = prune_memo(result.memo, result.cost_model, factor=2.0)
        after = PlanSpace.from_result(result).count()
        assert removed > 0
        assert after < before

    def test_optimum_survives(self, catalog):
        result = _fresh_result(catalog, allow_cross_products=False)
        prune_memo(result.memo, result.cost_model, factor=1.5)
        # The oracle search reads only the (pruned) object memo.
        _, cost = find_best_plan(result.memo, result.cost_model)
        assert cost == result.best_cost

    def test_larger_factor_keeps_more(self, catalog):
        tight = _fresh_result(catalog, allow_cross_products=False)
        loose = _fresh_result(catalog, allow_cross_products=False)
        prune_memo(tight.memo, tight.cost_model, factor=1.0)
        prune_memo(loose.memo, loose.cost_model, factor=100.0)
        tight_count = PlanSpace.from_result(tight).count()
        loose_count = PlanSpace.from_result(loose).count()
        assert tight_count <= loose_count

    def test_factor_validation(self, catalog):
        result = _fresh_result(catalog, allow_cross_products=False)
        with pytest.raises(ValueError):
            prune_memo(result.memo, result.cost_model, factor=0.5)

    def test_reused_search_matches_fresh(self, catalog):
        """Passing the already-solved search (the serving path does)
        prunes the same expressions as a from-scratch search."""
        fresh = _fresh_result(catalog, allow_cross_products=False)
        reused = _fresh_result(catalog, allow_cross_products=False)
        search = ColumnarBestPlanSearch(
            reused.memo.columnar, reused.cost_model
        ).run()
        removed_fresh = prune_memo(fresh.memo, fresh.cost_model, factor=2.0)
        removed_reused = prune_memo(
            reused.memo, reused.cost_model, factor=2.0, search=search
        )
        assert removed_fresh == removed_reused
        assert fresh.memo.render() == reused.memo.render()

    def test_a_memo_is_pruned_once(self, catalog):
        """Pruning detaches the store it judged by; a second sweep has
        nothing to read and says so."""
        result = _fresh_result(catalog, allow_cross_products=False)
        prune_memo(result.memo, result.cost_model, factor=2.0)
        assert result.memo.columnar is None
        with pytest.raises(OptimizerError, match="already pruned"):
            prune_memo(result.memo, result.cost_model, factor=2.0)


class TestServingPathPruning:
    """``Session.optimize(sql, prune_factor=...)`` (satellite wiring)."""

    def test_session_prune_factor_shrinks_and_keeps_optimum(self):
        from repro.api import Session

        session = Session.tpch(seed=0)
        plain = session.optimize(JOIN2)
        pruned = session.optimize(JOIN2, prune_factor=1.5)
        assert pruned.best_cost == plain.best_cost
        assert (
            pruned.memo.physical_expression_count()
            < plain.memo.physical_expression_count()
        )
        # The optimum is still extractable from the pruned memo.
        _, cost = find_best_plan(pruned.memo, pruned.cost_model)
        assert cost == plain.best_cost

    def test_factor_one_keeps_ordered_suppliers(self):
        """At factor 1.0 the merge-join optimum survives with its
        order-delivering suppliers: survival is judged per qualifying
        (group, requirement) context, not against the order-free best
        alone — the configuration that used to leave an infeasible memo."""
        from repro.api import Session

        session = Session.tpch(seed=0)
        sql = (
            "SELECT o.o_orderkey FROM orders o, lineitem l "
            "WHERE o.o_orderkey = l.l_orderkey"
        )
        plain = session.optimize(sql)
        pruned = session.optimize(sql, prune_factor=1.0)
        assert pruned.best_cost == pytest.approx(plain.best_cost)

    def test_session_prune_factor_validates_before_optimizing(self):
        from repro.api import Session
        from repro.errors import PlanSpaceError

        session = Session.tpch(seed=0)
        with pytest.raises(PlanSpaceError):
            session.optimize(JOIN2, prune_factor=0.5)

    def test_pruning_detaches_stale_columnar_store(self):
        from repro.api import Session

        session = Session.tpch(seed=0)
        pruned = session.optimize(JOIN2, prune_factor=1.2)
        assert pruned.memo.columnar is None

    def test_session_prune_factor_rejects_sampled(self):
        from repro.api import Session
        from repro.errors import PlanSpaceError

        session = Session.tpch(seed=0)
        with pytest.raises(PlanSpaceError):
            session.optimize(JOIN2, method="sampled", prune_factor=2.0)

    def test_cli_prune_factor(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(["optimize", "Q3", "--prune-factor", "1.5"], out=out)
        assert code == 0
        assert "pruned to" in out.getvalue()

    def test_cli_prune_factor_rejects_sampled(self):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(
            ["optimize", "Q3", "--sampled", "--prune-factor", "1.5"], out=out
        )
        assert code == 2

    def test_pruned_space_plans_still_valid(self, catalog, micro_db):
        from repro.executor.executor import PlanExecutor
        from repro.testing.diff import canonical_rows

        result = _fresh_result(catalog, allow_cross_products=False)
        prune_memo(result.memo, result.cost_model, factor=3.0)
        space = PlanSpace.from_result(result)
        executor = PlanExecutor(micro_db)
        reference = None
        for _, plan in space.enumerate(stop=min(30, space.count())):
            rows = canonical_rows(executor.execute(plan).rows)
            if reference is None:
                reference = rows
            assert rows == reference


SHAPES = {
    "cycle4": (cycle_query, 4),
    "cycle6": (cycle_query, 6),
    "star7": (star_query, 7),
    "clique5": (clique_query, 5),
    "chain6": (chain_query, 6),
}


@pytest.mark.parametrize(
    "factor",
    [
        1.0,
        pytest.param(1.0000001, marks=pytest.mark.slow),
        1.5,
        pytest.param(3.0, marks=pytest.mark.slow),
    ],
)
@pytest.mark.parametrize("shape", SHAPES)
def test_pruning_keeps_the_optimum_down_to_factor_one(shape, factor):
    """``rooted <= factor * best(state)`` must hold with equality for a
    state's own winner — so both sides have to be the same float sum.
    The object search this replaced re-added the terms children-first
    and lost the optimum of cycle4 / cycle6 at factor 1.0."""
    make, n = SHAPES[shape]
    workload = make(n, rows=5, seed=0)
    plain = Optimizer(workload.catalog, OptimizerOptions()).optimize_sql(
        workload.sql
    )
    pruned = Optimizer(
        workload.catalog, OptimizerOptions(pruning_factor=factor)
    ).optimize_sql(workload.sql)
    assert pruned.best_cost == plain.best_cost
    assert pruned.best_plan.operator_ids() == plain.best_plan.operator_ids()
    assert pruned.best_plan.render() == plain.best_plan.render()
    # Still a plan space: the materialized engine counts it, and ranks
    # and unranks the surviving optimum.
    space = PlanSpace.from_result(pruned)
    full = PlanSpace.from_result(plain).count()
    assert 0 < space.count() <= full
    if factor == 1.0:
        assert space.count() < full
    rank = space.rank(pruned.best_plan)
    assert space.unrank(rank).render() == plain.best_plan.render()
    # And the oracle, searching the pruned object memo from scratch,
    # finds the same optimum.
    oracle_plan, oracle_cost = find_best_plan(
        pruned.memo, pruned.cost_model, pruned.root_order
    )
    assert oracle_cost == plain.best_cost
    assert oracle_plan.operator_ids() == plain.best_plan.operator_ids()


class TestOptimizerIntegration:
    def test_pruning_option(self, catalog):
        unpruned = _fresh_result(catalog, allow_cross_products=False)
        pruned = _fresh_result(
            catalog, allow_cross_products=False, pruning_factor=2.0
        )
        assert (
            PlanSpace.from_result(pruned).count()
            < PlanSpace.from_result(unpruned).count()
        )
        assert pruned.best_cost == pytest.approx(unpruned.best_cost)
