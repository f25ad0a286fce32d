"""Tests for synthetic workload generators."""

import pytest

from repro.errors import ReproError
from repro.optimizer.joingraph import JoinGraph
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    random_query,
    star_query,
)


class TestShapes:
    def test_chain_edges(self):
        workload = chain_query(4)
        bound = bind(parse(workload.sql), workload.catalog)
        graph = JoinGraph(bound.aliases(), list(bound.where_conjuncts))
        assert len(graph.conjuncts) == 3
        assert not graph.is_connected(frozenset(["t0", "t2"]))

    def test_star_edges(self):
        workload = star_query(4)
        bound = bind(parse(workload.sql), workload.catalog)
        graph = JoinGraph(bound.aliases(), list(bound.where_conjuncts))
        assert len(graph.conjuncts) == 3
        assert graph.neighbors(frozenset(["t0"])) == frozenset(["t1", "t2", "t3"])

    def test_clique_edges(self):
        workload = clique_query(4)
        bound = bind(parse(workload.sql), workload.catalog)
        graph = JoinGraph(bound.aliases(), list(bound.where_conjuncts))
        assert len(graph.conjuncts) == 6
        assert graph.is_connected(frozenset(["t1", "t2"]))

    def test_single_table(self):
        workload = chain_query(1)
        bound = bind(parse(workload.sql), workload.catalog)
        assert len(bound.quantifiers) == 1

    def test_known_edge_list(self):
        workload = star_query(4)
        assert workload.edges == ((0, 1), (0, 2), (0, 3))


class TestRandom:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
    def test_connected(self, seed, density):
        workload = random_query(6, edge_density=density, seed=seed)
        bound = bind(parse(workload.sql), workload.catalog)
        graph = JoinGraph(bound.aliases(), list(bound.where_conjuncts))
        assert graph.is_connected(bound.aliases())
        assert len(graph.conjuncts) == len(workload.edges)

    def test_density_bounds(self):
        n = 6
        tree = random_query(n, edge_density=0.0, seed=3)
        assert len(tree.edges) == n - 1
        clique = random_query(n, edge_density=1.0, seed=3)
        assert len(clique.edges) == n * (n - 1) // 2

    def test_deterministic_edges(self):
        a = random_query(7, edge_density=0.5, seed=11)
        b = random_query(7, edge_density=0.5, seed=11)
        assert a.edges == b.edges
        assert a.sql == b.sql
        assert a.database.table("t1").rows == b.database.table("t1").rows

    def test_seeds_diverge(self):
        topologies = {
            random_query(7, edge_density=0.3, seed=s).edges for s in range(6)
        }
        assert len(topologies) > 1

    def test_edges_normalized_and_unique(self):
        workload = random_query(8, edge_density=0.5, seed=2)
        assert all(a < b for a, b in workload.edges)
        assert len(set(workload.edges)) == len(workload.edges)

    def test_invalid_density_rejected(self):
        with pytest.raises(ReproError):
            random_query(4, edge_density=1.5)


class TestData:
    def test_fk_integrity(self):
        workload = chain_query(3, rows=10, seed=5)
        t0_ids = {r[0] for r in workload.database.table("t0").rows}
        for row in workload.database.table("t1").rows:
            assert row[2] in t0_ids

    def test_deterministic(self):
        a = chain_query(3, seed=9)
        b = chain_query(3, seed=9)
        assert a.database.table("t1").rows == b.database.table("t1").rows

    def test_indexes_optional(self):
        with_idx = chain_query(3, with_indexes=True)
        without = chain_query(3, with_indexes=False)
        assert with_idx.catalog.indexes("t1")
        assert not without.catalog.indexes("t1")


class TestEndToEnd:
    @pytest.mark.parametrize("maker", [chain_query, star_query, clique_query])
    def test_optimize_and_execute(self, maker):
        from repro.optimizer.optimizer import Optimizer, OptimizerOptions
        from tests.planspace.materialized.space import PlanSpace
        from repro.executor.executor import PlanExecutor
        from repro.testing.diff import canonical_rows

        workload = maker(3, rows=8, seed=1)
        result = Optimizer(
            workload.catalog, OptimizerOptions(allow_cross_products=False)
        ).optimize_sql(workload.sql)
        space = PlanSpace.from_result(result)
        assert space.count() > 1
        executor = PlanExecutor(workload.database)
        reference = canonical_rows(executor.execute(result.best_plan).rows)
        for plan in space.sample(15, seed=2):
            assert canonical_rows(executor.execute(plan).rows) == reference

    def test_aggregate_flag(self):
        plain = chain_query(2, aggregate=False)
        assert plain.sql.startswith("SELECT t0.id")
        agg = chain_query(2, aggregate=True)
        assert "COUNT(*)" in agg.sql
