"""Tests for the implicit plan-space engine (facade level).

The exhaustive engine-vs-engine sweeps live in
``tests/property/test_prop_implicit_equivalence.py``; these tests cover
the facade semantics, the API/CLI wiring, configuration gating, and a
few pointed equivalence spot-checks.
"""

import io
import random

import pytest

from repro.api import PlanSpaceHandle, Session
from repro.cli import main as cli_main
from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.planspace.implicit import CountState, ImplicitLayout, ImplicitPlanSpace
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import chain_query, clique_query, cycle_query
from repro.workloads.tpch_queries import tpch_query
from tests.planspace.materialized.space import PlanSpace
from tests.planspace.reference_counting import count_both


def _spaces(workload, **options_kwargs):
    options = OptimizerOptions(**options_kwargs)
    result = Optimizer(workload.catalog, options).optimize_sql(workload.sql)
    materialized = PlanSpace.from_result(result)
    implicit = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=options
    )
    return materialized, implicit


class TestCounting:
    def test_chain_matches_materialized(self):
        materialized, implicit = _spaces(chain_query(5, rows=5, seed=0))
        assert implicit.count() == materialized.count()

    def test_cross_products(self):
        materialized, implicit = _spaces(
            chain_query(5, rows=5, seed=0), allow_cross_products=True
        )
        assert implicit.count() == materialized.count()

    def test_virtual_physical_count_matches_memo(self):
        workload = clique_query(4, rows=5, seed=0)
        options = OptimizerOptions()
        result = Optimizer(workload.catalog, options).optimize_sql(workload.sql)
        implicit = ImplicitPlanSpace.from_sql(
            workload.catalog, workload.sql, options=options
        )
        assert (
            implicit.physical_operator_count()
            == result.memo.physical_expression_count()
        )
        assert implicit.group_count() == len(result.memo.groups)
        assert (
            implicit.logical_operator_count()
            == result.memo.logical_expression_count()
        )

    def test_order_by_filters_root(self, catalog):
        sql = tpch_query("Q3").sql + " ORDER BY revenue"
        implicit = ImplicitPlanSpace.from_sql(catalog, sql)
        result = Optimizer(catalog, OptimizerOptions()).optimize_sql(sql)
        materialized = PlanSpace.from_result(result)
        assert implicit.count() == materialized.count()
        for rank in (0, implicit.count() - 1):
            plan = implicit.unrank(rank)
            assert plan.op.delivered_order()[: len(result.root_order)] == (
                result.root_order
            )

    def test_turbo_and_reference_agree(self):
        """The count pass and the per-pair oracle unrank alike."""
        workload = clique_query(5, rows=5, seed=0)
        turbo, reference = map(
            ImplicitPlanSpace, count_both(workload.catalog, workload.sql)
        )
        assert reference.count() == turbo.count()
        for rank in (0, 17, turbo.count() - 1):
            assert (
                reference.unrank(rank).fingerprint()
                == turbo.unrank(rank).fingerprint()
            )


class TestUnranking:
    def test_rank_roundtrip(self):
        _, implicit = _spaces(chain_query(4, rows=5, seed=0))
        for rank in range(0, implicit.count(), max(1, implicit.count() // 37)):
            assert implicit.rank(implicit.unrank(rank)) == rank

    def test_out_of_range(self):
        _, implicit = _spaces(chain_query(3, rows=5, seed=0))
        with pytest.raises(RankOutOfRangeError):
            implicit.unrank(implicit.count())
        with pytest.raises(RankOutOfRangeError):
            implicit.unrank(-1)

    def test_enumerate_matches_materialized(self):
        materialized, implicit = _spaces(chain_query(3, rows=5, seed=0))
        got = [
            (rank, plan.fingerprint()) for rank, plan in implicit.enumerate()
        ]
        expected = [
            (rank, plan.fingerprint()) for rank, plan in materialized.enumerate()
        ]
        assert got == expected

    def test_cardinalities_match(self):
        materialized, implicit = _spaces(chain_query(4, rows=5, seed=0))
        for rank in (0, 5, materialized.count() - 1):
            mat_nodes = list(materialized.unrank(rank).iter_nodes())
            imp_nodes = list(implicit.unrank(rank).iter_nodes())
            for mat_node, imp_node in zip(mat_nodes, imp_nodes):
                assert mat_node.cardinality == imp_node.cardinality


class TestSampling:
    def test_same_seed_same_ranks_as_materialized(self):
        materialized, implicit = _spaces(chain_query(5, rows=5, seed=0))
        assert materialized.sample_ranks(50, seed=11) == implicit.sample_ranks(
            50, seed=11
        )

    def test_unique_sampling(self):
        _, implicit = _spaces(chain_query(3, rows=5, seed=0))
        n = min(implicit.count(), 25)
        ranks = implicit.sample_ranks(n, seed=2, unique=True)
        assert len(set(ranks)) == n


class TestConfigurations:
    def test_rejects_pruning(self):
        workload = chain_query(3, rows=5, seed=0)
        with pytest.raises(PlanSpaceError):
            ImplicitPlanSpace.from_sql(
                workload.catalog,
                workload.sql,
                options=OptimizerOptions(pruning_factor=2.0),
            )

    @pytest.mark.parametrize(
        "config",
        [
            ImplementationConfig(enable_merge_join=False),
            ImplementationConfig(enable_hash_join=False),
            ImplementationConfig(enable_index_scans=False),
            ImplementationConfig(enable_sort_enforcers=False),
            ImplementationConfig(enable_index_nl_join=True),
        ],
        ids=["no-merge", "no-hash", "no-index", "no-enforcers", "index-nlj"],
    )
    def test_ablations_match_materialized(self, config):
        workload = chain_query(4, rows=5, seed=0)
        materialized, implicit = _spaces(workload, implementation=config)
        assert implicit.count() == materialized.count()
        for rank in (0, materialized.count() - 1):
            assert (
                implicit.unrank(rank).fingerprint()
                == materialized.unrank(rank).fingerprint()
            )

    def test_redundant_sorts_ablation(self):
        workload = chain_query(4, rows=5, seed=0)
        options = OptimizerOptions()
        result = Optimizer(workload.catalog, options).optimize_sql(workload.sql)
        materialized = PlanSpace.from_result(
            result, include_redundant_sorts=False
        )
        implicit = ImplicitPlanSpace.from_sql(
            workload.catalog,
            workload.sql,
            options=options,
            include_redundant_sorts=False,
        )
        assert implicit.count() == materialized.count()
        assert (
            implicit.unrank(7).fingerprint()
            == materialized.unrank(7).fingerprint()
        )

    @pytest.mark.parametrize(
        "workload",
        [chain_query(4, rows=5, seed=0), cycle_query(5, rows=5, seed=0)],
        ids=["chain4", "cycle5"],
    )
    def test_redundant_sorts_flag_lives_on_the_state(self, workload):
        """A space assembled from a state counted without redundant sorts
        unranks within that state's space: the tables and the unranker
        read the flag from the state, never a default of their own."""
        catalog, sql = workload.catalog, workload.sql
        layout = ImplicitLayout(Binder(catalog).bind(parse(sql)), False)
        state = CountState(
            layout=layout,
            catalog=catalog,
            config=ImplementationConfig(),
            include_redundant_sorts=False,
        ).compute()
        assembled = ImplicitPlanSpace(state)
        built = ImplicitPlanSpace.from_sql(
            catalog, sql, include_redundant_sorts=False
        )
        result = Optimizer(catalog, OptimizerOptions()).optimize_sql(sql)
        materialized = PlanSpace.from_result(result, include_redundant_sorts=False)
        total = assembled.count()
        assert total == built.count() == materialized.count()
        rng = random.Random(5)
        for rank in sorted({0, total - 1, *(rng.randrange(total) for _ in range(200))}):
            plan = assembled.unrank(rank)
            assert plan.render() == built.unrank(rank).render(), rank
            assert plan.render() == materialized.unrank(rank).render(), rank
            assert assembled.rank(plan) == rank


class TestSessionApi:
    def test_count_only_handle(self):
        session = Session.tpch(seed=0)
        sql = tpch_query("Q3").sql
        handle = session.plan_space(sql)
        assert isinstance(handle, PlanSpaceHandle)
        full = PlanSpace.from_result(session.optimize(sql))
        assert handle.count() == full.count()
        assert handle
        assert handle.unrank(13).fingerprint() == full.unrank(13).fingerprint()
        assert "implicit plan space" in handle.describe()

    def test_large_space_is_truthy(self):
        """``count()`` is the API: a space past 2**63 plans (clique7,
        N ≈ 8.6e28) is truthy, where a ``len`` would overflow."""
        workload = clique_query(7, rows=5, seed=0)
        handle = Session(workload.database).plan_space(workload.sql)
        assert handle and handle.space
        assert handle.count() == handle.space.count() == 86353104200675769041228522464

    def test_handle_materialize(self):
        """The reference the handle's numbering matches is built from an
        optimizer result, never through the handle."""
        session = Session.tpch(seed=0)
        sql = tpch_query("Q3").sql
        handle = session.plan_space(sql)
        assert not hasattr(handle, "materialize")
        reference = PlanSpace.from_result(session.optimize(sql))
        assert reference.count() == handle.count()

    def test_count_plans(self):
        session = Session.tpch(seed=0)
        sql = tpch_query("Q3").sql
        assert (
            session.count_plans(sql)
            == PlanSpace.from_result(session.optimize(sql)).count()
        )

    def test_iterate_plans_implicit_matches(self):
        session = Session.tpch(seed=0)
        sql = (
            "SELECT n.n_name, r.r_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey"
        )
        reference = PlanSpace.from_result(session.optimize(sql))
        materialized = {
            rank: session.executor.execute(reference.unrank(rank)).rows
            for rank in reference.sample_ranks(5, seed=3)
        }
        implicit = {
            rank: result.rows
            for rank, result in session.iterate_plans(sql, sample=5, seed=3)
        }
        assert materialized == implicit


class TestCli:
    def run(self, *argv):
        out = io.StringIO()
        code = cli_main(list(argv), out=out)
        return code, out.getvalue()

    def test_count_implicit_matches(self):
        """``count`` reads the implicit space; its four numbers are the
        materialized memo's."""
        code, text = self.run("count", "Q3")
        assert code == 0
        session = Session.tpch(seed=0)
        result = session.optimize(tpch_query("Q3").sql)
        memo = result.memo
        assert text == (
            f"groups: {len(memo.groups)}\n"
            f"logical operators: {memo.logical_expression_count()}\n"
            f"physical operators: {memo.physical_expression_count()}\n"
            f"plans: {PlanSpace.from_result(result).count():,}\n"
        )
        assert "(virtual)" not in text

    def test_sample_implicit_same_ranks(self):
        code, text = self.run("sample", "Q3", "-n", "5", "--seed", "9")
        assert code == 0
        ranks = [
            int(line.split()[0][1:])
            for line in text.splitlines()
            if line.startswith("  #")
        ]
        session = Session.tpch(seed=0)
        reference = PlanSpace.from_result(session.optimize(tpch_query("Q3").sql))
        assert ranks == reference.sample_ranks(5, seed=9)

    def test_sample_implicit_analyze(self):
        code, text = self.run("sample", "Q3", "-n", "4", "--analyze")
        assert code == 0
        assert "(implicit)" not in text
        assert "x optimum" in text
        assert "analysis of 4 plans" in text
