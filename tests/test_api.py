"""Tests for the Session facade (including OPTION (USEPLAN n))."""

import pytest

from repro.api import STATEMENT_TABLE_SIZE, Session
from repro.errors import BudgetError, PlanSpaceError, ReproError
from repro.executor.executor import PlanExecutor
from repro.obs import Tracer, tracing
from repro.optimizer.optimizer import OptimizerOptions
from repro.sampledopt import sampled_distribution
from repro.serving import PlanCache
from repro.testing.diff import canonical_rows
from repro.testing.harness import PlanValidator

SQL = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)


@pytest.fixture(scope="module")
def session():
    return Session.tpch(seed=0, options=OptimizerOptions(allow_cross_products=False))


class TestExecute:
    def test_plain_execution(self, session):
        result = session.execute(SQL)
        assert result.columns == ["n_name", "r_name"]
        assert len(result.rows) == 25

    def test_useplan_forces_specific_plan(self, session):
        detailed = session.execute_detailed(SQL + " OPTION (USEPLAN 5)")
        assert detailed.used_rank == 5

    def test_useplan_results_match_default(self, session):
        reference = canonical_rows(session.execute(SQL).rows)
        for rank in (0, 3, 17):
            rows = canonical_rows(
                session.execute(f"{SQL} OPTION (USEPLAN {rank})").rows
            )
            assert rows == reference

    def test_useplan_out_of_range(self, session):
        with pytest.raises(PlanSpaceError):
            session.execute(SQL + " OPTION (USEPLAN 99999999999)")

    def test_default_plan_is_optimizers(self, session):
        detailed = session.execute_detailed(SQL)
        assert detailed.used_rank is None
        assert detailed.optimization.best_plan is not None

    def test_order_by_execution(self, session):
        result = session.execute(SQL + " ORDER BY n_name")
        names = [row[0] for row in result.rows]
        assert names == sorted(names)


class TestIteratePlans:
    def test_explicit_ranks(self, session):
        results = dict(session.iterate_plans(SQL, ranks=[0, 1, 2]))
        assert set(results) == {0, 1, 2}

    def test_sampled_iteration(self, session):
        results = list(session.iterate_plans(SQL, sample=5, seed=3))
        assert len(results) == 5

    @pytest.mark.parametrize("implicit", [False, True])
    def test_negative_sample_rejected(self, session, implicit):
        with pytest.raises(ValueError, match="non-negative"):
            list(session.iterate_plans(SQL, sample=-1, implicit=implicit))

    def test_full_enumeration_when_unspecified(self, session):
        space = session.plan_space(SQL)
        results = list(session.iterate_plans(SQL))
        assert len(results) == space.count()

    def test_all_iterated_plans_agree(self, session):
        reference = None
        for _, result in session.iterate_plans(SQL, sample=10, seed=1):
            rows = canonical_rows(result.rows)
            if reference is None:
                reference = rows
            assert rows == reference


def _spans(span, name: str) -> int:
    """How many spans called ``name`` the tree under ``span`` holds."""
    return (span.name == name) + sum(_spans(child, name) for child in span.children)


class TestStatementTable:
    """A session counts each statement once: ``iterate_plans``,
    ``plan_space`` and ``count_plans`` share one table of counted
    states, keyed by the statement text."""

    @staticmethod
    def _traced(session, calls):
        tracer = Tracer()
        with tracing(tracer), tracer.span("calls"):
            out = [call() for call in calls]
        return tracer.root, out

    @staticmethod
    def _drawn(session, sql, seed=4):
        return [
            (rank, result.rows)
            for rank, result in session.iterate_plans(sql, sample=12, seed=seed)
        ]

    def test_two_iterations_build_one_layout_and_one_count(self):
        session = Session.tpch(seed=0)
        root, (first, second, total) = self._traced(
            session,
            [
                lambda: self._drawn(session, SQL),
                lambda: self._drawn(session, SQL),
                lambda: session.count_plans(SQL),
            ],
        )
        assert _spans(root, "implicit.layout") == _spans(root, "implicit.count") == 1
        assert first == second and total == session.plan_space(SQL).count()

    def test_a_reused_statement_draws_what_a_fresh_session_draws(self):
        session = Session.tpch(seed=0)
        self._drawn(session, SQL, seed=9)
        reused = self._drawn(session, SQL)
        fresh_session = Session.tpch(seed=0)
        assert reused == self._drawn(fresh_session, SQL)
        for rank, _rows in reused:
            assert (
                session.plan_space(SQL).unrank(rank).render()
                == fresh_session.plan_space(SQL).unrank(rank).render()
            )

    def test_cost_distribution_reads_the_counted_statement(self):
        session = Session.tpch(seed=0)
        root, (first, second) = self._traced(
            session, [lambda: session.cost_distribution(SQL, sample_size=40, seed=2)] * 2
        )
        assert _spans(root, "implicit.layout") == _spans(root, "implicit.count") == 1
        fresh = sampled_distribution(
            session.catalog, SQL, "query", 40, seed=2, options=session.options
        )
        assert first.scaled_costs == second.scaled_costs == fresh.scaled_costs
        assert first.best_cost == fresh.best_cost

    def test_an_evicted_statement_is_rebuilt_the_same(self):
        session = Session.tpch(seed=0)
        before = self._drawn(session, SQL)
        plans = [session.plan_space(SQL).unrank(rank).render() for rank, _ in before]
        for n in range(1, STATEMENT_TABLE_SIZE + 1):  # pushes SQL out
            session.count_plans(SQL + " " * n)
        root, (after,) = self._traced(session, [lambda: self._drawn(session, SQL)])
        assert _spans(root, "implicit.count") == 1, "evicted, so counted again"
        assert after == before
        assert [session.plan_space(SQL).unrank(r).render() for r, _ in after] == plans


class TestIntrospection:
    def test_plan_space(self, session):
        space = session.plan_space(SQL)
        assert space.count() > 100

    def test_explain(self, session):
        text = session.explain(SQL)
        assert "best cost" in text

    def test_optimize_returns_result(self, session):
        result = session.optimize(SQL)
        assert result.memo.root_group_id is not None

    def test_tpch_constructor_rows_override(self):
        session = Session.tpch(seed=1, rows={"lineitem": 12})
        assert len(session.database.table("lineitem")) == 12


class TestSampledOptimize:
    def test_sampled_method_returns_compatible_result(self, session):
        result = session.optimize(SQL, method="sampled", samples=40, seed=0)
        assert result.best_plan is not None
        assert result.best_cost > 0
        assert "best cost" in result.explain()
        assert result.samples == 40

    def test_sampled_cost_bounded_by_exhaustive(self, session):
        exhaustive = session.optimize(SQL)
        sampled = session.optimize(SQL, method="sampled", samples=60, seed=0)
        assert sampled.best_cost >= exhaustive.best_cost - 1e-9
        # the two-table space is tiny: recombination finds the optimum
        assert sampled.best_cost == pytest.approx(exhaustive.best_cost)

    def test_sampled_plan_is_executable(self, session):
        sampled = session.optimize(SQL, method="sampled", samples=30, seed=1)
        rows = canonical_rows(session.executor.execute(sampled.best_plan).rows)
        assert rows == canonical_rows(session.execute(SQL).rows)

    def test_sampled_budget_keyword(self, session):
        result = session.optimize(
            SQL, method="sampled", samples=10_000, budget_s=1e-9, seed=0
        )
        assert result.stopped_because == "budget"

    def test_unknown_method_rejected(self, session):
        with pytest.raises(PlanSpaceError):
            session.optimize(SQL, method="genetic")

    def test_exhaustive_rejects_sampling_kwargs(self, session):
        with pytest.raises(PlanSpaceError):
            session.optimize(SQL, samples=10)


class TestRequestCheck:
    """``Session.optimize`` checks a request's arguments together, before
    it loads a ledger, probes the plan cache or parses."""

    def test_unknown_on_budget_refused_without_a_budget(self, session):
        with pytest.raises(BudgetError, match="on_budget must be"):
            session.optimize(SQL, on_budget="bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prune_factor": 0.5},
            {"samples": 10},
            {"on_budget": "bogus", "deadline_s": 5.0},
            {"method": "genetic"},
        ],
        ids=["prune-factor", "sampling-argument", "on-budget", "method"],
    )
    def test_a_refused_request_touches_no_cache_counter(self, micro_db, kwargs):
        session = Session(micro_db, plan_cache=PlanCache())
        with pytest.raises(ReproError):
            session.optimize(SQL, **kwargs)
        snapshot = session.metrics.snapshot()
        assert [name for name in snapshot if name.startswith("plancache.")] == []
        assert session.plan_cache.stats() == PlanCache().stats()


class TestCostDistribution:
    def test_memo_free_distribution(self, session):
        dist = session.cost_distribution(SQL, sample_size=80, seed=0)
        assert dist.sample_size == 80
        assert min(dist.scaled_costs) >= 1.0 - 1e-9

    def test_materialized_matches_memo_free_scaling(self, session):
        materialized = session.cost_distribution(
            SQL, sample_size=80, seed=0, materialized=True
        )
        memo_free = session.cost_distribution(SQL, sample_size=80, seed=0)
        # tiny space: the recombined best equals the true optimum, so the
        # same seed yields identical scaled costs through either engine
        assert memo_free.scaled_costs == pytest.approx(
            materialized.scaled_costs, rel=1e-12
        )


class _CountingExecutor(PlanExecutor):
    executed = 0

    def execute(self, plan, **kwargs):
        self.executed += 1
        return super().execute(plan, **kwargs)


#: every route that numbers plans, as (session, validator) -> call
PLAN_NUMBER_ROUTES = {
    "plan_space": lambda s, v: s.plan_space(SQL),
    "count_plans": lambda s, v: s.count_plans(SQL),
    "iterate_plans": lambda s, v: next(s.iterate_plans(SQL, sample=3)),
    "useplan": lambda s, v: s.execute(f"{SQL} OPTION (USEPLAN 0)"),
    "validate_sql": lambda s, v: v.validate_sql(SQL),
}


@pytest.mark.parametrize("route", PLAN_NUMBER_ROUTES)
def test_pruned_session_refuses_plan_numbers(micro_db, route):
    """Plan numbers are defined on the unpruned space: a session pruning
    every optimization is refused by name before any plan executes."""
    options = OptimizerOptions(pruning_factor=1.5)
    session = Session(micro_db, options=options)
    session.executor = executor = _CountingExecutor(micro_db)
    validator = PlanValidator(micro_db, options, executor=executor)
    with pytest.raises(PlanSpaceError, match="pruning_factor=1.5"):
        PLAN_NUMBER_ROUTES[route](session, validator)
    assert executor.executed == 0
