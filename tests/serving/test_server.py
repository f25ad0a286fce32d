"""End-to-end serving: cold-vs-warm identity, explore-skipping span
shapes, and the concurrent hammer."""

import sys
import threading
import time

import pytest

from repro.api import Session
from repro.serving import PlanCache, PlanServer
from repro.testing.faults import FaultSpec, inject
from repro.workloads.synthetic import star_query

SQL = (
    "SELECT * FROM customer c, orders o, lineitem l "
    "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey "
    "AND o.o_totalprice < {lit}"
)


@pytest.fixture(scope="module")
def database():
    return Session.tpch(seed=0).database


def cached_session(database):
    return Session(database, plan_cache=PlanCache())


def span_names(span):
    names = [span.name]
    for child in span.children:
        names.extend(span_names(child))
    return names


class TestColdVersusWarm:
    def test_warm_hit_is_byte_identical(self, database):
        session = cached_session(database)
        sql = SQL.format(lit="1000.0")
        cold = session.optimize(sql)
        warm = session.optimize(sql)
        assert cold.cache.tier == "miss"
        assert warm.cache.tier == "plan"
        assert warm.explain() == cold.explain()
        assert warm.best_cost == cold.best_cost
        assert warm.cache.hits == 1
        assert warm.cache.template_age_s >= 0.0

    def test_plan_hit_trace_shape_proves_no_optimization(self, database):
        session = cached_session(database)
        sql = SQL.format(lit="1000.0")
        session.optimize(sql)
        warm = session.optimize(sql, trace=True)
        assert warm.cache.tier == "plan"
        assert warm.trace.name == "optimize"
        assert [c.name for c in warm.trace.children] == ["cache.hit"]

    def test_template_hit_skips_exploration(self, database):
        session = cached_session(database)
        session.optimize(SQL.format(lit="1000.0"))
        variant = session.optimize(SQL.format(lit="77777.0"), trace=True)
        assert variant.cache.tier == "template"
        names = span_names(variant.trace)
        assert "explore.cached" in names
        assert "explore" not in names  # enumeration never ran
        assert variant.timings["explore_source"] == "cached"

    def test_template_hit_matches_uncached_plan(self, database):
        cached = cached_session(database)
        cached.optimize(SQL.format(lit="1000.0"))
        variant = cached.optimize(SQL.format(lit="77777.0"))
        reference = Session(database).optimize(SQL.format(lit="77777.0"))
        assert variant.cache.tier == "template"
        assert variant.explain() == reference.explain()
        assert variant.best_cost == reference.best_cost

    def test_distinct_literals_are_distinct_plan_entries(self, database):
        # No parameter sniffing: x < 1000 and x < 77777 have different
        # selectivities and must never share a final plan entry.
        session = cached_session(database)
        session.optimize(SQL.format(lit="1000.0"))
        session.optimize(SQL.format(lit="77777.0"))
        stats = session.plan_cache.stats()
        assert stats["plan.size"] == 2
        assert stats["plan.hits"] == 0


class TestSessionIntegration:
    def test_prune_factor_splits_the_config_identity(self, database):
        session = cached_session(database)
        sql = SQL.format(lit="1000.0")
        session.optimize(sql)
        pruned = session.optimize(sql, prune_factor=1.5)
        assert pruned.cache.tier != "plan"  # different config signature
        assert session.optimize(sql, prune_factor=1.5).cache.tier == "plan"

    def test_implicit_count_cached_per_template(self, database):
        session = cached_session(database)
        n1 = session.count_plans(SQL.format(lit="1000.0"))
        hits_before = session.plan_cache.stats()["template.hits"]
        n2 = session.count_plans(SQL.format(lit="2.0"))
        assert n1 == n2  # N is literal-independent
        assert session.plan_cache.stats()["template.hits"] == hits_before + 1

    def test_sessions_share_one_cache(self, database):
        cache = PlanCache()
        sql = SQL.format(lit="1000.0")
        Session(database, plan_cache=cache).optimize(sql)
        other = Session(database, plan_cache=cache).optimize(sql)
        assert other.cache.tier == "plan"

    def test_no_cache_means_no_tagging(self, database):
        result = Session(database).optimize(SQL.format(lit="1000.0"))
        assert result.cache is None

    def test_a_degraded_result_never_seeds_the_cache(self):
        """The heuristic tier's memo carries a complete logical store,
        which template capture would accept: only the admission tier
        check keeps a deadline artefact out of both tiers."""
        workload = star_query(6, rows=5, seed=0)
        session = Session(workload.database, plan_cache=PlanCache())
        hurried = session.optimize(workload.sql, deadline_s=1e-6)
        assert hurried.engine == "heuristic"
        assert hurried.memo.columnar_logical is not None
        stats = session.plan_cache.stats()
        assert stats["plan.size"] == stats["template.size"] == 0
        served = session.optimize(workload.sql)
        assert served.cache.tier == "miss"
        assert served.engine == "columnar" and served.resilience is None
        cold = Session(workload.database).optimize(workload.sql)
        assert served.best_plan.render() == cold.best_plan.render()
        assert served.best_cost == cold.best_cost


class TestPlanServer:
    def test_hammer_64_clients_under_deadline(self, database):
        literals = [f"{1000.0 * (i + 1):.1f}" for i in range(8)]
        statements = [SQL.format(lit=lit) for lit in literals]
        reference = {
            sql: Session(database).optimize(sql).explain() for sql in statements
        }
        with PlanServer(database, workers=64, deadline_s=30.0) as server:
            futures = [
                server.submit(statements[i % len(statements)]) for i in range(64)
            ]
            results = [f.result(timeout=120) for f in futures]
            stats = server.stats()
        assert stats["errors"] == 0
        assert stats["requests"] == 64
        for i, result in enumerate(results):
            sql = statements[i % len(statements)]
            # Every request got its own literal's plan — a cross-request
            # leak would serve a neighbouring template instance's plan.
            assert result.explain() == reference[sql], f"request {i}"
            assert result.cache is not None
        tiers = {r.cache.tier for r in results}
        assert "plan" in tiers  # the warm majority
        cache_stats = stats["cache"]
        assert cache_stats["plan.hits"] > 0
        # one counted plan-tier outcome per request: the caller-side probe
        # leaves its miss to the worker's own lookup
        assert cache_stats["plan.hits"] + cache_stats["plan.misses"] == 64
        # callers probe through the server, not through sessions of their own
        assert stats["sessions"] <= 64
        assert stats["served_inline"] + stats["served_pooled"] == 64

    def test_deadline_rides_the_resilience_ladder(self, database):
        with PlanServer(database, workers=2, deadline_s=30.0) as server:
            sql = SQL.format(lit="1000.0")
            cold = server.optimize(sql)
            assert cold.resilience is not None
            assert cold.resilience.tier == "exact"
            warm = server.optimize(sql)
            assert warm.cache.tier == "plan"

    def test_uncached_server(self, database):
        with PlanServer(database, workers=2, cache=False) as server:
            result = server.optimize(SQL.format(lit="1000.0"))
            assert result.cache is None
            assert server.stats().get("cache") is None

    def test_passed_in_empty_cache_is_used(self, database):
        # an empty PlanCache is falsy (``__len__``): it must still be the
        # cache that receives the admits, not be mistaken for cache=False
        cache = PlanCache()
        with PlanServer(database, workers=2, cache=cache) as server:
            assert server.cache is cache
            sql = SQL.format(lit="1000.0")
            assert server.optimize(sql).cache.tier == "miss"
            assert server.optimize(sql).cache.tier == "plan"
            assert server.stats()["cache"]["plan.hits"] == 1
        assert len(cache) == 1

    def test_map_preserves_order(self, database):
        statements = [SQL.format(lit=f"{v}.0") for v in (1000, 2000, 1000)]
        with PlanServer(database, workers=4) as server:
            results = server.map(statements)
        assert len(results) == 3
        assert results[0].explain() == results[2].explain()

    def test_closed_server_rejects_work(self, database):
        server = PlanServer(database, workers=1)
        server.close()
        with pytest.raises(RuntimeError):
            server.submit("SELECT * FROM orders o")


def served(plan_result):
    return plan_result.best_plan.render() + "\n" + repr(plan_result.best_cost)


class TestHitPath:
    """Plan-tier hits are answered on the caller's thread; only misses
    (and trace/feedback/extra-argument calls) cross to the pool."""

    def test_worker_admits_caller_hits_and_back(self, database):
        first, second = SQL.format(lit="1000.0"), SQL.format(lit="2000.0")
        uncached = Session(database)
        cache = PlanCache()
        with PlanServer(database, workers=2, cache=cache) as server:
            assert server.optimize(first).cache.tier == "miss"  # a worker admits
            inline = server.optimize(first)  # the caller's probe hits it
            Session(database, plan_cache=cache).optimize(second)  # a caller admits
            pooled = server.optimize(second, trace=True)  # a worker hits it
            stats = server.stats()
        assert inline.cache.tier == pooled.cache.tier == "plan"
        assert served(inline) == served(uncached.optimize(first))
        assert served(pooled) == served(uncached.optimize(second))
        assert [c.name for c in pooled.trace.children] == ["cache.hit"]
        assert (stats["served_inline"], stats["served_pooled"]) == (1, 2)
        assert stats["requests"] == 3
        assert stats["latency_p50_ms"] > 0.0

    def test_hit_does_not_wait_for_a_busy_pool(self, database):
        warm_sql = SQL.format(lit="1000.0")
        # another template: a literal variant would replay the cached
        # exploration and never reach the fault site
        cold_sql = (
            "SELECT * FROM customer c, orders o "
            "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice < 5.0"
        )
        with PlanServer(database, workers=1) as server:
            server.optimize(warm_sql)
            stall = FaultSpec("explore.batch", action="delay", delay_s=1.0)
            with inject(stall) as injector:
                cold = server.submit(cold_sql)
                give_up = time.monotonic() + 30.0
                while not injector.fired and time.monotonic() < give_up:
                    time.sleep(0.005)
                assert injector.fired, "the worker never reached exploration"
                warm = server.optimize(warm_sql)
                assert not cold.done()  # the one worker is still inside it
            assert warm.cache.tier == "plan"
            assert cold.result(timeout=60).cache.tier == "miss"

    def test_submit_returns_a_done_future_on_a_hit(self, database):
        sql = SQL.format(lit="1000.0")
        with PlanServer(database, workers=1) as server:
            assert server.submit(sql).result(timeout=60).cache.tier == "miss"
            future = server.submit(sql)
            assert future.done()
            assert future.result().cache.tier == "plan"

    def test_closed_server_rejects_a_cached_statement(self, database):
        sql = SQL.format(lit="1000.0")
        server = PlanServer(database, workers=1)
        server.optimize(sql)
        server.close()
        with pytest.raises(RuntimeError):
            server.optimize(sql)

    def test_everything_but_a_plain_hit_goes_through_the_pool(self, database):
        sql = SQL.format(lit="1000.0")
        with PlanServer(database, workers=2, cache=False) as server:
            assert server.optimize(sql).cache is None
            assert server.stats()["served_pooled"] == 1
        with PlanServer(database, workers=2) as server:
            server.optimize(sql)
            traced = server.optimize(sql, trace=True)
            assert traced.cache.tier == "plan" and traced.trace is not None
            assert server.optimize(sql, feedback=True).cache.tier == "plan"
            pruned = server.optimize(sql, prune_factor=1.5)
            assert pruned.cache.tier != "plan"  # another config identity
            assert server.optimize(sql, prune_factor=1.5).cache.tier == "plan"
            with pytest.raises(Exception):
                server.optimize(sql, prune_factor=0.5)
            stats = server.stats()
        assert (stats["served_inline"], stats["served_pooled"]) == (0, 6)
        assert stats["errors"] == 1

    def test_one_counted_lookup_per_request(self, database):
        statements = [SQL.format(lit=f"{1000.0 * (i % 4 + 1):.1f}") for i in range(40)]
        with PlanServer(database, workers=3) as server:
            server.map(statements)  # a burst: callers probe before any admit
            for sql in statements:
                server.optimize(sql)
            stats = server.stats()
        cache_stats = stats["cache"]
        assert stats["requests"] == 80
        assert cache_stats["plan.hits"] + cache_stats["plan.misses"] == 80
        assert stats["served_inline"] >= 40
        assert stats["served_inline"] <= cache_stats["plan.hits"]
        assert stats["sessions"] <= 3

    def test_concurrent_callers_lose_no_count(self, database):
        statements = [SQL.format(lit=f"{1000.0 * (i + 1):.1f}") for i in range(4)]
        callers, each = 8, 150
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PlanServer(database, workers=2) as server:
                tiers: list = []

                def caller(offset):
                    for i in range(each):
                        sql = statements[(offset + i) % len(statements)]
                        tiers.append(server.optimize(sql).cache.tier)

                threads = [
                    threading.Thread(target=caller, args=(n,)) for n in range(callers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = server.stats()
        finally:
            sys.setswitchinterval(interval)
        total = callers * each
        assert len(tiers) == total and stats["errors"] == 0
        assert stats["served_inline"] + stats["served_pooled"] == total
        assert stats["cache"]["plan.hits"] + stats["cache"]["plan.misses"] == total
        assert stats["cache"]["plan.hits"] == tiers.count("plan")
        assert stats["sessions"] <= 2
