"""The metrics registry: checkpoint-fed counters, session lifecycle,
clean resets, Prometheus rendering, and the metrics/fault-site lockstep."""

import pytest

from repro.api import Session
from repro.obs import Metrics
from repro.resilience.budget import BudgetScope
from repro.resilience.faults import FAULT_SITES
from repro.workloads.tpch_queries import tpch_query

Q3 = tpch_query("Q3").sql


class TestRegistry:
    def test_counters_gauges_histograms(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 2)
        m.set_gauge("g", 7)
        m.observe("h", 3)
        m.observe("h", 1)
        assert m.counter("a") == 3
        assert m.gauge("g") == 7
        assert m.histogram("h") == {"count": 2, "sum": 4, "min": 1, "max": 3}
        assert m.counter("missing") == 0
        assert m.gauge("missing") is None
        assert m.histogram("missing") is None

    def test_bool_and_reset(self):
        m = Metrics()
        assert not m
        m.inc("a")
        assert m
        m.reset()
        assert not m
        assert m.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_render_mentions_every_series(self):
        m = Metrics()
        assert m.render() == "(no metrics recorded)"
        m.inc("polls", 2)
        m.set_gauge("size", 5)
        m.observe("batch", 10)
        text = m.render()
        assert "polls = 2" in text
        assert "size = 5" in text
        assert "batch: count=1" in text

    def test_render_prometheus_exposition(self):
        m = Metrics()
        assert m.render_prometheus() == ""
        m.inc("explore.batch.polls", 3)
        m.set_gauge("memo.groups", 12)
        m.observe("batch.size", 64)
        m.observe("batch.size", 16)
        text = m.render_prometheus()
        assert text.endswith("\n")
        assert "# TYPE repro_explore_batch_polls_total counter" in text
        assert "repro_explore_batch_polls_total 3" in text
        assert "# TYPE repro_memo_groups gauge" in text
        assert "repro_memo_groups 12" in text
        assert "# TYPE repro_batch_size summary" in text
        assert "repro_batch_size_count 2" in text
        assert "repro_batch_size_sum 80" in text
        assert "repro_batch_size_min 16" in text
        assert "repro_batch_size_max 64" in text
        # Every non-comment line is "<name> <value>" — parseable exposition.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.split(" ")
            assert name.startswith("repro_")
            float(value)

    def test_render_prometheus_custom_prefix(self):
        m = Metrics()
        m.inc("a.b", 1)
        assert "opt_a_b_total 1" in m.render_prometheus(prefix="opt")


class TestCheckpointObserver:
    def test_scope_feeds_observer_before_budget_checks(self):
        m = Metrics()
        scope = BudgetScope(observer=m)
        scope.checkpoint("explore.batch", units=4)
        scope.checkpoint("explore.batch")
        assert m.counter("checkpoint.polls") == 2
        assert m.counter("explore.batch.polls") == 2
        assert m.counter("explore.batch.units") == 4

    def test_traced_optimize_counts_hot_loop_sites(self):
        session = Session.tpch(seed=0)
        session.optimize(Q3, trace=True)
        m = session.metrics
        assert m.counter("checkpoint.polls") > 0
        # The exact pipeline's loops all report through their sites.
        assert m.counter("explore.batch.polls") > 0
        assert m.counter("implement.columnar.polls") > 0
        assert m.counter("bestplan.layer.polls") > 0
        # Units add up to the memo the run actually built.
        assert m.gauge("memo.groups") > 0
        assert m.gauge("memo.logical_exprs") > 0
        assert m.gauge("memo.physical_exprs") > 0

    def test_sampled_optimize_records_draws(self):
        session = Session.tpch(seed=0)
        result = session.optimize(Q3, method="sampled", trace=True, samples=64)
        assert session.metrics.counter("sampler.draws") == result.samples
        assert session.metrics.counter("implicit.count.polls") > 0


class TestFaultSiteLockstep:
    def test_every_fault_site_reports_metrics(self):
        """The metrics counter-name site set equals ``FAULT_SITES``.

        Both registries ride the same ``BudgetScope.checkpoint`` /
        ``fault_point`` instrumentation, so a hot loop visible to fault
        injection must be visible to metrics and vice versa.  A sweep
        covering every route — exact, sampled, implicit counting,
        instrumented execution — must poll exactly the sites the fault
        registry names; a mismatch means one layer
        gained an instrumentation point the other lost.
        """
        observed: set[str] = set()

        def harvest(metrics: Metrics) -> None:
            for name, value in metrics.snapshot()["counters"].items():
                if name.endswith(".polls") and value > 0:
                    site = name[: -len(".polls")]
                    if site != "checkpoint":
                        observed.add(site)

        # Exact, columnar engine (explore.batch / implement.columnar /
        # bestplan.layer) plus instrumented execution (execute.operator).
        session = Session.tpch(seed=0)
        session.optimize(Q3, trace=True)
        session.execute_detailed(Q3, analyze=True)
        harvest(session.metrics)

        # Sampled engine (implicit.count / sampled.batch).
        sampled_session = Session.tpch(seed=0)
        sampled_session.optimize(Q3, method="sampled", trace=True, samples=64)
        harvest(sampled_session.metrics)

        assert observed == set(FAULT_SITES)
        assert len(FAULT_SITES) == 6


class TestSessionLifecycle:
    def test_registry_fresh_per_session(self):
        first = Session.tpch(seed=0)
        first.optimize(Q3, trace=True)
        assert first.metrics
        second = Session.tpch(seed=0)
        assert not second.metrics

    def test_reset_between_calls(self):
        session = Session.tpch(seed=0)
        session.optimize(Q3, trace=True)
        before = session.metrics.counter("checkpoint.polls")
        assert before > 0
        session.metrics.reset()
        assert not session.metrics
        session.optimize(Q3, trace=True)
        assert session.metrics.counter("checkpoint.polls") == before

    def test_resilient_records_degradation_trigger(self):
        session = Session.tpch(seed=0)
        with pytest.raises(Exception):
            # An impossible expression ceiling forces the ladder to fire
            # on the exact tier; on_budget="raise" then propagates.
            session.optimize(
                Q3, max_expressions=1, on_budget="raise", trace=True
            )
        session2 = Session.tpch(seed=0)
        result = session2.optimize(Q3, max_expressions=1, trace=True)
        assert result.resilience.degraded
        assert session2.metrics.counter("degrade.triggers") >= 1
