"""The span-tree contract: shape determinism, JSON round-trips, and the
disabled-by-default fast path."""

import json

import pytest

from repro.api import Session
from repro.obs import PhaseTimer, Span, Tracer, active_tracer, phase, tracing
from repro.workloads.synthetic import star_query
from repro.workloads.tpch_queries import tpch_query

Q3 = tpch_query("Q3").sql


@pytest.fixture(scope="module")
def session():
    return Session.tpch(seed=0)


class TestSpanPrimitives:
    def test_live_span_nesting(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    inner.add("widgets", 3)
                outer.add("calls")
        root = tracer.root
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner"]
        assert root.counters == {"calls": 1}
        assert root.children[0].counters == {"widgets": 3}
        assert root.elapsed_s >= root.children[0].elapsed_s

    def test_record_attaches_posthoc(self):
        tracer = Tracer()
        with tracing(tracer):
            with tracer.span("outer"):
                tracer.record("batched", 0.25, counters={"batches": 4})
        child = tracer.root.children[0]
        assert child.name == "batched"
        assert child.elapsed_s == 0.25
        assert child.counters == {"batches": 4}

    def test_find_and_phase_seconds(self):
        root = Span("optimize")
        child = Span("explore")
        child.elapsed_s = 0.5
        root.children.append(child)
        assert root.find("explore") is child
        assert root.find("missing") is None
        assert root.phase_seconds() == {"explore": 0.5}

    def test_nested_tracing_rejected(self):
        with tracing(Tracer()):
            with pytest.raises(RuntimeError):
                with tracing(Tracer()):
                    pass  # pragma: no cover
        assert active_tracer() is None

    def test_tracer_cleared_after_exception(self):
        with pytest.raises(ValueError):
            with tracing(Tracer()):
                raise ValueError("boom")
        assert active_tracer() is None

    def test_phase_without_tracer_is_a_timer(self):
        timer = phase("explore")
        assert isinstance(timer, PhaseTimer)
        with timer as t:
            t.add("ignored", 10)
        assert t.elapsed_s >= 0.0


class TestTraceShapeDeterminism:
    """For a fixed query the span tree is identical across runs except
    for wall times — the contract tooling diffs against."""

    def _trace(self, sql, **kwargs):
        result = Session.tpch(seed=0).optimize(sql, trace=True, **kwargs)
        return result.trace

    def test_exact_shape_stable(self):
        assert self._trace(Q3).shape() == self._trace(Q3).shape()

    def test_exact_phase_names(self, session):
        result = session.optimize(Q3, trace=True)
        names = [c.name for c in result.trace.children]
        assert names == [
            "parse",
            "bind",
            "setup",
            "explore",
            "annotate",
            "fused",
        ]
        fused = result.trace.children[-1]
        assert [c.name for c in fused.children] == ["implement", "bestplan"]

    def test_sampled_shape_stable(self):
        first = self._trace(Q3, method="sampled", samples=64, seed=7)
        second = self._trace(Q3, method="sampled", samples=64, seed=7)
        assert first.shape() == second.shape()
        names = [c.name for c in first.children]
        assert names == [
            "parse",
            "bind",
            "space",
            "strata",
            "sample",
            "recombine",
            "assemble",
        ]
        assert [c.name for c in first.find("space").children] == [
            "implicit.layout",
            "implicit.count",
        ]

    def test_resilient_trace_has_tier_spans(self, session):
        result = session.optimize(Q3, deadline_s=30.0, trace=True)
        tier = result.trace.find("tier.exact")
        assert tier is not None
        assert tier.find("bestplan") is not None

    def test_counters_match_memo(self, session):
        result = session.optimize(Q3, trace=True)
        explore = result.trace.find("explore")
        implement = result.trace.find("implement")
        assert explore.counters["groups"] == len(result.memo.groups)
        assert (
            explore.counters["logical_exprs"]
            == result.memo.logical_expression_count()
        )
        assert (
            implement.counters["physical_exprs"]
            == result.memo.physical_expression_count()
        )

    def test_trace_durations_match_timings(self, session):
        """Spans and the optimizer's timings dict are the same
        measurement, not two clocks that drift."""
        result = session.optimize(Q3, trace=True)
        for name, elapsed in result.timings.items():
            if not isinstance(elapsed, float):
                continue  # annotations like the pruned-state count
            span = result.trace.find(name)
            assert span is not None, name
            assert span.elapsed_s == elapsed


class TestJsonRoundTrip:
    def test_span_round_trip(self, session):
        result = session.optimize(Q3, trace=True)
        root = result.trace
        restored = Span.from_dict(json.loads(json.dumps(root.to_dict())))
        assert restored.shape() == root.shape()
        assert restored.elapsed_s == root.elapsed_s
        assert restored.find("bestplan").elapsed_s == (
            root.find("bestplan").elapsed_s
        )

    def test_render_has_one_line_per_span(self, session):
        result = session.optimize(Q3, trace=True)
        lines = result.trace.render().splitlines()
        count = sum(1 for _ in _iter(result.trace))
        assert len(lines) == count


def _iter(span):
    yield span
    for child in span.children:
        yield from _iter(child)


class TestChromeTrace:
    def _tree(self):
        root = Span("optimize")
        root.elapsed_s = 0.010
        first = Span("parse")
        first.elapsed_s = 0.002
        second = Span("explore")
        second.elapsed_s = 0.006
        second.add("groups", 7)
        root.children = [first, second]
        return root

    def test_events_one_per_span(self):
        events = self._tree().to_chrome_trace()
        assert [e["name"] for e in events] == ["optimize", "parse", "explore"]
        for e in events:
            assert e["ph"] == "X"
            assert e["pid"] == 1 and e["tid"] == 1
            assert e["dur"] >= 0

    def test_synthesized_timeline_nests(self):
        events = {e["name"]: e for e in self._tree().to_chrome_trace()}
        root, parse, explore = (
            events["optimize"],
            events["parse"],
            events["explore"],
        )
        assert root["ts"] == 0.0
        assert parse["ts"] == 0.0
        # The second child starts where the first ended...
        assert explore["ts"] == pytest.approx(parse["dur"])
        # ...and every child fits inside the root's extent.
        for child in (parse, explore):
            assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-6

    def test_counters_become_args(self):
        events = self._tree().to_chrome_trace()
        explore = next(e for e in events if e["name"] == "explore")
        assert explore["args"] == {"groups": 7}
        assert "args" not in next(e for e in events if e["name"] == "parse")

    def test_json_serializable_from_real_trace(self, session):
        result = session.optimize(Q3, trace=True)
        events = result.trace.to_chrome_trace(pid=7, tid=3)
        payload = json.loads(json.dumps({"traceEvents": events}))
        assert len(payload["traceEvents"]) == sum(
            1 for _ in _iter_spans(result.trace)
        )
        assert all(e["pid"] == 7 for e in payload["traceEvents"])


def _iter_spans(span):
    yield span
    for child in span.children:
        yield from _iter_spans(child)


class TestDisabledPath:
    def test_untraced_result_has_no_trace(self, session):
        result = session.optimize(Q3)
        assert result.trace is None

    def test_untraced_call_leaves_metrics_empty(self):
        fresh = Session.tpch(seed=0)
        fresh.optimize(Q3)
        assert not fresh.metrics
        assert fresh.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_no_ambient_tracer_outside_traced_call(self, session):
        session.optimize(Q3, trace=True)
        assert active_tracer() is None

    def test_untraced_cost_is_per_phase_not_per_expression(self, monkeypatch):
        """An untraced optimize builds no span and one stopwatch per
        phase, however large the memo: from star4 (125 memo
        expressions) to star12 (92,221) the count stays put."""
        built = []
        for cls in (Span, PhaseTimer):
            init = cls.__init__

            def counted(self, name, init=init):
                built.append(type(self).__name__)
                init(self, name)

            monkeypatch.setattr(cls, "__init__", counted)
        for n in (4, 8, 12):
            workload = star_query(n, rows=5, seed=0)
            built.clear()
            Session(workload.database).optimize(workload.sql)
            assert built == ["PhaseTimer"] * 8, n


class TestThreadIsolation:
    """The ambient tracer is a contextvar: concurrent traced calls on
    different threads build disjoint span trees (the module-global
    version made one thread's spans land in the other's tree, or raised
    "a tracer is already active")."""

    def test_two_threads_trace_concurrently_and_disjointly(self):
        import threading

        barrier = threading.Barrier(2)
        trees = {}
        errors = []

        def traced(name):
            tracer = Tracer()
            try:
                with tracing(tracer):
                    barrier.wait(5)
                    with tracer.span(name):
                        with phase(f"{name}.child") as span:
                            span.add("work", 1)
                trees[name] = tracer.root
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=traced, args=(name,))
            for name in ("left", "right")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors
        for name in ("left", "right"):
            root = trees[name]
            assert root.name == name
            # Exactly this thread's child — nothing leaked across.
            assert [c.name for c in root.children] == [f"{name}.child"]
        assert active_tracer() is None

    def test_two_sessions_optimize_traced_in_parallel(self, session):
        import threading

        reference = session.optimize(Q3, trace=True)
        expected = sorted(s.name for s in _iter_spans(reference.trace))

        barrier = threading.Barrier(2)
        traces = {}
        errors = []

        def run(i):
            worker = Session(session.database)
            try:
                barrier.wait(5)
                traces[i] = worker.optimize(Q3, trace=True).trace
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not errors
        left, right = traces[0], traces[1]
        assert left is not right
        # Each tree is complete and uncontaminated: the same span names
        # as a serial traced run, no more, no fewer.
        assert sorted(s.name for s in _iter_spans(left)) == expected
        assert sorted(s.name for s in _iter_spans(right)) == expected
