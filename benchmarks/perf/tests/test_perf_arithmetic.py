"""Percentile rule, span self-time arithmetic, A/B verdicts."""

import gc

import pytest

from benchmarks.perf.compare import quartiles, spread, verdict
from benchmarks.perf.metrics import percentile, supported
from benchmarks.perf.spans import GC_SPAN, SpanRecorder, self_times


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0 and percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == 2.5
    assert percentile(range(101), 0.9) == 90
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_percentile_rule_needs_ten_samples_beyond():
    assert supported(100, 0.9) and not supported(99, 0.9)
    assert supported(1000, 0.99) and not supported(999, 0.99)
    assert supported(20, 0.5)


def test_self_time_is_duration_minus_children():
    #        name       start end parent request
    spans = [
        ("request", 0.0, 10.0, -1, 0),
        ("sql.parse", 1.0, 3.0, 0, 0),
        ("optimizer.explore", 3.0, 9.0, 0, 0),
        (GC_SPAN, 4.0, 5.5, 2, 0),
        ("request", 10.0, 12.0, -1, 1),
        ("sql.parse", 10.5, 11.0, 4, 1),
    ]
    totals = self_times(spans)
    assert totals["sql.parse"] == pytest.approx(2.5)
    assert totals["optimizer.explore"] == pytest.approx(4.5)  # 6 - 1.5 of gc
    assert totals[GC_SPAN] == pytest.approx(1.5)
    assert totals["request"] == pytest.approx(2.0 + 1.5)
    assert sum(totals.values()) == pytest.approx(12.0)


def test_recorder_nests_and_sees_the_collector():
    recorder = SpanRecorder()
    with recorder.watching_gc():
        with recorder.span("request"):
            with recorder.span("layer"):
                gc.collect()
        gc.collect()  # no span open: not recorded
    rows = list(recorder.rows())
    assert [row[0] for row in rows] == ["request", "layer", GC_SPAN]
    assert [row[3] for row in rows] == [-1, 0, 1]
    assert all(end >= start for _n, start, end, _p, _r in rows)
    assert recorder._gc_event not in gc.callbacks


def test_quartiles_spread_and_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread(base) < 0.01 and spread([1.0] * 5) == 0.0
    assert verdict(base, base, 0.05, "lower") == "within"
    slower = [v * 1.2 for v in base]
    assert verdict(base, slower, 0.05, "lower") == "worse"
    assert verdict(base, slower, 0.05, "higher") == "better"
    assert verdict(slower, base, 0.05, "lower") == "better"
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0, 95.0, 105.0, 100.0]
    assert verdict(base, noisy, 0.05, "lower") == "unresolved"
