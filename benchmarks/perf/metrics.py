"""Metric names, units and directions, and the percentile rule.

Later issues quote these names verbatim.  ``END_TO_END`` is what a user
of the system sees; ``PER_LAYER`` is what the staged run reads at each
layer boundary.  ``failed_share`` is reported by ``run`` like the other
seven end-to-end metrics, but BENCHMARK.json lists only metrics that are
never 0, so the driver reads it from the result's ``failed`` /
``attempted`` fields instead.
"""

from __future__ import annotations

import math

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "req_per_s": ("1/s", "higher"),
    "req_p50_ms": ("ms", "lower"),
    "req_p90_ms": ("ms", "lower"),
    "cpu_ms_per_req": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_share": ("ratio", "lower"),
    "plan_cost_ratio": ("ratio", "lower"),
}

#: span name -> metric; a ``busy_ms`` metric is the span's total self
#: time divided by the requests of the staged run
BUSY_MS = (
    "sql.parse",
    "sql.bind",
    "serving.fingerprint",
    "serving.cache.lookup",
    "serving.cache.admit",
    "memo.replay",
    "optimizer.setup",
    "optimizer.explore",
    "optimizer.annotate",
    "optimizer.implement",
    "optimizer.bestplan",
    "planspace.layout",
    "planspace.count",
    "planspace.sample_ranks",
    "sampledopt.strata",
    "sampledopt.cost",
    "sampledopt.recombine",
    "executor.execute",
    "testing.compare",
)

PER_LAYER = {
    **{f"{span}.busy_ms": ("ms", "lower") for span in BUSY_MS},
    # planspace.unrank is timed per call, not per request: a sampled
    # request makes a hundred of them, a plan-test request one
    "planspace.unrank.busy_us": ("us", "lower"),
    "serving.cache.plan_hit_share": ("ratio", "higher"),
    "serving.cache.template_hit_share": ("ratio", "higher"),
    "serving.cache.plan_evictions": ("count", "lower"),
    "serving.cache.template_evictions": ("count", "lower"),
    "serving.server.queue_wait_ms": ("ms", "lower"),
    "serving.server.service_p50_ms": ("ms", "lower"),
    "serving.server.service_p99_ms": ("ms", "lower"),
    "optimizer.explore.logical_exprs": ("count", "lower"),
    "optimizer.implement.physical_exprs": ("count", "lower"),
    "optimizer.bestplan.dp_states": ("count", "lower"),
    "optimizer.bestplan.pruned_share": ("ratio", "higher"),
    "resilience.budget_overhead_share": ("ratio", "lower"),
    "resilience.degraded_share": ("ratio", "lower"),
    "planspace.count.groups": ("count", "lower"),
    "sampledopt.fragments": ("count", "lower"),
    "executor.rows_out": ("count", "higher"),
    "client.req_p99_ms": ("ms", "lower"),
    "client.trace_overhead_share": ("ratio", "lower"),
    "client.layers_cover_share": ("ratio", "higher"),
}

#: counters that must repeat exactly for a seed (the staged run is
#: single-client and replays a fixed number of rounds)
DETERMINISTIC = (
    "serving.cache.plan_hit_share",
    "serving.cache.template_hit_share",
    "serving.cache.plan_evictions",
    "serving.cache.template_evictions",
    "optimizer.explore.logical_exprs",
    "optimizer.implement.physical_exprs",
    "optimizer.bestplan.dp_states",
    "optimizer.bestplan.pruned_share",
    "resilience.degraded_share",
    "planspace.count.groups",
    "sampledopt.fragments",
    "executor.rows_out",
)

COVER_RANGE = (0.90, 1.10)
#: a percentile is reported only with this many samples beyond it
SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(n_samples: int, q: float) -> bool:
    """The percentile rule: at least ten samples lie beyond ``q``."""
    return n_samples - math.ceil(q * n_samples - 1e-9) >= SAMPLES_BEYOND
