"""Engine selection is a function of the query, pinned from the input side.

The exact path has one production engine (columnar) and exactly one
input-derived fork: a query the columnar store cannot represent (more
than 24 relations / 254 key columns) is served by the object engine, and
the result says so.  Nothing else — no option, no environment variable —
moves a query between engines (``tests/test_no_switches.py`` guards the
absence of the switches themselves).
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.executor.executor import PlanExecutor
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import ExplorationStrategy, OptimizerOptions
from repro.resilience.heuristic import optimize_heuristic
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.testing.diff import canonical_rows
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)
from tests.reference_pipeline import assert_matches_reference, optimize_reference

PHASES = {"setup", "explore", "annotate", "implement", "bestplan", "fused"}


@pytest.mark.parametrize(
    "make,n",
    [(star_query, 6), (clique_query, 5), (cycle_query, 7), (chain_query, 24)],
    ids=["star6", "clique5", "cycle7", "chain24"],
)
def test_default_options_take_the_columnar_engine(make, n):
    workload = make(n, rows=5, seed=0)
    result = Session(workload.database).optimize(workload.sql)
    assert result.engine == "columnar"
    assert result.fallback_reason is None
    assert result.memo.columnar is not None
    assert result.memo.columnar_logical is not None
    assert {"states", "pruned"} <= set(result.dp_stats)
    assert result.timings["pruned_states"] == result.dp_stats["pruned"]
    assert PHASES <= set(result.timings)


@pytest.mark.parametrize("make", [chain_query, cycle_query], ids=["chain25", "cycle25"])
def test_beyond_the_relation_limit_the_object_engine_serves(make):
    workload = make(25, rows=5, seed=0)
    result = Session(workload.database).optimize(workload.sql)
    assert result.engine == "object"
    assert "at most 24 relations (25 given)" in result.fallback_reason
    # Exploration is not part of the fork: it stays batched.
    assert result.memo.columnar_logical is not None
    assert result.memo.columnar is None
    assert result.dp_stats is None
    assert PHASES <= set(result.timings)
    # The plan is a real plan: it returns the rows the greedy tier's does.
    bound = Binder(workload.catalog).bind(parse(workload.sql))
    heuristic = optimize_heuristic(workload.catalog, bound)
    executor = PlanExecutor(workload.database)
    rows = executor.execute(result.best_plan).rows
    assert rows
    assert canonical_rows(rows) == canonical_rows(
        executor.execute(heuristic.best_plan).rows
    )
    assert result.best_cost <= heuristic.best_cost


@pytest.mark.parametrize(
    "options",
    [
        OptimizerOptions(
            implementation=ImplementationConfig(enable_index_nl_join=True)
        ),
        OptimizerOptions(exploration=ExplorationStrategy.TRANSFORMATION),
    ],
    ids=["index-nl-join", "transformation"],
)
def test_scalar_emission_is_still_the_columnar_engine(options):
    """Index-lookup joins and the rule-driven explorer change how the
    columnar store is *emitted* (per group, not per bucket) — not which
    engine serves, and not what it returns."""
    workload = cycle_query(5, rows=5, seed=0)
    result = Session(workload.database, options=options).optimize(workload.sql)
    assert result.engine == "columnar"
    assert result.fallback_reason is None
    assert result.memo.columnar is not None
    assert_matches_reference(
        result, optimize_reference(workload.catalog, workload.sql, options)
    )
