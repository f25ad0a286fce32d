"""The degradation ladder: exact → sampled → heuristic under one budget.

These tests drive :func:`repro.resilience.degrade.optimize_resilient`
directly (and through :class:`repro.api.Session`) and assert the ladder's
contract: every budgeted call returns an executable, costed plan; the
report says which tier served and why; and the unbudgeted path is
byte-identical to the historical exact optimizer.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.api import Session
from repro.errors import BudgetError, Cancelled, PlanSpaceError, TimeoutExceeded
from repro.executor.executor import PlanExecutor
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.resilience import Budget, CancellationToken
from repro.resilience.degrade import (
    DegradationPolicy,
    ResilienceReport,
    TierAttempt,
    optimize_resilient,
)
from repro.resilience.faults import FaultSpec, inject
from repro.resilience.heuristic import (
    greedy_quantifier_order,
    optimize_heuristic,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.reference_pipeline import assert_matches_reference, reference_heuristic

NO_CROSS = OptimizerOptions(allow_cross_products=False)


def _bind(workload):
    return Binder(workload.catalog).bind(parse(workload.sql))


def _execute(workload, plan):
    return PlanExecutor(workload.database).execute(plan)


@pytest.fixture(scope="module")
def clique6():
    return clique_query(6)


@pytest.fixture(scope="module")
def clique10():
    return clique_query(10)


# ------------------------------------------------------------ exact tier
def test_generous_deadline_serves_exact_identically(clique6):
    """A deadline that never bites must not change the plan at all."""
    bound = _bind(clique6)
    plain = Optimizer(clique6.catalog, NO_CROSS).optimize(bound)
    budgeted = optimize_resilient(
        clique6.catalog, bound, NO_CROSS, budget=Budget(deadline_s=300.0)
    )
    assert budgeted.resilience.tier == "exact"
    assert budgeted.resilience.trigger is None
    assert not budgeted.resilience.degraded
    assert budgeted.best_cost == plain.best_cost
    assert budgeted.best_plan.render() == plain.best_plan.render()
    assert plain.resilience is None  # unbudgeted runs carry no report


def test_unbudgeted_session_has_no_report(clique6):
    session = Session(clique6.database, options=NO_CROSS)
    result = session.optimize(clique6.sql)
    assert result.resilience is None
    assert result.engine == "columnar"


# ------------------------------------------------------- degraded serves
def test_tight_deadline_degrades_but_serves(clique10):
    bound = _bind(clique10)
    started = time.perf_counter()
    result = optimize_resilient(
        clique10.catalog, bound, NO_CROSS, budget=Budget(deadline_s=0.1)
    )
    wall = time.perf_counter() - started
    report = result.resilience
    assert report.degraded
    assert report.trigger == "timeout"
    assert report.attempts[0].tier == "exact"
    assert report.attempts[0].outcome == "timeout"
    assert report.attempts[-1].outcome == "served"
    assert wall < 5.0  # far from the exact path's full cost
    assert math.isfinite(result.best_cost) and result.best_cost > 0
    assert _execute(clique10, result.best_plan).rows


def test_clique12_one_second_deadline_acceptance():
    """The issue's acceptance bar: clique12, 1s deadline, an executable
    costed plan in < 2s wall with tier and trigger reported."""
    workload = clique_query(12)
    bound = _bind(workload)
    started = time.perf_counter()
    result = optimize_resilient(
        workload.catalog, bound, NO_CROSS, budget=Budget(deadline_s=1.0)
    )
    wall = time.perf_counter() - started
    assert wall < 2.0
    report = result.resilience
    assert report.tier != "exact"
    assert report.trigger == "timeout"
    assert math.isfinite(result.best_cost) and result.best_cost > 0
    assert result.best_plan.render()
    assert _execute(workload, result.best_plan).rows


def test_sampled_tier_serves_when_exact_faults(clique6):
    """A broken exact tier (arbitrary, non-budget fault) falls through to
    the sampled engine, which serves with the full remaining budget."""
    bound = _bind(clique6)
    with inject(FaultSpec("bestplan.layer", action="raise")):
        result = optimize_resilient(clique6.catalog, bound, NO_CROSS)
    report = result.resilience
    assert report.tier == "sampled"
    assert report.trigger == "error"
    assert [a.tier for a in report.attempts] == ["exact", "sampled"]
    assert report.attempts[0].outcome == "error"
    assert "InjectedFault" in report.attempts[0].detail
    assert _execute(clique6, result.best_plan).rows


def test_heuristic_tier_is_the_floor(clique10):
    """With essentially no time at all, the greedy tier still serves."""
    bound = _bind(clique10)
    result = optimize_resilient(
        clique10.catalog, bound, NO_CROSS, budget=Budget(deadline_s=1e-6)
    )
    report = result.resilience
    assert report.tier == "heuristic"
    assert result.engine == "heuristic"
    # Sampled was skipped, not attempted: no time left for a space build.
    sampled = [a for a in report.attempts if a.tier == "sampled"]
    assert sampled and sampled[0].outcome == "skipped"
    assert _execute(clique10, result.best_plan).rows


# --------------------------------------------------------- cancellation
def test_pre_cancelled_token_goes_straight_to_heuristic(clique6):
    token = CancellationToken()
    token.cancel()
    result = optimize_resilient(
        clique6.catalog, _bind(clique6), NO_CROSS, token=token
    )
    report = result.resilience
    assert report.tier == "heuristic"
    assert report.trigger == "cancelled"
    sampled = [a for a in report.attempts if a.tier == "sampled"]
    assert sampled and sampled[0].outcome == "skipped"


def test_cancellation_latency_is_bounded(clique10):
    """Cancelling mid-exploration is observed within checkpoint
    granularity — far sooner than the full optimization would take."""
    # The cancel must land well inside the exact run: clique10 takes
    # 145-200 ms on a 2-core host, so a cancel at 0.15 s let a fast run
    # finish first (exact tier, no trigger) in about half the runs.
    cancel_after_s = 0.05
    token = CancellationToken()
    timer = threading.Timer(cancel_after_s, token.cancel)
    timer.start()
    try:
        started = time.perf_counter()
        result = optimize_resilient(
            clique10.catalog,
            _bind(clique10),
            NO_CROSS,
            budget=Budget(deadline_s=60.0),
            token=token,
        )
        latency = time.perf_counter() - started - cancel_after_s
    finally:
        timer.cancel()
    assert result.resilience.trigger == "cancelled"
    assert result.resilience.tier == "heuristic"
    assert latency < 1.0  # bounded by the widest checkpoint interval
    assert _execute(clique10, result.best_plan).rows


# --------------------------------------------------------------- ceilings
def test_expression_ceiling_degrades(clique6):
    result = optimize_resilient(
        clique6.catalog,
        _bind(clique6),
        NO_CROSS,
        budget=Budget(max_expressions=20),
    )
    report = result.resilience
    assert report.trigger == "resource"
    assert report.tier == "heuristic"  # sampled trips the same ceiling
    assert _execute(clique6, result.best_plan).rows


def test_memory_ceiling_skips_sampled(clique6):
    # Peak RSS never shrinks, so retrying a cheaper tier under the same
    # ceiling is futile: the ladder must go straight to the heuristic.
    result = optimize_resilient(
        clique6.catalog,
        _bind(clique6),
        NO_CROSS,
        budget=Budget(max_memory_mb=0.001),
    )
    report = result.resilience
    assert report.trigger == "resource"
    assert report.tier == "heuristic"
    sampled = [a for a in report.attempts if a.tier == "sampled"]
    assert sampled and sampled[0].outcome == "skipped"
    assert "RSS" in sampled[0].detail


# ------------------------------------------------------------ raise mode
def test_on_budget_raise_propagates_timeout(clique10):
    with pytest.raises(TimeoutExceeded):
        optimize_resilient(
            clique10.catalog,
            _bind(clique10),
            NO_CROSS,
            budget=Budget(deadline_s=0.05),
            on_budget="raise",
        )


def test_on_budget_raise_propagates_cancellation(clique6):
    token = CancellationToken()
    token.cancel()
    with pytest.raises(Cancelled):
        optimize_resilient(
            clique6.catalog,
            _bind(clique6),
            NO_CROSS,
            token=token,
            on_budget="raise",
        )


def test_on_budget_raise_still_degrades_on_non_budget_faults(clique6):
    """raise mode is a *budget* policy: a broken tier still degrades."""
    bound = _bind(clique6)
    with inject(FaultSpec("explore.batch", action="raise")):
        result = optimize_resilient(
            clique6.catalog, bound, NO_CROSS, on_budget="raise"
        )
    assert result.resilience.tier == "sampled"
    assert result.resilience.trigger == "error"


def test_on_budget_validated(clique6):
    with pytest.raises(BudgetError, match="on_budget"):
        optimize_resilient(
            clique6.catalog, _bind(clique6), NO_CROSS, on_budget="panic"
        )


# ------------------------------------------------------- report & policy
def test_policy_validates_exact_fraction():
    with pytest.raises(BudgetError):
        DegradationPolicy(exact_fraction=0.0)
    with pytest.raises(BudgetError):
        DegradationPolicy(exact_fraction=1.5)
    DegradationPolicy(exact_fraction=1.0)  # the full deadline is legal


def test_report_shape(clique10):
    result = optimize_resilient(
        clique10.catalog,
        _bind(clique10),
        NO_CROSS,
        budget=Budget(deadline_s=0.1),
    )
    report = result.resilience
    assert isinstance(report, ResilienceReport)
    as_dict = report.to_dict()
    assert set(as_dict) == {
        "tier",
        "trigger",
        "deadline_s",
        "elapsed_s",
        "attempts",
    }
    assert as_dict["deadline_s"] == 0.1
    assert all(
        set(a) == {"tier", "outcome", "elapsed_s", "detail"}
        for a in as_dict["attempts"]
    )
    text = report.describe()
    assert report.tier in text and "0.1s deadline" in text
    assert isinstance(report.attempts[0], TierAttempt)


# ------------------------------------------------------------- heuristic
def test_greedy_order_is_smallest_first_connected(clique6):
    bound = _bind(clique6)
    order = greedy_quantifier_order(clique6.catalog, bound, False)
    assert sorted(q.alias for q in order) == sorted(
        q.alias for q in bound.quantifiers
    )
    rows = [clique6.catalog.table_stats(q.table).row_count for q in order]
    assert rows[0] == min(rows)  # starts from the smallest table


def test_heuristic_result_is_a_real_optimization(clique10):
    bound = _bind(clique10)
    result = optimize_heuristic(clique10.catalog, bound, NO_CROSS)
    assert result.engine == "heuristic"
    assert math.isfinite(result.best_cost) and result.best_cost > 0
    assert result.best_plan.render()
    assert {"setup", "implement", "annotate", "bestplan"} <= set(
        result.timings
    )
    assert _execute(clique10, result.best_plan).rows


HEURISTIC_SHAPES = {
    "chain8": lambda: chain_query(8, rows=5, seed=0),
    "star7": lambda: star_query(7, rows=5, seed=0),
    "cycle6": lambda: cycle_query(6, rows=5, seed=0),
    "clique6": lambda: clique_query(6, rows=5, seed=0),
    "clique10": lambda: clique_query(10, rows=5, seed=0),
    "random7": lambda: random_query(7, 0.3, seed=3, rows=5),
}


@pytest.mark.parametrize("shape", HEURISTIC_SHAPES)
@pytest.mark.parametrize("cross", [False, True], ids=["no-cross", "cross"])
def test_heuristic_tier_matches_the_oracle_on_its_own_memo(shape, cross):
    """The tier reads its plan out of the exact tier's kernel (scalar
    emission: an unexplored memo has no logical store); the object
    implementation + search over the same greedy memo is the oracle."""
    workload = HEURISTIC_SHAPES[shape]()
    options = OptimizerOptions(allow_cross_products=cross)
    result = optimize_heuristic(workload.catalog, _bind(workload), options)
    assert result.memo.columnar is not None
    assert result.memo.columnar_logical is None
    assert_matches_reference(
        result, reference_heuristic(workload.catalog, workload.sql, options)
    )


@pytest.mark.parametrize("name", sorted(TPCH_QUERIES))
def test_heuristic_tier_matches_the_oracle_on_tpch(name):
    session = Session.tpch(seed=0)
    sql = TPCH_QUERIES[name].sql
    bound = Binder(session.catalog).bind(parse(sql))
    result = optimize_heuristic(session.catalog, bound, NO_CROSS)
    assert_matches_reference(
        result, reference_heuristic(session.catalog, sql, NO_CROSS)
    )


# ------------------------------------------------------------ session API
def test_session_deadline_roundtrip(clique10):
    session = Session(clique10.database, options=NO_CROSS)
    result = session.optimize(clique10.sql, deadline_s=0.1)
    assert result.resilience is not None
    assert result.resilience.degraded
    assert result.explain()


def test_session_rejects_deadline_on_sampled_method(clique6):
    session = Session(clique6.database, options=NO_CROSS)
    with pytest.raises(PlanSpaceError):
        session.optimize(clique6.sql, method="sampled", deadline_s=1.0)


# ------------------------------------------------- degraded-plan property
@pytest.mark.parametrize("seed", range(5))
def test_degraded_plans_render_cost_execute(seed):
    """Property: whatever tier serves, the plan renders, costs finitely,
    and executes — across random join topologies."""
    workload = random_query(7, edge_density=0.5, seed=seed)
    bound = _bind(workload)
    # Force degradation regardless of how fast exact is on this shape.
    with inject(FaultSpec("explore.batch", action="raise")):
        result = optimize_resilient(
            workload.catalog,
            bound,
            NO_CROSS,
            budget=Budget(deadline_s=30.0),
        )
    assert result.resilience.degraded
    assert result.best_plan.render()
    assert math.isfinite(result.best_cost) and result.best_cost > 0
    executed = _execute(workload, result.best_plan)
    assert executed.columns
