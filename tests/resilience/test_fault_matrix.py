"""The fault-injection matrix: every site × {raise, delay}.

The matrix iterates :data:`repro.resilience.faults.FAULT_SITES` so a new
``fault_point`` in a hot loop is exercised the moment it is registered.
For every site it proves the three resilience invariants:

1. **recovery** — the degradation ladder still serves an executable,
   costed plan after the fault (or, for executor faults, the session
   survives and re-executes cleanly);
2. **memo consistency** — an interrupted columnar build never leaves a
   half-built store attached to the memo (stale ``memo.columnar`` /
   ``memo.columnar_logical`` must not survive);
3. **bounded stall** — a ``delay`` fault only stalls until the next
   checkpoint, where the deadline is observed and the ladder degrades.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import MemoError
from repro.executor.executor import PlanExecutor
from repro.memo.columnar import build_columnar_store, build_logical_store
from repro.optimizer.implementation import implement_memo_columnar
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.optimizer import (
    Optimizer,
    OptimizerOptions,
    _detach_stale_stores,
)
from repro.optimizer.setup import build_initial_memo
from repro.resilience import Budget, optimize_resilient
from repro.resilience.faults import (
    FAULT_SITES,
    FaultSpec,
    InjectedFault,
    fault_point,
    inject,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import clique_query

COLUMNAR = OptimizerOptions(allow_cross_products=False)

#: exact-tier sites and the (workload fixture, optimizer options,
#: delay-test deadline) that reach them.  The exact tier gets half the
#: deadline and must reach the site inside it.
EXACT_SITES = {
    "explore.batch": ("clique6", COLUMNAR, 0.2),
    "implement.columnar": ("clique6", COLUMNAR, 0.2),
    "bestplan.layer": ("clique6", COLUMNAR, 0.2),
}

#: the two exact-tier sites the heuristic tier passes as well — it runs
#: the same implementation + DP kernel over its one join order
SHARED_WITH_HEURISTIC = ("implement.columnar", "bestplan.layer")

#: sites only reachable once the ladder falls through to the sampled tier
SAMPLED_SITES = ("implicit.count", "sampled.batch")


@pytest.fixture(scope="module")
def clique6():
    return clique_query(6)


def _bind(workload):
    return Binder(workload.catalog).bind(parse(workload.sql))


def _assert_served(workload, result):
    assert result.best_plan is not None
    assert result.best_plan.render()
    assert math.isfinite(result.best_cost) and result.best_cost > 0
    executed = PlanExecutor(workload.database).execute(result.best_plan)
    assert executed.rows


def test_matrix_covers_every_registered_site():
    """Adding a fault site without wiring it into this matrix is an
    error: the registry and the matrix must stay in lock-step."""
    covered = set(EXACT_SITES) | set(SAMPLED_SITES) | {"execute.operator"}
    assert covered == set(FAULT_SITES)


# ----------------------------------------------------------- raise matrix
@pytest.mark.parametrize("site", sorted(EXACT_SITES))
def test_raise_in_exact_tier_degrades_and_serves(site, request):
    fixture, options, _deadline = EXACT_SITES[site]
    workload = request.getfixturevalue(fixture)
    bound = _bind(workload)
    with inject(FaultSpec(site, action="raise")) as injector:
        result = optimize_resilient(workload.catalog, bound, options)
    assert any(f.startswith(f"{site}#") for f in injector.fired)
    report = result.resilience
    assert report.degraded
    assert report.attempts[0].tier == "exact"
    assert report.attempts[0].outcome == "error"
    assert "InjectedFault" in report.attempts[0].detail
    _assert_served(workload, result)


@pytest.mark.parametrize("site", SAMPLED_SITES)
def test_raise_in_sampled_tier_falls_to_heuristic(site, clique6):
    bound = _bind(clique6)
    # Kill the exact tier first so the ladder reaches the sampled engine,
    # then fault the sampled site itself on its first hit there.
    with inject(
        FaultSpec("explore.batch", action="raise"),
        FaultSpec(site, action="raise"),
    ) as injector:
        result = optimize_resilient(clique6.catalog, bound, COLUMNAR)
    assert any(f.startswith(f"{site}#") for f in injector.fired)
    report = result.resilience
    assert report.tier == "heuristic"
    assert [a.outcome for a in report.attempts] == [
        "error",
        "error",
        "served",
    ]
    _assert_served(clique6, result)


@pytest.mark.parametrize("site", SHARED_WITH_HEURISTIC)
def test_heuristic_tier_serves_through_the_sites_it_shares(site, clique6):
    """A fault at hit 1 of a shared site fells the exact tier; with the
    sampled tier felled too, the heuristic tier passes the *same* site
    (hits 2+) and still serves an executable plan."""
    bound = _bind(clique6)
    with inject(
        FaultSpec(site, action="raise"),
        FaultSpec("implicit.count", action="raise"),
    ) as injector:
        result = optimize_resilient(clique6.catalog, bound, COLUMNAR)
    assert injector.fired == [f"{site}#1:raise", "implicit.count#1:raise"]
    assert injector.hits[site] >= 2  # the last tier did pass the site
    report = result.resilience
    assert report.tier == "heuristic" and result.engine == "heuristic"
    assert [a.outcome for a in report.attempts] == [
        "error",
        "error",
        "served",
    ]
    _assert_served(clique6, result)


def test_raise_in_executor_leaves_session_reusable(clique6):
    result = Optimizer(clique6.catalog, COLUMNAR).optimize(_bind(clique6))
    executor = PlanExecutor(clique6.database)
    clean = executor.execute(result.best_plan)
    with inject(FaultSpec("execute.operator", action="raise")):
        with pytest.raises(InjectedFault):
            executor.execute(result.best_plan)
    # The fault aborted one run; the executor and data are untouched.
    again = executor.execute(result.best_plan)
    assert again.rows == clean.rows


# ----------------------------------------------------------- delay matrix
@pytest.mark.parametrize("site", sorted(EXACT_SITES))
def test_delay_in_exact_tier_hits_the_deadline(site, request):
    """A stalled phase only stalls until the next checkpoint: the
    deadline fires there and the ladder serves a degraded plan."""
    fixture, options, deadline = EXACT_SITES[site]
    workload = request.getfixturevalue(fixture)
    bound = _bind(workload)
    stall = FaultSpec(site, action="delay", delay_s=deadline + 0.1)
    with inject(stall) as injector:
        result = optimize_resilient(
            workload.catalog,
            bound,
            options,
            budget=Budget(deadline_s=deadline),
        )
    assert any(f.startswith(f"{site}#") for f in injector.fired)
    report = result.resilience
    assert report.degraded
    assert report.attempts[0].outcome == "timeout"
    _assert_served(workload, result)


@pytest.mark.parametrize("site", SAMPLED_SITES)
def test_delay_in_sampled_tier_hits_the_deadline(site, clique6):
    bound = _bind(clique6)
    with inject(
        FaultSpec("explore.batch", action="raise"),
        FaultSpec(site, action="delay", delay_s=0.4),
    ) as injector:
        result = optimize_resilient(
            clique6.catalog,
            bound,
            COLUMNAR,
            budget=Budget(deadline_s=0.3),
        )
    assert any(f.startswith(f"{site}#") for f in injector.fired)
    report = result.resilience
    assert report.tier == "heuristic"
    assert [a.tier for a in report.attempts] == [
        "exact",
        "sampled",
        "heuristic",
    ]
    assert report.attempts[1].outcome == "timeout"
    _assert_served(clique6, result)


def test_delay_in_executor_returns_correct_rows(clique6):
    result = Optimizer(clique6.catalog, COLUMNAR).optimize(_bind(clique6))
    executor = PlanExecutor(clique6.database)
    clean = executor.execute(result.best_plan)
    with inject(FaultSpec("execute.operator", action="delay", delay_s=0.05)):
        delayed = executor.execute(result.best_plan)
    assert delayed.rows == clean.rows


# ------------------------------------------------------- memo consistency
def test_interrupted_logical_build_never_attaches(clique6):
    setup = build_initial_memo(_bind(clique6), False)
    with inject(FaultSpec("explore.batch", action="raise", nth=3)):
        with pytest.raises(InjectedFault):
            build_logical_store(setup.memo, setup.graph, False)
    assert setup.memo.columnar_logical is None


def test_interrupted_physical_build_never_attaches(clique6):
    setup = build_initial_memo(_bind(clique6), False)
    memo, graph = setup.memo, setup.graph
    EnumerationExplorer().explore(memo, graph, False)
    with inject(FaultSpec("implement.columnar", action="raise", nth=2)):
        with pytest.raises(InjectedFault):
            implement_memo_columnar(memo, graph, clique6.catalog)
    assert memo.columnar is None
    # The memo is not poisoned: a clean retry completes and matches an
    # untouched end-to-end run.
    implement_memo_columnar(memo, graph, clique6.catalog)
    assert memo.columnar is not None and memo.columnar.complete


def test_incomplete_store_refuses_to_attach(clique6):
    setup = build_initial_memo(_bind(clique6), False)
    store = build_logical_store(setup.memo, setup.graph, False)
    assert store.complete
    store.complete = False  # simulate an interrupted build
    with pytest.raises(MemoError, match="incomplete"):
        store.attach()
    assert setup.memo.columnar_logical is None


def test_detach_stale_stores_drops_only_incomplete(clique6):
    result = Optimizer(clique6.catalog, COLUMNAR).optimize(_bind(clique6))
    memo = result.memo
    assert memo.columnar is not None and memo.columnar.complete
    _detach_stale_stores(memo)  # complete stores survive the sweep
    assert memo.columnar is not None
    memo.columnar.complete = False
    _detach_stale_stores(memo)
    assert memo.columnar is None


def test_optimizer_late_fault_propagates_cleanly(clique6):
    """A fault raised after the stores attached (in the best-plan DP)
    propagates out of ``Optimizer.optimize`` unchanged — the stale-store
    guard drops *incomplete* state only and never swallows the error."""
    optimizer = Optimizer(clique6.catalog, COLUMNAR)
    with inject(FaultSpec("bestplan.layer", action="raise")):
        with pytest.raises(InjectedFault):
            optimizer.optimize(_bind(clique6))
    # The optimizer object itself is reusable afterwards.
    result = optimizer.optimize(_bind(clique6))
    assert result.memo.columnar is not None and result.memo.columnar.complete


# ------------------------------------------------------- harness plumbing
def test_fault_point_is_inert_without_injector():
    fault_point("explore.batch", None)  # no injector armed: no-op


def test_nested_injection_rejected():
    with inject(FaultSpec("explore.batch")):
        with pytest.raises(RuntimeError, match="already active"):
            with inject(FaultSpec("implement.columnar")):
                pass


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultSpec("no.such.site")
    with pytest.raises(ValueError, match="unknown fault action"):
        FaultSpec("explore.batch", action="explode")
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec("explore.batch", nth=0)
    with pytest.raises(ValueError, match="corrupt"):
        FaultSpec("explore.batch", action="corrupt")


def test_nth_hit_is_deterministic(clique6):
    """The same spec fires at the same hit on every run."""
    fired = []
    for _ in range(2):
        fresh = build_initial_memo(_bind(clique6), False)
        with inject(FaultSpec("explore.batch", action="raise", nth=4)) as inj:
            with pytest.raises(InjectedFault):
                build_logical_store(fresh.memo, fresh.graph, False)
        fired.append(tuple(inj.fired))
    assert fired[0] == fired[1] == ("explore.batch#4:raise",)
