"""Ownership on every route: a dropped result frees what the request
built by reference count and leaves the cycle collector nothing.

Owners point down and nothing points back up.  Implicit / sampled
routes: result → plan nodes → operators; pool → space → unranker →
tables → count state → layout → seed memo (``planspace/implicit/README.md``,
"Ownership and lifetime").  Exact routes: result → memo → groups →
pending hooks → columnar stores → operator cache, each store reading
its memo back through a weak reference (``memo/README.md``).  The
optimizers pause the cycle collector and a server may run with it off,
so anything caught in a cycle is memory held until some later full pass
walks it.  Each route below runs with the collector disabled; at
``del result`` (or, for a serving cache, at eviction) the weak
references to what the request built must already be dead, and a
``DEBUG_SAVEALL`` census of one ``gc.collect()`` must be empty.  Join
predicates cache nothing on themselves (``optimizer/rules.py``), so no
allowance is left for them.

At the parent of the implicit-route checks (commit c22bd4d) every such
route failed both checks.  Objects one request left for the collector,
clique6 with this file's arguments, parent → then (the remainder was
the predicate caches, gone since):

====================== ====== =====  ==================================
route                  parent  then  what pinned the space
====================== ====== =====  ==================================
sampled, stratified     9 768 1 731  ``FragmentPool.assemble``'s nested
sampled, quantile rule  9 019 1 922  ``build``: a closure over itself
sampled, budget-stopped 2 914   422  and the pool — hence the space: 65
reference-backed [*]_  11 317 1 731  ``ImplicitGroup``, 65 memo
no redundant sorts     12 460 1 782  ``Group``, every table/list/row
iterate_plans, all      1 291   465  ``_SortCountsView`` ↔ ``CountState``
iterate_plans, dropped  1 092   299  and ``_KidBytes`` ↔ ``KeyTable``:
count_plans             1 011   240  state, layout, seed memo, its 65
unrank                  1 078   315  groups, the key table
====================== ====== =====  ==================================

.. [*] Measured then; the route left with the reference count pass,
   which now lives under ``tests/`` as the count-pass oracle.

Before the exact routes pointed down, dropping one exact clique10
result and its plan left 7,679 objects for the collector (1,025
``Group``, 1,025 ``_PendingExprs``, the memo, both stores, and the
predicate caches); now 0.
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

import repro.memo.columnar as columnar
from repro.api import Session
from repro.memo.columnar import ColumnarLogicalStore, ColumnarPhysicalStore
from repro.memo.memo import Memo
from repro.optimizer.rules import PhysicalOperators
from repro.planspace.implicit import ImplicitPlanSpace
from repro.sampledopt import FragmentPool, QuantileTarget, SampledOptimizer
from repro.serving import PlanCache, PlanServer
from repro.workloads.synthetic import clique_query
from repro.workloads.tpch_queries import tpch_query

#: an exact request's memo and what it owns
EXACT_TYPES = (
    Memo,
    ColumnarLogicalStore,
    ColumnarPhysicalStore,
    PhysicalOperators,
)


@pytest.fixture(scope="module")
def workload():
    return clique_query(6, rows=5, seed=0)


@pytest.fixture
def watched(monkeypatch):
    """Weak references to every space (and what it owns) and every
    fragment pool constructed while the fixture is active."""
    refs: list[weakref.ref] = []
    space_init = ImplicitPlanSpace.__init__
    pool_init = FragmentPool.__init__

    def spy_space(self, state, *args, **kwargs):
        space_init(self, state, *args, **kwargs)
        owned = (
            self,
            state,
            state.layout,
            state.layout.memo,
            state.keys,
            state.operators,
            self.unranker.tables,
        )
        refs.extend(weakref.ref(obj) for obj in owned)

    def spy_pool(self, *args, **kwargs):
        pool_init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ImplicitPlanSpace, "__init__", spy_space)
    monkeypatch.setattr(FragmentPool, "__init__", spy_pool)
    return refs


def _sampled(session, sql, **kwargs):
    return session.optimize(sql, method="sampled", seed=1, **kwargs)


def _with_space(workload, **space_kwargs):
    space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql, **space_kwargs)
    return SampledOptimizer(workload.catalog).optimize_sql(
        workload.sql, samples=60, seed=1, space=space
    )


def _abandoned(session, sql):
    plans = session.iterate_plans(sql, sample=4, seed=2)
    return plans, next(plans)


#: route -> callable(session, workload) -> the result to drop
ROUTES = {
    "sampled-stratified": lambda s, w: _sampled(s, w.sql, samples=60),
    "sampled-quantile-target": lambda s, w: _sampled(
        s, w.sql, rule=QuantileTarget(quantile=0.05, confidence=0.9)
    ),
    "sampled-budget-stopped": lambda s, w: _sampled(
        s, w.sql, samples=10_000, batch_size=8, budget_s=1e-9
    ),
    "no-redundant-sorts": lambda s, w: _with_space(w, include_redundant_sorts=False),
    "iterate-plans-exhausted": lambda s, w: list(
        s.iterate_plans(w.sql, sample=4, seed=2)
    ),
    "iterate-plans-abandoned": lambda s, w: _abandoned(s, w.sql),
    "count-plans": lambda s, w: s.count_plans(w.sql),
    "unrank": lambda s, w: s.implicit_plan_space(w.sql).unrank(12345),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_dropped_result_frees_its_space(route, workload, watched):
    session = Session(workload.database)
    run = ROUTES[route]
    run(session, workload)  # warm-up: lazy imports, process-wide caches
    del watched[:]
    gc.collect()
    gc.disable()
    try:
        result = run(session, workload)
        assert watched, "the route built no implicit space"
        if route == "sampled-quantile-target":
            assert not result.stratified
        if route == "sampled-budget-stopped":
            assert result.stopped_because == "budget"
        del result
        _assert_dead(watched, "`del result`")
        census = _collector_census()
    finally:
        gc.enable()
    assert not census, f"left for the cycle collector: {_names(census)}"


def _names(census: Counter) -> dict[str, int]:
    return {cls.__name__: count for cls, count in census.most_common(12)}


def _assert_dead(refs, when: str) -> None:
    alive = Counter(type(ref()).__name__ for ref in refs if ref() is not None)
    assert not alive, f"still referenced after {when}: {dict(alive)}"


def _assert_exact_dead(watched, when: str) -> None:
    alive = Counter(kind for kind, ref in watched if ref() is not None)
    assert not alive, f"still referenced after {when}: {dict(alive)}"


def _collector_census() -> Counter:
    """Types of what one ``gc.collect()`` finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return Counter(type(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# ----------------------------------------------------------------------
# exact routes: the memo owns its stores, which read it back weakly
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tpch():
    return Session.tpch()


@pytest.fixture
def watched_exact(monkeypatch):
    """``(kind, weak reference)`` to every memo, columnar store and
    operator cache constructed while the fixture is active, and to each
    pair record's ordered-pair column (a record is a tuple, which takes
    no weak reference; the column is its own array, and dies with the
    record once the build is done)."""
    refs: list[tuple[str, weakref.ref]] = []

    def spy(cls):
        init = cls.__init__

        def spying_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refs.append((cls.__name__, weakref.ref(self)))

        monkeypatch.setattr(cls, "__init__", spying_init)

    for cls in EXACT_TYPES:
        spy(cls)
    build_record = columnar.build_pair_record

    def spy_record(*args, **kwargs):
        record = build_record(*args, **kwargs)
        refs.append(("PairRecord", weakref.ref(record.pl)))
        return record

    monkeypatch.setattr(columnar, "build_pair_record", spy_record)
    return refs


Q5 = tpch_query("Q5").sql


def _degraded(session, sql):
    result = session.optimize(sql, deadline_s=1e-6)
    assert result.resilience.tier == "heuristic"
    return result


def _replayed(tpch):
    """A plan-cache session's template replay: the second region misses
    the plan tier and replays the first's logical store.  The session
    (and its cache, which holds both results) is dropped with it."""
    session = Session(tpch.database, plan_cache=PlanCache())
    session.optimize(Q5)
    result = session.optimize(Q5.replace("'ASIA'", "'EUROPE'"))
    assert result.cache.tier == "template"
    return session, result


#: route -> callable(clique6 session, clique6 workload, TPC-H session)
EXACT_ROUTES = {
    "exact-clique6": lambda s, w, t: s.optimize(w.sql),
    "exact-tpch-q5": lambda s, w, t: t.optimize(Q5),
    "heuristic-tier": lambda s, w, t: _degraded(s, w.sql),
    "template-replay": lambda s, w, t: _replayed(t),
}


@pytest.mark.parametrize("route", sorted(EXACT_ROUTES))
def test_dropped_exact_result_frees_its_memo(route, workload, tpch, watched_exact):
    session = Session(workload.database)
    run = EXACT_ROUTES[route]
    run(session, workload, tpch)  # warm-up: lazy imports, process-wide caches
    del watched_exact[:]
    gc.collect()
    gc.disable()
    try:
        result = run(session, workload, tpch)
        built = {kind for kind, _ref in watched_exact}
        assert built == {cls.__name__ for cls in EXACT_TYPES} | {"PairRecord"}
        del result
        _assert_exact_dead(watched_exact, "`del result`")
        census = _collector_census()
    finally:
        gc.enable()
    assert not census, f"left for the cycle collector: {_names(census)}"


def test_evicted_plan_frees_its_memo(tpch, watched_exact):
    """A server whose cache holds one plan: the next statement evicts
    the first, whose memo must die then, by reference count."""
    cache = PlanCache(max_plans=1)
    with PlanServer(tpch.database, workers=1, cache=cache) as server:
        server.optimize(Q5)  # warm-up: the worker thread and its session
        server.optimize(Q5.replace("'ASIA'", "'AMERICA'"))
        del watched_exact[:]
        gc.collect()
        gc.disable()
        try:
            server.optimize(Q5.replace("'ASIA'", "'EUROPE'"))
            first = list(watched_exact)
            cached = {kind for kind, ref in first if ref() is not None}
            assert cached == {cls.__name__ for cls in EXACT_TYPES}
            server.optimize(Q5.replace("'ASIA'", "'AFRICA'"))
            assert cache.stats()["plan.evictions"] == 3
            _assert_exact_dead(first, "eviction")
            census = _collector_census()
        finally:
            gc.enable()
    assert not census, f"left for the cycle collector: {_names(census)}"
