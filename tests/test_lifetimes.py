"""Ownership on the implicit / sampled routes: a dropped result frees its
space by reference count and leaves the collector (almost) nothing.

Owners point down — result → plan nodes → operators; pool → space →
unranker → tables → count state → layout → seed memo — and nothing
points back up (``planspace/implicit/README.md``, "Ownership and
lifetime").  The optimizers pause the cycle collector and a server may
run with it off, so anything caught in a cycle is memory held until some
later full pass walks it.  Each route below runs with the collector
disabled; at ``del result`` the weak references to the request's
``ImplicitPlanSpace``, ``CountState``, ``ImplicitLayout``, seed ``Memo``,
``KeyTable``, ``TableSet`` and ``FragmentPool`` must already be dead, and
a ``DEBUG_SAVEALL`` census of one ``gc.collect()`` must hold none of
those types, no ``ImplicitGroup`` / ``GroupTable`` / ``CandidateList``,
and nothing whose type is not in :data:`PREDICATE_CACHE_TYPES` — the
``predicate.__dict__`` caches of ``optimizer/rules.py`` (``_nlj_op``: a
``NestedLoopJoin`` pointing back at its predicate; ``_eq_analysis``: a
tuple that holds the conjunct it is stored on), shared with the exact
path and owned there.

At the parent of this test (commit c22bd4d) every route failed both
checks.  Objects one request left for the collector, clique6 with this
file's arguments, parent → now:

====================== ====== =====  ==================================
route                  parent   now  what pinned the space
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
"""

from __future__ import annotations

import gc
import weakref
from collections import Counter

import pytest

from repro.algebra.expressions import BoolExpr, ColumnId, ColumnRef, Comparison
from repro.algebra.physical import NestedLoopJoin
from repro.api import Session
from repro.memo.memo import Memo
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.keys import KeyTable
from repro.planspace.implicit.layout import ImplicitGroup, ImplicitLayout
from repro.planspace.implicit.tables import CandidateList, GroupTable, TableSet
from repro.sampledopt import FragmentPool, QuantileTarget, SampledOptimizer
from repro.workloads.synthetic import clique_query

#: must be gone by reference count, and absent from the collector's census
SPACE_TYPES = (
    ImplicitPlanSpace,
    CountState,
    ImplicitLayout,
    Memo,
    KeyTable,
    TableSet,
    FragmentPool,
    ImplicitGroup,
    GroupTable,
    CandidateList,
)
#: all the collector may still find: the join predicates' ``__dict__``
#: caches (``optimizer/rules.py``) and the expression nodes under them
PREDICATE_CACHE_TYPES = {
    NestedLoopJoin,
    BoolExpr,
    Comparison,
    ColumnRef,
    ColumnId,
    tuple,
    dict,
}


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
            state.layout.store.memo,
            state.keys,
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
        alive = Counter(type(ref()).__name__ for ref in watched if ref() is not None)
        assert not alive, f"still referenced after `del result`: {dict(alive)}"

        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        census = Counter(type(obj) for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    pinned = {cls.__name__: census[cls] for cls in SPACE_TYPES if census[cls]}
    assert not pinned, f"left for the cycle collector: {pinned}"
    strangers = {
        cls.__name__: count
        for cls, count in census.items()
        if cls not in PREDICATE_CACHE_TYPES
    }
    assert not strangers, f"garbage beyond the predicate caches: {strangers}"
