"""The pair record against the two derivations it replaced.

:func:`repro.memo.columnar.build_pair_record` derives a logical store's
ordered pairs once for the exact emitter and the count pass.  Before it,
each derived them on its own; both front halves moved verbatim to
``tests/memo/reference_pairs.py``.  On every shape × configuration below
the record must reproduce both: the pair order, the keyed flags, the key
of every keyed pair (compared as column sequences: kid numbers depend on
the sequence set each side interned), the index-lookup matches, the
first-occurrence merge-requirement registry, state ids included, and the
kid universe: the record reads every loose order off the memo, and the
set of orders it ranks must be the one each half interned.  On the count
side the registry's tail (stream-aggregate and ORDER BY requirements on
relation-set groups) is compared too.  A replayed store with a
cache-supplied edge catalog and the heuristic tier's
``seeded_logical_store`` are checked against the emitter's half (the
count pass only ever sees a layout's own store).  Both routes charge a
record the same budget units.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memo.columnar import (
    _JOIN_KIND_TAGS,
    TAG_HASH,
    TAG_INLJ,
    TAG_MERGE,
    TAG_NLJ,
    ColumnarPhysicalStore,
    build_columnar_store,
    build_pair_record,
    replay_logical_store,
    seeded_logical_store,
)
from repro.obs.metrics import Metrics
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.rules import (
    ImplementationConfig,
    join_physical_kinds,
    unary_implementations,
)
from repro.optimizer.setup import build_initial_memo
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.edges import EdgeCatalog
from repro.planspace.implicit.keys import KeyTable
from repro.planspace.implicit.layout import ImplicitLayout
from repro.resilience.budget import BudgetScope
from repro.serving.cache import TemplateArtifacts
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    random_query,
    star_query,
)
from repro.workloads.tpch_queries import tpch_query
from tests.memo.reference_pairs import count_front_half, emitter_front_half
from tests.planspace.reference_counting import ReferenceCountState

#: name -> workload factory; ``None`` is the TPC-H text of that name
SHAPES = {
    "chain5": lambda: chain_query(5, rows=5),
    "star7": lambda: star_query(7, rows=5),
    "clique6": lambda: clique_query(6, rows=5),
    "random9": lambda: random_query(9, rows=5),
    "dense6": lambda: random_query(6, edge_density=0.5, rows=5),
    "Q3": None,
    "Q5": None,
    "Q9": None,
}
#: name -> (cross products, implementation config)
CONFIGS = {
    "default": (False, ImplementationConfig()),
    "cross": (True, ImplementationConfig()),
    "index-nl-join": (False, ImplementationConfig(enable_index_nl_join=True)),
    "no-merge": (False, ImplementationConfig(enable_merge_join=False)),
}


def _bound(name, catalog):
    make = SHAPES[name]
    if make is None:
        return catalog, Binder(catalog).bind(parse(tpch_query(name).sql))
    workload = make()
    return workload.catalog, Binder(workload.catalog).bind(parse(workload.sql))


def _record(logical_store, graph, catalog, config, order, edges=None):
    edges = edges or EdgeCatalog(graph)
    keys = KeyTable(edges)
    record = build_pair_record(
        logical_store.memo, logical_store, edges, keys, config, catalog, order
    )
    return record, keys


def _columns(keys, kids):
    return [keys.columns_of(kid) if kid >= 0 else None for kid in kids.tolist()]


def _registry(keys, gids, kids):
    return list(zip(gids.tolist(), _columns(keys, kids)))


def _orders(keys):
    """Every order a key table holds, as column sequences."""
    return {keys.columns_of(kid) for kid in range(len(keys.table()[1]))}


def _emitter_half(memo, logical_store, graph, catalog, config, order, edges):
    store = ColumnarPhysicalStore(memo, graph, catalog, config, order, edges)
    keyed_kinds, cross_kinds = join_physical_kinds(config)
    half = emitter_front_half(
        store,
        logical_store,
        keyed_kinds,
        tuple(_JOIN_KIND_TAGS[kind] for kind in keyed_kinds),
        tuple(_JOIN_KIND_TAGS[kind] for kind in cross_kinds),
        None,
    )
    return half, store


def _assert_matches_emitter(record, keys, half, store):
    assert record.join_gids == half["join_gids"]
    assert record.pair_start.tolist() == half["pair_start"].tolist()
    assert record.pl.tolist() == half["pl"].tolist()
    assert record.pr.tolist() == half["pr"].tolist()
    assert record.keyed.tolist() == half["keyed"].tolist()
    ref_keys = store._keys
    assert _columns(keys, record.lkid) == _columns(ref_keys, half["lkid"])
    assert _columns(keys, record.rkid) == _columns(ref_keys, half["rkid"])
    if half["inlj"] is None:
        assert record.inlj is None
    else:
        assert record.inlj.tolist() == half["inlj"].tolist()
    # the merge registry leads the record's, the tail follows it
    merged = len(half["req_gid"])
    assert _registry(
        keys, record.req_gid[:merged], record.req_kid[:merged]
    ) == _registry(ref_keys, half["req_gid"], half["req_kid"])
    # one kid universe: the emitter interned the same orders
    assert _orders(keys) == _orders(ref_keys)
    assert record.root_kid == (
        keys.kid_of_columns(store.root_order) if store.root_order else None
    )
    if len(half["req_gid"]):
        assert record.sid0.tolist() == store._merge_sid0.tolist()
        assert record.sid1.tolist() == store._merge_sid1.tolist()
    else:
        assert not len(record.sid0) and not len(record.sid1)
    # the per-split columns and the permutation describe the same pairs
    lr, rl = record.position[0::2], record.position[1::2]
    assert record.pl[lr].tolist() == record.pr[rl].tolist() == record.sl.tolist()
    assert record.pr[lr].tolist() == record.pl[rl].tolist() == record.sr.tolist()


def _assert_matches_count(record, keys, layout, half, state):
    rows = half["rows_by_expr"]
    masks = np.array([group.mask or 0 for group in layout.groups], np.int64)
    assert masks[record.pl].tolist() == rows[:, 0].tolist()
    assert masks[record.pr].tolist() == rows[:, 1].tolist()
    assert record.keyed.tolist() == (rows[:, 2] >= 0).tolist()
    assert _columns(keys, record.lkid) == _columns(state.keys, rows[:, 2])
    assert _columns(keys, record.rkid) == _columns(state.keys, rows[:, 3])
    inlj = record.inlj if record.inlj is not None else np.zeros(len(rows), np.int64)
    assert inlj.tolist() == rows[:, 4].tolist()
    bounds = record.pair_start.tolist()
    assert dict(zip(record.join_gids, zip(bounds, bounds[1:]))) == half["expr_range"]
    # the registrations (without merge joins only the extra ones): four
    # per split ahead of the extra requirements, keyless splits at the
    # spare slot; first occurrences — the record's, less its tower part
    KS, req_packed = half["KS"], half["req_packed"]
    firsts = list(
        dict.fromkeys(s for s in half["stream"].tolist() if s < len(req_packed))
    )
    packed = req_packed[np.array(firsts, np.int64)]
    rels = ~np.isin(record.req_gid, layout.tower_gids)
    assert _registry(keys, record.req_gid[rels], record.req_kid[rels]) == _registry(
        state.keys, packed // KS, packed % KS
    )
    # one kid universe: the count pass interned the same orders, plus the
    # empty key of every keyless cut
    assert _orders(keys) == _orders(state.keys) - {()}


CASES = [(shape, config) for shape in SHAPES for config in CONFIGS]
_JOIN_TAGS = (TAG_NLJ, TAG_HASH, TAG_MERGE, TAG_INLJ)


@pytest.mark.parametrize(
    "shape, config", CASES, ids=[f"{s}-{c}" for s, c in CASES]
)
def test_record_matches_both_front_halves(shape, config, catalog):
    target, bound = _bound(shape, catalog)
    cross, impl = CONFIGS[config]
    layout = ImplicitLayout(bound, cross)
    store = layout.store
    record, keys = _record(store, layout.graph, target, impl, bound.order_by)

    half, emitter_store = _emitter_half(
        store.memo, store, layout.graph, target, impl, bound.order_by,
        EdgeCatalog(layout.graph),
    )
    _assert_matches_emitter(record, keys, half, emitter_store)

    state = ReferenceCountState(layout, target, impl)
    state.edges = EdgeCatalog(layout.graph)
    state.keys = KeyTable(state.edges)
    rels_extra, tower_extra, _root = state._tower_requirement_seqs()
    tower_seqs = [seq for _gid, seq in tower_extra] + [
        state.edges.seq_bytes(order)
        for gid in layout.tower_gids
        for op in unary_implementations(layout.group(gid).op, impl)
        if (order := op.delivered_order())
    ]
    count_half = count_front_half(state, rels_extra, tower_seqs)
    _assert_matches_count(record, keys, layout, count_half, state)


def test_replayed_store_with_a_cached_edge_catalog(catalog):
    """Template replay: the record reads a replayed store and the edge
    catalog the cache hands out, as the exact path's replay does."""
    bound = Binder(catalog).bind(parse(tpch_query("Q5").sql))
    impl = ImplementationConfig(enable_index_nl_join=True)
    result = Optimizer(catalog, OptimizerOptions(implementation=impl)).optimize(bound)
    artifacts = TemplateArtifacts.capture(result)
    setup = build_initial_memo(bound, False)
    replayed = replay_logical_store(setup.memo, setup.graph, False, artifacts.logical)
    record, keys = _record(
        replayed,
        setup.graph,
        catalog,
        impl,
        bound.order_by,
        artifacts.take_edges(setup.graph),
    )
    half, store = _emitter_half(
        setup.memo, replayed, setup.graph, catalog, impl, bound.order_by,
        artifacts.take_edges(setup.graph),
    )
    _assert_matches_emitter(record, keys, half, store)
    assert len(record.pl) == 2 * replayed.row_count


def test_seeded_store_of_the_heuristic_tier(catalog):
    """The heuristic tier's one split per greedy join: every join group
    is seeded, so every block leads with its initial join."""
    bound = Binder(catalog).bind(parse(tpch_query("Q9").sql))
    impl = ImplementationConfig()
    setup = build_initial_memo(bound, False)
    seeded = seeded_logical_store(setup.memo, setup.graph, False)
    record, keys = _record(seeded, setup.graph, catalog, impl, bound.order_by)
    half, store = _emitter_half(
        setup.memo, seeded, setup.graph, catalog, impl, bound.order_by,
        EdgeCatalog(setup.graph),
    )
    _assert_matches_emitter(record, keys, half, store)
    starts = record.pair_start[:-1]
    initial = [seeded.initial_by_gid[gid] for gid in record.join_gids]
    assert list(zip(record.pl[starts].tolist(), record.pr[starts].tolist())) == initial


def test_both_routes_charge_a_record_its_ordered_pairs(catalog):
    """One record, one budget unit: the exact route (at
    ``implement.columnar``, beside one unit per leaf or tower row) and the
    count route (at ``implicit.count``) each charge a Q5 record its
    ordered pairs — both orientations of every split, what exploration
    charges at ``explore.batch``."""
    bound = Binder(catalog).bind(parse(tpch_query("Q5").sql))
    impl = ImplementationConfig()
    explored, exact, count = Metrics(), Metrics(), Metrics()
    setup = build_initial_memo(bound, False)
    EnumerationExplorer().explore(
        setup.memo, setup.graph, False, scope=BudgetScope(observer=explored)
    )
    store = build_columnar_store(
        setup.memo,
        setup.graph,
        catalog,
        impl,
        bound.order_by,
        scope=BudgetScope(observer=exact),
    )
    layout = ImplicitLayout(bound, False)
    CountState(layout, catalog, impl, scope=BudgetScope(observer=count)).compute()
    pairs = explored.counter("explore.batch.units")
    assert pairs == 2 * layout.store.row_count > 0
    scalar_rows = sum(tag not in _JOIN_TAGS for tag in store.tag)
    assert exact.counter("implement.columnar.units") - scalar_rows == pairs
    assert count.counter("implicit.count.units") == pairs
