"""The pair record against the two derivations it replaced.

:func:`repro.memo.columnar.build_pair_record` derives a logical store's
ordered pairs once for the exact emitter and the count pass.  Before it,
each derived them on its own; both front halves moved verbatim to
``tests/memo/reference_pairs.py``.  On every shape × configuration below
the record must reproduce both: the pair order, the keyed flags, the key
of every keyed pair (compared as column sequences: kid numbers depend on
the sequence set each side interned), the index-lookup matches and the
first-occurrence merge-requirement registry, state ids included.  A
replayed store with a cache-supplied edge catalog and the heuristic
tier's ``seeded_logical_store`` are checked against the emitter's half
(the count pass only ever sees a layout's own store).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.memo.columnar import (
    _JOIN_KIND_TAGS,
    ColumnarPhysicalStore,
    build_pair_record,
    replay_logical_store,
    seeded_logical_store,
)
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.rules import ImplementationConfig, join_physical_kinds
from repro.optimizer.setup import build_initial_memo
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.edges import EdgeCatalog
from repro.planspace.implicit.keys import KeyTable
from repro.planspace.implicit.layout import ImplicitLayout
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


def _record(logical_store, graph, catalog, config, edges=None):
    edges = edges or EdgeCatalog(graph)
    keys = KeyTable(edges)
    record = build_pair_record(logical_store, edges, keys, config, catalog, [])
    return record, keys


def _columns(keys, kids):
    return [keys.columns_of(kid) if kid >= 0 else None for kid in kids.tolist()]


def _registry(keys, gids, kids):
    return list(zip(gids.tolist(), _columns(keys, kids)))


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
    assert _registry(keys, record.req_gid, record.req_kid) == _registry(
        ref_keys, half["req_gid"], half["req_kid"]
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
    # the merge registrations (without merge joins there are none): four
    # per split ahead of the extra requirements, keyless splits at the
    # spare slot; first occurrences
    KS, req_packed = half["KS"], half["req_packed"]
    merged = half["stream"][: 2 * len(rows)].tolist()
    merged = merged if state.config.enable_merge_join else []
    firsts = list(dict.fromkeys(s for s in merged if s < len(req_packed)))
    packed = req_packed[np.array(firsts, np.int64)]
    assert _registry(keys, record.req_gid, record.req_kid) == _registry(
        state.keys, packed // KS, packed % KS
    )


CASES = [(shape, config) for shape in SHAPES for config in CONFIGS]


@pytest.mark.parametrize(
    "shape, config", CASES, ids=[f"{s}-{c}" for s, c in CASES]
)
def test_record_matches_both_front_halves(shape, config, catalog):
    target, bound = _bound(shape, catalog)
    cross, impl = CONFIGS[config]
    layout = ImplicitLayout(bound, cross)
    store = layout.store
    record, keys = _record(store, layout.graph, target, impl)

    half, emitter_store = _emitter_half(
        store.memo, store, layout.graph, target, impl, bound.order_by,
        EdgeCatalog(layout.graph),
    )
    _assert_matches_emitter(record, keys, half, emitter_store)

    state = CountState(layout, target, impl)
    state.edges = EdgeCatalog(layout.graph)
    state.keys = KeyTable(state.edges)
    rels_extra, tower_extra, _root = state._tower_requirement_seqs()
    tower_seqs = [seq for _gid, seq in tower_extra] + state._tower_delivery_seqs()
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
        replayed, setup.graph, catalog, impl, artifacts.take_edges(setup.graph)
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
    record, keys = _record(seeded, setup.graph, catalog, impl)
    half, store = _emitter_half(
        setup.memo, seeded, setup.graph, catalog, impl, bound.order_by,
        EdgeCatalog(setup.graph),
    )
    _assert_matches_emitter(record, keys, half, store)
    starts = record.pair_start[:-1]
    initial = [seeded.initial_by_gid[gid] for gid in record.join_gids]
    assert list(zip(record.pl[starts].tolist(), record.pr[starts].tolist())) == initial
