"""Order satisfaction by kid interval against the bytes oracle.

Every consumer keeps a delivering row when its kid lies in the required
kid's extension interval ``[q, kid_hi[q])`` of the pair record's
byte-lexicographic key table.  On the count route, ``GroupTable.
satisfying`` must select the same positions as the byte-string prefix
test it replaced (``tests/planspace/reference_satisfaction.py``) for
every group — tower groups under GROUP BY and ORDER BY included — and
every kid a parent requires of it, its sorts deliver or its rows
deliver, in every setting that changes which orders exist.  On the exact
routes — an exact ``optimize``, a template replay of it and the
heuristic tier's seeded store — every required kid of a group against
every order-delivering row or ``Sort`` of it must get the verdict of the
bytes test.  No kid may be interned after the record: a kid outside the
ranked table would have no interval.
"""

from __future__ import annotations

import pytest

from repro.memo.columnar import TAG_INDEX_SCAN, TAG_MERGE, TAG_STREAMAGG
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.resilience.heuristic import optimize_heuristic
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
from tests.planspace.reference_satisfaction import satisfying

SHAPES = {
    "chain5": lambda: chain_query(5, rows=5, seed=0),
    "star5": lambda: star_query(5, rows=5, seed=0),
    "clique5": lambda: clique_query(5, rows=5, seed=0),
    "dense6": lambda: random_query(6, edge_density=0.5, rows=5),
}

#: name -> (options, include_redundant_sorts)
SETTINGS = {
    "default": (OptimizerOptions(), True),
    "index-nl": (
        OptimizerOptions(
            implementation=ImplementationConfig(enable_index_nl_join=True)
        ),
        True,
    ),
    "no-redundant-sorts": (OptimizerOptions(), False),
    "cross": (OptimizerOptions(allow_cross_products=True), True),
}

#: towers whose requirements the stream aggregate does (a prefix of its
#: GROUP BY, or all of it) and does not (an aggregate column) deliver
TPCH = {
    "Q3-orderkey": ("Q3", " ORDER BY l.l_orderkey"),
    "Q3-revenue": ("Q3", " ORDER BY revenue"),
    "Q10-custkey": ("Q10", " ORDER BY c.c_custkey"),
    "Q10-revenue": ("Q10", " ORDER BY revenue"),
}


def _overflow(space) -> list[bytes]:
    return space.state.keys.table()[2]


def _required_kids(state) -> dict[int, set[int]]:
    """gid -> every kid a parent requires of the group."""
    layout = state.layout
    out: dict[int, set[int]] = {}
    for mask in layout.subset_masks:
        out[layout.gid_by_mask[mask]] = set(state.required.get(mask) or ())
    for gid in layout.tower_gids:
        child = layout.group(gid).child_gid
        out.setdefault(child, set()).update(
            top.required_kid
            for top in state.tower_ops[gid]
            if top.required_kid is not None
        )
        out.setdefault(gid, set()).update(state.tower_required.get(gid) or ())
    if state.root_kid is not None:
        out.setdefault(layout.root_gid, set()).add(state.root_kid)
    return out


def _assert_intervals_match_bytes(space) -> int:
    assert _overflow(space) == []
    state = space.state
    tables = space.unranker.tables
    required = _required_kids(state)
    compared = 0
    for group in state.layout.groups:
        table = tables.table(group.gid)
        kids = required.get(group.gid, set()) | set(table.sort_kids)
        kids |= {kid for _pos, kid in table.delivering()}
        for kid in sorted(kids):
            assert table.satisfying(kid) == satisfying(table, kid), (
                group.gid,
                kid,
            )
            compared += 1
    assert _overflow(space) == []
    return compared


def _delivered_kid(store, row) -> int:
    """The kid a physical store row delivers, ``-1`` for none."""
    tag = store.tag[row]
    if tag == TAG_MERGE:
        return store.a[row]
    if tag in (TAG_INDEX_SCAN, TAG_STREAMAGG):
        return store.b[row]
    return -1


def _assert_store_intervals_match_bytes(store) -> int:
    keys = store._keys
    assert keys.table()[2] == []
    required: dict[int, set[int]] = {}
    for gid, kid in zip(*(column.tolist() for column in store.requirement_arrays())):
        required.setdefault(gid, set()).add(kid)
    compared = 0
    for gid, kids in required.items():
        start, end = store.group_rows(gid)
        delivered = [_delivered_kid(store, row) for row in range(start, end)]
        delivered = [kid for kid in delivered if kid >= 0] + store.group_sorts(gid)
        for q in sorted(kids):
            hi = store.kid_hi[q]
            for d in delivered:
                assert (q <= d < hi) == keys[d].startswith(keys[q]), (gid, q, d)
                compared += 1
    return compared


def _assert_exact_routes_match_bytes(catalog, sql, options) -> None:
    """An exact ``optimize``, a template replay of it and the heuristic
    tier, each over its own physical store."""
    bound = Binder(catalog).bind(parse(sql))
    optimizer = Optimizer(catalog, options)
    exact = optimizer.optimize(bound)
    replay = optimizer.optimize(bound, artifacts=TemplateArtifacts.capture(exact))
    assert replay.timings["explore_source"] == "cached"
    heuristic = optimize_heuristic(catalog, bound, options)
    for result in (exact, replay, heuristic):
        assert _assert_store_intervals_match_bytes(result.memo.columnar)


def _assert_routes_match_bytes(catalog, sql, setting) -> ImplicitPlanSpace:
    """The count route under ``setting``; the exact routes build the
    paper's space, redundant sorts included, so they run once per
    options."""
    options, redundant = SETTINGS[setting]
    space = ImplicitPlanSpace.from_sql(
        catalog, sql, options=options, include_redundant_sorts=redundant
    )
    assert _assert_intervals_match_bytes(space)
    if redundant:
        _assert_exact_routes_match_bytes(catalog, sql, options)
    return space


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_synthetic_shapes(shape, setting):
    workload = SHAPES[shape]()
    _assert_routes_match_bytes(workload.catalog, workload.sql, setting)


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("query", list(TPCH))
def test_tower_groups(catalog, query, setting):
    name, order_by = TPCH[query]
    space = _assert_routes_match_bytes(
        catalog, tpch_query(name).sql + order_by, setting
    )
    required = _required_kids(space.state)
    # a tower group is compared on a kid required of it
    assert any(required.get(gid) for gid in space.state.layout.tower_gids)
