"""Order satisfaction by kid interval against the bytes oracle.

``GroupTable.satisfying`` keeps a delivering row when its kid lies in
the required kid's extension interval ``[q, kid_hi[q])`` of the count
pass's byte-lexicographic key table.  The byte-string prefix test it
replaced (``tests/planspace/reference_satisfaction.py``) must select the
same positions for every group — tower groups under GROUP BY and ORDER
BY included — and every kid a parent requires of it, its sorts deliver
or its rows deliver, in every setting that changes which orders exist.
No kid may be interned after the count pass: a kid outside the ranked
table would have no interval.
"""

from __future__ import annotations

import pytest

from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.planspace.implicit.space import ImplicitPlanSpace
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


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_synthetic_shapes(shape, setting):
    workload = SHAPES[shape]()
    options, redundant = SETTINGS[setting]
    space = ImplicitPlanSpace.from_sql(
        workload.catalog,
        workload.sql,
        options=options,
        include_redundant_sorts=redundant,
    )
    assert _assert_intervals_match_bytes(space)


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("query", list(TPCH))
def test_tower_groups(catalog, query, setting):
    name, order_by = TPCH[query]
    options, redundant = SETTINGS[setting]
    space = ImplicitPlanSpace.from_sql(
        catalog,
        tpch_query(name).sql + order_by,
        options=options,
        include_redundant_sorts=redundant,
    )
    required = _required_kids(space.state)
    # a tower group is compared on a kid required of it
    assert any(required.get(gid) for gid in space.state.layout.tower_gids)
    assert _assert_intervals_match_bytes(space)
