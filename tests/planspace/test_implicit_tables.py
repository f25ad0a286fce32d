"""The column-backed unranking tables against the materialized space.

In every configuration the count pass serves — the default space,
index-NL-joins, the redundant-sort ablation — the tables sliced from its
columns must give each rank the plan the materialized
:class:`PlanSpace` gives it, node for node, and build rows only for the
positions something selects.  On the smaller spaces the diagnostics that
read the tables — the operator census, participation counts, the
unranking trace and the configuration diff — must equal the oracle's.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.planspace.diff import diff_spaces
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.participation import participation_counts
from repro.sampledopt import StratifiedSampler
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)
from tests.planspace.materialized import diff as reference_diff
from tests.planspace.materialized import participation as reference_participation
from tests.planspace.materialized.space import PlanSpace

SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "cycle": cycle_query,
    "clique": clique_query,
    "dense": lambda n, **kw: random_query(n, edge_density=0.6, **kw),
}

#: spaces up to this size are checked rank by rank
EXHAUSTIVE = 400
SEEDED_RANKS = 200

#: with cross products every 7-relation graph spans the clique's subsets:
#: one of them (the dense one) stays in the smoke tier
CASES = [
    pytest.param(
        shape,
        n,
        cross,
        marks=[pytest.mark.slow] if n == 7 and cross and shape != "dense" else [],
    )
    for shape in SHAPES
    for n in (3, 5, 7)
    for cross in (False, True)
]


def _variants(workload, cross):
    """``(tag, materialized space, implicit space)`` per configuration."""
    default = OptimizerOptions(allow_cross_products=cross)
    inlj = OptimizerOptions(
        allow_cross_products=cross,
        implementation=ImplementationConfig(enable_index_nl_join=True),
    )
    catalog, sql = workload.catalog, workload.sql
    result = Optimizer(catalog, default).optimize_sql(sql)
    space = PlanSpace.from_result(result)
    yield "default", space, ImplicitPlanSpace.from_sql(catalog, sql, options=default)
    yield "no-redundant-sorts", PlanSpace.from_result(
        result, include_redundant_sorts=False
    ), ImplicitPlanSpace.from_sql(
        catalog, sql, options=default, include_redundant_sorts=False
    )
    yield "index-nlj", PlanSpace.from_result(
        Optimizer(catalog, inlj).optimize_sql(sql)
    ), ImplicitPlanSpace.from_sql(catalog, sql, options=inlj)


#: spaces of up to this many relations also check the diagnostics
DIAGNOSED = 5


def _assert_diagnostics_match(materialized, implicit, where):
    """Census, participation and the R/s trace read off the implicit
    tables equal the linked space's."""
    linked = materialized.linked
    assert {
        f"{gid}.{local_id}": (op.render(), count, relations)
        for gid, local_id, op, count, relations in implicit.census()
    } == {
        node.id_str: (
            node.expr.op.render(),
            node.count,
            linked.memo.group(node.expr.group_id).relations,
        )
        for node in linked.operators.values()
    }, where
    assert participation_counts(
        implicit
    ) == reference_participation.participation_counts(linked), where
    total = materialized.count()
    for rank in sorted({0, total // 2, total - 1}):
        ours = implicit.unrank_with_trace(rank)[1].render()
        assert ours == materialized.unrank_with_trace(rank)[1].render(), (
            where,
            rank,
        )


@pytest.mark.parametrize("shape,n,cross", CASES)
def test_unrank_matches_materialized_node_for_node(shape, n, cross):
    workload = SHAPES[shape](n, rows=5, seed=0)
    spaces = {}
    for tag, materialized, implicit in _variants(workload, cross):
        where = (shape, n, cross, tag)
        total = materialized.count()
        assert implicit.count() == total, where
        if n <= DIAGNOSED:
            _assert_diagnostics_match(materialized, implicit, where)
            spaces[tag] = materialized, implicit
        if total <= EXHAUSTIVE:
            ranks = range(total)
        else:
            rng = random.Random(f"{shape}/{n}/{cross}/{tag}")
            ranks = sorted(
                {0, total - 1, *(rng.randrange(total) for _ in range(SEEDED_RANKS))}
            )
        for rank in ranks:
            ours = implicit.unrank(rank)
            theirs = materialized.unrank(rank)
            for a, b in zip(ours.iter_nodes(), theirs.iter_nodes(), strict=True):
                assert (a.group_id, a.local_id) == (b.group_id, b.local_id), (
                    where,
                    rank,
                )
                assert a.op.key() == b.op.key(), (where, rank, a.expr_id)
                assert a.cardinality == b.cardinality, (where, rank)
            assert implicit.rank(ours) == rank, (where, rank)
    if spaces:
        (base_ref, base), (cand_ref, cand) = spaces["default"], spaces["index-nlj"]
        assert diff_spaces(base, cand).render() == reference_diff.diff_spaces(
            base_ref.linked, cand_ref.linked
        ).render(), (shape, n, cross)


#: sha256(repr(StratifiedSampler(space, seed).sample_ranks(100))), pinned
#: from the commit before the tables became column-backed
PINNED_DRAWS = [
    (
        lambda: clique_query(7, rows=5, seed=0),
        False,
        7,
        "9bfad3f6b5a9cf60e9abe72a45d2909815dfc6c1e5cd149bb868de8dcfffa6bd",
    ),
    (
        lambda: star_query(8, rows=5, seed=1),
        True,
        3,
        "87373c3853955b56f9a6ef4dee3879e9a5fb817512b6b4f8bece8a49ff5bf5d2",
    ),
    (
        lambda: random_query(8, edge_density=0.5, seed=2, rows=5),
        False,
        11,
        "222b3aaf81943752537f8db3b9f2c62fa5231c3b73830cf506b3357397a89681",
    ),
]


@pytest.mark.parametrize("make,cross,seed,digest", PINNED_DRAWS)
def test_stratified_draws_are_pinned(make, cross, seed, digest):
    workload = make()
    space = ImplicitPlanSpace.from_sql(
        workload.catalog,
        workload.sql,
        options=OptimizerOptions(allow_cross_products=cross),
    )
    ranks = StratifiedSampler(space, seed=seed).sample_ranks(100)
    assert hashlib.sha256(repr(ranks).encode()).hexdigest() == digest


def test_rows_are_built_only_where_selected():
    """100 stratified draws on clique8 construct at most one row per
    selected plan node plus the rows of the expanded strata lists — a
    small share of the touched groups' rows.  A count, so it repeats."""
    workload = clique_query(8, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(
        workload.catalog,
        workload.sql,
        options=OptimizerOptions(allow_cross_products=False),
    )
    tables = space.unranker.tables
    sampler = StratifiedSampler(space, seed=0)
    assert len(sampler.strata) >= 64
    strata_rows = tables.rows_built
    # one row per expanded operator-prefix stratum, never a whole list
    assert strata_rows <= 64
    plans = [space.unrank(rank) for rank in sampler.sample_ranks(100)]
    selected = sum(plan.size() for plan in plans)
    assert 0 < tables.rows_built - strata_rows <= selected
    group_rows = sum(
        len(tables.table(group.gid).counts) for group in space.state.layout.groups
    )
    assert tables.rows_built < 0.25 * group_rows
    # drawing the same plans again constructs nothing
    built = tables.rows_built
    for plan in plans:
        assert space.rank(plan) in range(space.count())
    assert tables.rows_built == built


def test_dropped_space_frees_its_tables_by_reference_count():
    """Tables hold no reference back to their ``TableSet`` (and rows none
    to candidate lists): a cached-then-dropped space must not wait for
    the cycle collector, which the optimizers pause."""
    import gc
    import weakref

    workload = chain_query(4, rows=5, seed=0)
    gc.collect()
    gc.disable()
    try:
        space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
        plan = space.unrank(space.count() // 2)
        tables = space.unranker.tables
        watched = [weakref.ref(tables), weakref.ref(tables.table(plan.group_id))]
        del space, tables
        assert [ref() for ref in watched] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("redundant", [True, False])
def test_enforcer_child_lists_are_shared_only_where_equal(redundant):
    """With redundant sorts kept, every ``Sort`` of a group ranges over
    the group's whole body, so the set keeps one candidate list per
    group; under the ablation a sort skips the operators already ordered
    its way, so the lists differ per kid and stay per kid.  Either way
    the lists are what a fresh per-kid computation gives, and ranks
    round-trip."""
    from itertools import accumulate

    from repro.planspace.implicit.tables import NONENF

    workload = clique_query(5, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, include_redundant_sorts=redundant
    )
    tables = space.unranker.tables
    checked = differing = 0
    for group in space.state.layout.groups:
        table = tables.table(group.gid)
        lists = [
            tables.candidates(group.gid, (NONENF, kid)) for kid in table.sort_kids
        ]
        for kid, found in zip(table.sort_kids, lists):
            ordered = set() if redundant else set(table.satisfying(kid))
            positions = [p for p in range(table.body) if p not in ordered]
            assert list(found.positions) == positions
            assert found.cumulative == [
                0, *accumulate(table.counts[p] for p in positions)
            ]
            checked += 1
        for other in lists[1:]:
            if redundant:
                assert other is lists[0]
            else:
                assert other is not lists[0]
                differing += list(other.positions) != list(lists[0].positions)
    assert checked > len(space.state.layout.groups)  # several sorts a group
    assert redundant or differing
    rng = random.Random(3)
    for rank in (rng.randrange(space.count()) for _ in range(SEEDED_RANKS)):
        assert space.rank(space.unrank(rank)) == rank


def test_first_touch_counters():
    """``rows_built`` / ``tables`` / ``candidate_lists`` count what the
    set has constructed — plain reads, no walk over the tables."""
    workload = clique_query(6, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
    tables = space.unranker.tables
    assert (tables.rows_built, tables.tables, tables.candidate_lists) == (0, 0, 0)
    plans = [space.unrank(rank) for rank in space.sample_ranks(50, seed=1)]
    assert tables.rows_built == sum(len(t._rows) for t in tables._tables.values())
    assert tables.tables == len(tables._tables) > 0
    lists = {id(found) for found in tables._candidates.values()}
    assert tables.candidate_lists == len(lists) <= 3 * tables.tables
    # one Sort per kid, whichever groups' enforcers the plans used
    sorts = {}
    for plan in plans:
        for node in plan.iter_nodes():
            if node.op.is_enforcer:
                assert sorts.setdefault(node.op.order, node.op) is node.op
    assert sorts
