"""The vectorized csg–cmp kernel against the Python DPccp it replaced.

:func:`repro.kernel.vector.csg_cmp_universe` builds the explorer's whole
split universe as arrays.  The mask-based Python enumerator it replaced
lives on as the oracle (``tests/optimizer/reference_enumeration.py``).
Over random binary graphs and hypergraphs, connected or not, in both
cross-product modes, the kernel must give the oracle's universe order
and per-subset split order, and a columnar logical store built from it
must equal, byte for byte, one built from the oracle's buckets.  The
closed-form csg–cmp pair counts of Moerkotte & Neumann pin the kernel
on the canonical shapes up to 63 relations.  Its checkpoints account
every split, and a tiny expression budget trips inside it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    BoolExpr,
    BoolOp,
    ColumnId,
    ColumnRef,
    Comparison,
    CompOp,
)
from repro.algebra.logical import LogicalGet
from repro.errors import ResourceExhausted
from repro.memo.columnar import build_logical_store
from repro.memo.memo import Memo
from repro.obs.metrics import Metrics
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.setup import build_initial_memo
from repro.resilience.budget import Budget, BudgetScope
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import chain_query, clique_query, star_query
from tests.optimizer.reference_enumeration import (
    enumeration_universe,
    reference_logical_store,
)


def _eq(a: str, b: str) -> Comparison:
    return Comparison(
        CompOp.EQ, ColumnRef(ColumnId(a, "x")), ColumnRef(ColumnId(b, "x"))
    )


def _conjunct(aliases: list[str]):
    """A binary equality, or a hyperedge over three aliases (an OR of
    two equalities, evaluable only once all three are present)."""
    if len(aliases) == 2:
        return _eq(*aliases)
    a, b, c = aliases
    return BoolExpr(BoolOp.OR, (_eq(a, b), _eq(b, c)))


def _graph(n: int, edges) -> JoinGraph:
    names = [f"t{i:02d}" for i in range(n)]
    return JoinGraph(
        frozenset(names), [_conjunct([names[i] for i in edge]) for edge in edges]
    )


@st.composite
def graphs(draw, max_n=10):
    """Random binary graphs and hypergraphs, connected or not."""
    n = draw(st.integers(1, max_n))
    arity = st.sampled_from((2, 2, 2, 3)) if n >= 3 else st.just(2)
    edges = []
    if n >= 2:
        for _ in range(draw(st.integers(0, 2 * n))):
            size = draw(arity)
            edges.append(
                tuple(draw(st.permutations(range(n)))[:size])
            )
    return n, edges


def _kernel_buckets(graph: JoinGraph, cross: bool):
    subsets, left, right, offsets = graph.enumeration_universe(cross)
    masks = subsets.tolist()
    lefts, rights = subsets[left].tolist(), subsets[right].tolist()
    bounds = offsets.tolist()
    buckets = {
        mask: list(zip(lefts[lo:hi], rights[lo:hi]))
        for mask, lo, hi in zip(masks, bounds, bounds[1:])
        if mask & (mask - 1)
    }
    return masks, buckets


@settings(max_examples=60, deadline=None)
@given(graphs(), st.booleans())
def test_kernel_matches_the_python_enumerator(spec, cross):
    n, edges = spec
    graph = _graph(n, edges)
    masks, buckets = _kernel_buckets(graph, cross)
    oracle_masks, oracle_buckets = enumeration_universe(graph, cross)
    assert masks == oracle_masks
    for mask in masks:
        assert buckets.get(mask, []) == oracle_buckets.get(mask, []), hex(mask)


def _seeded_memo(graph: JoinGraph, cross: bool) -> Memo:
    """Leaves plus a left-deep prefix chain, the way setup seeds a memo:
    each next alias must connect to the prefix unless cross products
    are allowed (a disconnected graph seeds the prefix it can)."""
    memo = Memo(universe=graph.universe)
    order = sorted(graph.aliases)
    for alias in order:
        group = memo.get_or_create_rels_group(graph.mask_of([alias]))
        memo.insert(LogicalGet(table="t", alias=alias), (), group)
    prefix = graph.mask_of([order[0]])
    remaining = order[1:]
    while remaining:
        for alias in remaining:
            bit = graph.mask_of([alias])
            if cross or graph.applicable_conjuncts_m(prefix, bit):
                break
        else:
            break
        remaining.remove(alias)
        group = memo.get_or_create_rels_group(prefix | bit)
        memo.insert(
            graph.join_operator_m(prefix, bit),
            (memo._rels_gid_by_mask[prefix], memo._rels_gid_by_mask[bit]),
            group,
        )
        prefix |= bit
    return memo


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=8), st.booleans())
def test_kernel_store_is_byte_identical_to_the_oracle_store(spec, cross):
    n, edges = spec
    graph = _graph(n, edges)
    # the caller owns each memo; a store reads its memo back weakly
    memo, oracle_memo = _seeded_memo(graph, cross), _seeded_memo(graph, cross)
    store = build_logical_store(memo, graph, cross)
    oracle = reference_logical_store(oracle_memo, graph, cross)
    assert store.sl.tobytes() == oracle.sl.tobytes()
    assert store.sr.tobytes() == oracle.sr.tobytes()
    assert store._range_by_gid == oracle._range_by_gid
    assert list(store._range_by_gid) == list(oracle._range_by_gid)
    assert store.initial_by_gid == oracle.initial_by_gid
    assert store.gid_by_mask == oracle.gid_by_mask
    assert store.subset_masks == oracle.subset_masks
    assert [g.key for g in memo.groups] == [g.key for g in oracle_memo.groups]


# ---------------------------------------------------------------------------
# closed-form csg–cmp pair counts (Moerkotte & Neumann 2006)
# ---------------------------------------------------------------------------
def _shape(kind: str, n: int):
    if kind == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "star":
        return [(0, i) for i in range(1, n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


CLOSED_FORMS = {
    "chain": lambda n: (n**3 - n) // 6,
    "cycle": lambda n: (n**3 - 2 * n**2 + n) // 2,
    "star": lambda n: (n - 1) * 2 ** (n - 2),
    "clique": lambda n: (3**n - 2 ** (n + 1) + 1) // 2,
}

PAIR_COUNTS = [
    ("chain", 2, 1),
    ("chain", 5, 20),
    ("chain", 10, 165),
    ("chain", 25, 2_600),
    ("chain", 63, 41_664),
    ("cycle", 3, 6),
    ("cycle", 5, 40),
    ("cycle", 10, 405),
    ("cycle", 14, 1_183),
    ("star", 3, 4),
    ("star", 6, 80),
    ("star", 10, 2_304),
    ("star", 14, 53_248),
    ("clique", 3, 6),
    ("clique", 6, 301),
    ("clique", 10, 28_501),
    ("clique", 12, 261_625),
]


@pytest.mark.parametrize("kind,n,pairs", PAIR_COUNTS)
def test_csg_cmp_pair_counts_are_the_closed_forms(kind, n, pairs):
    assert CLOSED_FORMS[kind](n) == pairs
    subsets, left, right, offsets = _graph(n, _shape(kind, n)).enumeration_universe(
        False
    )
    assert len(left) == len(right) == int(offsets[-1]) == pairs
    assert ((subsets[left] & subsets[right]) == 0).all()


# ---------------------------------------------------------------------------
# budget accounting
# ---------------------------------------------------------------------------
def _setup(workload):
    bound = Binder(workload.catalog).bind(parse(workload.sql))
    return build_initial_memo(bound, False)


@pytest.mark.parametrize(
    "workload",
    [clique_query(6, rows=5), star_query(8, rows=5), chain_query(10, rows=5)],
    ids=["clique6", "star8", "chain10"],
)
def test_explore_checkpoints_account_every_logical_join(workload):
    setup = _setup(workload)
    metrics = Metrics()
    store = build_logical_store(
        setup.memo, setup.graph, False, scope=BudgetScope(observer=metrics)
    )
    assert metrics.counter("explore.batch.units") == 2 * store.row_count


def test_tiny_expression_budget_trips_inside_the_kernel():
    setup = _setup(clique_query(12, rows=5))
    groups_after_setup = len(setup.memo.groups)
    with pytest.raises(ResourceExhausted, match="explore.batch"):
        build_logical_store(
            setup.memo,
            setup.graph,
            False,
            scope=BudgetScope(budget=Budget(max_expressions=100)),
        )
    assert len(setup.memo.groups) == groups_after_setup
    assert setup.memo.columnar_logical is None
