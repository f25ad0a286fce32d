"""Equivalence of the bitset csg–cmp explorer against the retained
reference (slow-path) implementation.

The bitset rewrite of :mod:`repro.optimizer.joingraph` and
:mod:`repro.optimizer.explorer` must span *exactly* the same search space
as the original generate-and-test algorithms, preserved verbatim in
``tests/optimizer/reference_enumeration.py``.  These tests sweep
chain/star/clique/cycle shapes in both cross-product modes and assert:

* identical connected-subset universes and partition lists (including
  enumeration *order* — the rewrite promises byte-identical memo layout)
  between the mask-based Python DPccp and the seed algorithm, both
  oracles now (the production kernel is held to the former by
  ``tests/optimizer/test_csg_cmp_kernel.py``);
* identical memo group counts and logical expression counts;
* identical plan-space totals ``N`` after full implementation;
* ``rank(unrank(r)) == r`` still holds on memos built by the fast path.

Smaller sizes run in the smoke tier; the n in {7, 8} sweeps are marked
``slow`` (run with ``pytest -m slow`` or ``-m ""``).
"""

from __future__ import annotations

import pytest

from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import implement_memo_columnar
from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.cardinality import CardinalityEstimator
from tests.optimizer.reference_enumeration import (
    ReferenceEnumerationExplorer,
    all_subsets,
    connected_subsets,
    partitions,
    reference_connected_subsets,
    reference_partitions,
)
from repro.optimizer.setup import build_initial_memo
from tests.planspace.materialized.space import PlanSpace
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)

SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "clique": clique_query,
    "cycle": cycle_query,
}

FAST_CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (3, 4, 5, 6)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 5)  # keep the smoke tier quick
]

SLOW_CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (7, 8)
    for cross in (False, True)
]


def _bound(workload):
    return Binder(workload.catalog).bind(parse(workload.sql))


def _explored(workload, explorer, allow_cross):
    setup = build_initial_memo(_bound(workload), allow_cross)
    explorer.explore(setup.memo, setup.graph, allow_cross)
    return setup


def _space_total(workload, setup) -> int:
    implement_memo_columnar(
        setup.memo,
        setup.graph,
        workload.catalog,
        root_order=setup.query.order_by,
    )
    estimator = CardinalityEstimator(workload.catalog, setup.query)
    annotate_cardinalities(setup.memo, setup.graph, estimator)
    space = PlanSpace.from_memo(setup.memo, root_required=setup.query.order_by)
    return space.count(), space


def _check_equivalence(shape: str, n: int, allow_cross: bool) -> None:
    workload = SHAPES[shape](n, rows=5, seed=0)
    fast = _explored(workload, EnumerationExplorer(), allow_cross)
    slow = _explored(workload, ReferenceEnumerationExplorer(), allow_cross)

    graph = fast.graph
    # Join-graph level: identical universes and partitions, same order.
    assert connected_subsets(graph) == reference_connected_subsets(graph)
    universe = all_subsets(graph) if allow_cross else connected_subsets(graph)
    for subset in universe:
        assert partitions(graph, subset, allow_cross) == reference_partitions(
            graph, subset, allow_cross
        ), (shape, n, allow_cross, sorted(subset))

    # Memo level: identical group and logical-expression populations.
    assert len(fast.memo.groups) == len(slow.memo.groups)
    assert (
        fast.memo.logical_expression_count()
        == slow.memo.logical_expression_count()
    )
    fast_rels = [sorted(g.relations) for g in fast.memo.groups]
    slow_rels = [sorted(g.relations) for g in slow.memo.groups]
    assert fast_rels == slow_rels

    # Plan-space level: identical totals N after implementation.
    fast_total, fast_space = _space_total(workload, fast)
    slow_total, _ = _space_total(workload, slow)
    assert fast_total == slow_total

    # The rank <-> unrank bijection holds on the fast-path memo.
    probes = {0, 1, fast_total // 3, fast_total // 2, fast_total - 1}
    for rank in sorted(r for r in probes if 0 <= r < fast_total):
        assert fast_space.rank(fast_space.unrank(rank)) == rank


@pytest.mark.parametrize("shape,n,cross", FAST_CASES)
def test_bitset_explorer_matches_reference(shape, n, cross):
    _check_equivalence(shape, n, cross)


@pytest.mark.slow
@pytest.mark.parametrize("shape,n,cross", SLOW_CASES)
def test_bitset_explorer_matches_reference_large(shape, n, cross):
    _check_equivalence(shape, n, cross)
