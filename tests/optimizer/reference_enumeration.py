"""Reference (slow-path) join enumeration: the exploration oracle.

The original ``frozenset[str]``-based generate-and-test algorithms that
:mod:`repro.optimizer.joingraph` and :mod:`repro.optimizer.explorer`
replaced with bitmask csg–cmp enumeration and batched store emission.
Deliberately *not* optimized: small enough to audit by eye, and inserting
one ``GroupExpr`` at a time through ``memo.insert`` — so a memo it
explores carries no columnar store at all.  ``tests/reference_pipeline.py``
composes it with the object implementation and best-plan search into the
slow end-to-end oracle the differential suites diff the production
engine against.
"""

from __future__ import annotations

from repro.algebra.logical import LogicalJoin
from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.joingraph import JoinGraph

__all__ = [
    "reference_components",
    "reference_is_connected",
    "reference_partitions",
    "reference_connected_subsets",
    "reference_all_subsets",
    "ReferenceEnumerationExplorer",
]


def _conjunct_sets(graph: JoinGraph) -> list[frozenset[str]]:
    return [c.aliases for c in graph.conjuncts]


def _applicable(
    graph: JoinGraph, left: frozenset[str], right: frozenset[str]
) -> bool:
    combined = left | right
    for conjunct in graph.conjuncts:
        aliases = conjunct.aliases
        if aliases <= combined and not aliases <= left and not aliases <= right:
            return True
    return False


def reference_components(
    graph: JoinGraph, subset: frozenset[str]
) -> list[frozenset[str]]:
    """Connected components of the induced sub-hypergraph (seed algorithm)."""
    remaining = set(subset)
    applicable = [s for s in _conjunct_sets(graph) if s <= subset]
    out: list[frozenset[str]] = []
    while remaining:
        seed = next(iter(remaining))
        component = {seed}
        changed = True
        while changed:
            changed = False
            for edge in applicable:
                if edge & component and not edge <= component:
                    component |= edge & subset
                    changed = True
        out.append(frozenset(component))
        remaining -= component
    return out


def reference_is_connected(graph: JoinGraph, subset: frozenset[str]) -> bool:
    if not subset:
        return False
    if len(subset) == 1:
        return True
    return len(reference_components(graph, subset)) == 1


def reference_partitions(
    graph: JoinGraph, subset: frozenset[str], allow_cross_products: bool
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All valid ordered partitions, by exhaustive generate-and-test over
    the ``2^(n-1)`` unordered splits (seed algorithm and seed order)."""
    members = sorted(subset)
    n = len(members)
    if n < 2:
        return []
    out: list[tuple[frozenset[str], frozenset[str]]] = []
    for mask in range(0, (1 << (n - 1)) - 1):
        left = frozenset(
            [members[0]]
            + [members[i + 1] for i in range(n - 1) if mask & (1 << i)]
        )
        right = subset - left
        if not allow_cross_products:
            if not _applicable(graph, left, right):
                continue
            if not (
                reference_is_connected(graph, left)
                and reference_is_connected(graph, right)
            ):
                continue
        out.append((left, right))
        out.append((right, left))
    return out


def reference_all_subsets(graph: JoinGraph) -> list[frozenset[str]]:
    members = sorted(graph.aliases)
    subsets = []
    for mask in range(1, 1 << len(members)):
        subsets.append(
            frozenset(m for i, m in enumerate(members) if mask & (1 << i))
        )
    subsets.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return subsets


def reference_connected_subsets(graph: JoinGraph) -> list[frozenset[str]]:
    return [
        s for s in reference_all_subsets(graph) if reference_is_connected(graph, s)
    ]


class ReferenceEnumerationExplorer:
    """The seed bottom-up enumeration, verbatim: generate-and-test over
    frozenset alias sets, groups keyed by whatever the memo provides."""

    name = "reference-enumeration"

    def explore(
        self, memo: Memo, graph: JoinGraph, allow_cross_products: bool
    ) -> int:
        inserted = 0
        if allow_cross_products:
            universe = reference_all_subsets(graph)
        else:
            universe = reference_connected_subsets(graph)
        for subset in universe:
            if len(subset) < 2:
                continue
            group = memo.get_or_create_group(
                ("rels", memo.universe.mask_of(subset))
                if memo.universe is not None
                else ("rels", subset),
                subset,
                mask=memo.universe.mask_of(subset)
                if memo.universe is not None
                else None,
            )
            for left, right in reference_partitions(
                graph, subset, allow_cross_products
            ):
                left_group = memo.group_for_relations(left)
                right_group = memo.group_for_relations(right)
                if left_group is None or right_group is None:
                    raise OptimizerError(
                        "join children must be registered before the join"
                    )
                predicate = graph.join_predicate(left, right)
                if (
                    memo.insert(
                        LogicalJoin(predicate),
                        (left_group.gid, right_group.gid),
                        group,
                    )
                    is not None
                ):
                    inserted += 1
        return inserted
