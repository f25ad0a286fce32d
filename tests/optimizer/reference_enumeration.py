"""Reference (slow-path) join enumeration: the exploration oracles.

Two generations of the enumerator the production csg–cmp kernel
(:func:`repro.kernel.vector.csg_cmp_universe`) replaced.  First, the
original ``frozenset[str]``-based generate-and-test algorithms that
bitmask csg–cmp enumeration and batched store emission replaced.
Deliberately *not* optimized: small enough to audit by eye, and inserting
one ``GroupExpr`` at a time through ``memo.insert`` — so a memo it
explores carries no columnar store at all.  ``tests/reference_pipeline.py``
composes it with the object implementation and best-plan search into the
slow end-to-end oracle the differential suites diff the production
engine against.  Second, the mask-based Python DPccp and the per-split
store builder over it (:func:`reference_logical_store`), whose universe
order, split order and store bytes the kernel must reproduce
(``tests/optimizer/test_csg_cmp_kernel.py``).
"""

from __future__ import annotations

from repro.algebra.logical import LogicalJoin
from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.bitset import iter_bits
from repro.optimizer.joingraph import JoinGraph

__all__ = [
    "reference_components",
    "reference_is_connected",
    "reference_partitions",
    "reference_connected_subsets",
    "reference_all_subsets",
    "ReferenceEnumerationExplorer",
    "all_subset_masks",
    "all_subsets",
    "connected_subset_masks",
    "connected_subsets",
    "cross_splits_m",
    "csg_cmp_buckets",
    "enumeration_universe",
    "partitions",
    "partitions_m",
    "reference_logical_store",
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


# ----------------------------------------------------------------------
# The mask-based Python DPccp: the production enumerator until the
# vectorized csg–cmp kernel (``repro.kernel.vector.csg_cmp_universe``)
# replaced it, moved here verbatim (methods became functions of the join
# graph; the per-graph caches went with the methods).  It is the oracle
# for the kernel's universe order and per-subset split order.
# ----------------------------------------------------------------------
def _grow_connected(
    graph: JoinGraph, start: int, start_nbr: int, prohibited: int, restrict: int, emit
) -> None:
    """DPccp's EnumerateCsgRec, iteratively: breadth-first growth of
    the connected set ``start`` through its neighbor mask, restricted
    to ``restrict`` (pass -1 for the whole universe) and never into
    ``prohibited``.  ``emit(mask, neighbor_mask)`` is called once per
    grown candidate — the seed itself is *not* emitted.

    The neighbor mask is maintained incrementally as bits are added,
    so neither the expansion nor the caller's linking checks ever
    recompute it from scratch.  Each candidate is produced exactly
    once (the per-level frontier is added to the prohibited set of
    the recursive expansions, the standard DPccp dedup argument).
    """
    adjacency = graph._adjacency
    stack = [(start, start_nbr, prohibited)]
    while stack:
        grown, grown_nbr, blocked_below = stack.pop()
        frontier = grown_nbr & restrict & ~blocked_below & ~grown
        if not frontier:
            continue
        blocked = blocked_below | frontier
        sub = frontier
        while sub:
            candidate = grown | sub
            candidate_nbr = grown_nbr
            m = sub
            while m:
                bit = m & -m
                candidate_nbr |= adjacency[bit.bit_length() - 1]
                m ^= bit
            emit(candidate, candidate_nbr)
            stack.append((candidate, candidate_nbr, blocked))
            sub = (sub - 1) & frontier


def _connected_within(graph: JoinGraph, subset: int, start: int) -> list[tuple[int, int]]:
    """All adjacency-connected subsets of ``subset`` containing the
    one-bit mask ``start``, as ``(mask, neighbor_mask)`` pairs.

    With binary conjuncts every emitted mask is truly connected; with
    hyperedges the caller filters through :meth:`is_connected_m`.
    """
    start_nbr = graph._adjacency[start.bit_length() - 1]
    out = [(start, start_nbr)]
    append = out.append
    _grow_connected(
        graph, start, start_nbr, start, subset,
        lambda mask, nbr: append((mask, nbr)),
    )
    return out


# NOTE on split ordering: the historical generate-and-test loop
# emitted a subset's splits in ascending *split index* — the value of
# the left side's bits compressed over the subset's name-sorted
# members.  Bit compression over a fixed subset is order-preserving
# (it maps bit positions monotonically), so for splits of the same
# subset ``index(a) < index(b)  <=>  a < b`` as plain integers:
# sorting by the left mask reproduces the historical order without
# computing an index per split.

def partitions_m(
    graph: JoinGraph, subset: int, allow_cross_products: bool
) -> list[tuple[int, int]]:
    """All ordered two-way partitions of ``subset`` that form a valid
    join under the cross-product policy, as mask pairs.

    Emission order matches the historical generate-and-test loop:
    unordered splits ascend by split index (equivalently, by left
    mask — see the ordering note above), each immediately followed by
    its mirror.
    """
    if allow_cross_products:
        out: list[tuple[int, int]] = []
        for left, right in cross_splits_m(graph, subset):
            out.append((left, right))
            out.append((right, left))
        return out
    if not subset & (subset - 1):  # fewer than two aliases
        return []
    lowest = subset & -subset
    out = []

    only_binary = graph._only_binary
    is_connected = graph.is_connected_m
    masks = graph._conjunct_masks
    valid: list[tuple[int, int]] = []
    for left, left_nbr in _connected_within(graph, subset, lowest):
        right = subset ^ left
        if not right:
            continue
        if not only_binary and not is_connected(left):
            continue
        if not is_connected(right):
            continue
        if only_binary:
            if not left_nbr & right:
                continue
        else:
            # A linking conjunct must lie inside the subset and touch
            # both sides (hyperedges link only once complete).
            for cm in masks:
                if not cm & ~subset and cm & left and cm & right:
                    break
            else:
                continue
        valid.append((left, right))
    valid.sort()
    for left, right in valid:
        out.append((left, right))
        out.append((right, left))
    return out


def cross_splits_m(graph: JoinGraph, subset: int) -> list[tuple[int, int]]:
    """Every unordered split of ``subset`` (the cross-products space:
    all are valid), left side containing the subset's lowest alias,
    in historical index order.  Callers that want ordered pairs emit
    the mirror themselves — half the tuples of the ordered form."""
    if not subset & (subset - 1):  # fewer than two aliases
        return []
    lowest = subset & -subset
    bits = list(iter_bits(subset ^ lowest))
    out: list[tuple[int, int]] = []
    for index in range((1 << len(bits)) - 1):
        left = lowest
        m = index
        while m:
            bit = m & -m
            left |= bits[bit.bit_length() - 1]
            m ^= bit
        out.append((left, subset ^ left))
    return out


def csg_cmp_buckets(graph: JoinGraph) -> dict[int, list[tuple[int, int]]]:
    """Every valid no-cross-products split, grouped by subset mask.

    ``buckets[S]`` lists the unordered splits ``(left, right)`` of the
    connected subset ``S`` — left side containing ``S``'s smallest
    alias — in historical split-index order.  Binary-conjunct graphs
    run the full DPccp pairing (EnumerateCsg × EnumerateCmp): each
    valid csg–cmp pair is produced exactly once, globally, and nothing
    invalid is ever materialized.  Hypergraph queries fall back to the
    per-subset filtered enumeration.
    """
    if not graph._only_binary:
        return {
            subset: [
                pair
                for pair in partitions_m(graph, subset, False)[::2]
            ]
            for subset in connected_subset_masks(graph)
            if subset & (subset - 1)
        }

    adjacency = graph._adjacency
    buckets: dict[int, list[tuple[int, int]]] = {}

    def grow(*args) -> None:
        _grow_connected(graph, *args)

    def record(s1: int, s2: int) -> None:
        union = s1 | s2
        entry = (s1, s2)
        bucket = buckets.get(union)
        if bucket is None:
            buckets[union] = [entry]
        else:
            bucket.append(entry)

    def enumerate_cmp(s1: int, s1_nbr: int, prohibited0: int) -> None:
        # EnumerateCmp(S1): complements live outside S1 and outside the
        # prohibited prefix; each starts at one neighbor and grows.
        base_x = prohibited0 | s1
        candidates = s1_nbr & ~base_x
        if not candidates:
            return
        starts = list(iter_bits(candidates))
        for start in reversed(starts):  # descending index, as in DPccp
            record(s1, start)
            below = (start << 1) - 1  # start and all lower bits
            grow(
                start,
                adjacency[start.bit_length() - 1],
                base_x | (below & candidates),
                -1,
                lambda s2, _nbr, s1=s1: record(s1, s2),
            )

    # EnumerateCsg with neighbor masks threaded through, running
    # EnumerateCmp on every emitted connected subset.
    for position in range(graph.universe.size - 1, -1, -1):
        start = 1 << position
        prohibited0 = (1 << position) - 1  # strictly lower bits
        start_nbr = adjacency[position]
        enumerate_cmp(start, start_nbr, prohibited0)
        grow(
            start,
            start_nbr,
            prohibited0 | start,
            -1,
            lambda s1, s1_nbr, p0=prohibited0: enumerate_cmp(s1, s1_nbr, p0),
        )

    for entries in buckets.values():
        # left masks are unique per bucket (the right side is the
        # complement), so sorting pairs sorts by historical index
        entries.sort()
    return buckets


def partitions(
    graph: JoinGraph, subset: frozenset[str], allow_cross_products: bool
) -> list[tuple[frozenset[str], frozenset[str]]]:
    """All ordered two-way partitions (S1, S2) of ``subset`` that form a
    valid join under the cross-product policy.

    With cross products allowed every non-trivial partition is valid.
    Without, both sides must induce connected subgraphs *and* at least
    one conjunct must connect them (the join must not be a Cartesian
    product).  Ordered pairs are returned because join commutativity
    makes ``A ⋈ B`` and ``B ⋈ A`` distinct memo expressions (and
    distinct plans for asymmetric implementations like hash join).
    """
    names = graph.universe.names
    return [
        (names(left), names(right))
        for left, right in partitions_m(
            graph, graph.universe.mask_of(subset), allow_cross_products
        )
    ]


def _size_name_key(graph: JoinGraph, mask: int):
    return (mask.bit_count(), graph.universe.sorted_names(mask))


def connected_subset_masks(graph: JoinGraph) -> list[int]:
    """All connected alias subsets as masks, smallest first (by size,
    then name) — the group universe for the no-cross-products space.

    Binary-conjunct graphs use DPccp's EnumerateCsg (each connected
    subset emitted exactly once, nothing else materialized); hypergraph
    queries enumerate adjacency-connected candidates and filter through
    the exact connectivity test.
    """
    out: list[int] = []
    adjacency = graph._adjacency
    only_binary = graph._only_binary
    append = out.append
    for position in range(graph.universe.size - 1, -1, -1):
        start = 1 << position
        prohibited0 = (1 << (position + 1)) - 1
        append(start)
        _grow_connected(
            graph,
            start,
            adjacency[position],
            prohibited0,
            -1,
            lambda mask, _nbr: append(mask),
        )
    if not only_binary:
        out = [m for m in out if graph.is_connected_m(m)]
    out.sort(key=lambda mask: _size_name_key(graph, mask))
    return out


def all_subset_masks(graph: JoinGraph) -> list[int]:
    """All non-empty alias subsets as masks, smallest first (by size,
    then name)."""
    subsets = list(range(1, graph.universe.full_mask + 1))
    subsets.sort(key=lambda mask: _size_name_key(graph, mask))
    return subsets


def enumeration_universe(
    graph: JoinGraph, allow_cross_products: bool
) -> tuple[list[int], dict[int, list[tuple[int, int]]]]:
    """The explorer's subset universe plus per-subset split buckets, in
    the canonical order (the cross-products space buckets every subset's
    :func:`cross_splits_m`)."""
    if allow_cross_products:
        subsets = all_subset_masks(graph)
        return subsets, {
            subset: cross_splits_m(graph, subset)
            for subset in subsets
            if subset & (subset - 1)
        }
    return connected_subset_masks(graph), csg_cmp_buckets(graph)


def connected_subsets(graph: JoinGraph) -> list[frozenset[str]]:
    """All connected alias subsets, smallest first (by size, then name).

    This is the group universe for the no-cross-products search space.
    """
    names = graph.universe.names
    return [names(m) for m in connected_subset_masks(graph)]


def all_subsets(graph: JoinGraph) -> list[frozenset[str]]:
    """All non-empty alias subsets, smallest first (by size, then name)."""
    names = graph.universe.names
    return [names(m) for m in all_subset_masks(graph)]


def reference_logical_store(memo, graph: JoinGraph, allow_cross_products: bool):
    """The per-split batched builder the kernel's arrays replaced: walks
    the oracle's universe and buckets, mapping every split's masks to
    gids one tuple at a time.  A store it builds is what
    :func:`repro.memo.columnar.build_logical_store` must reproduce byte
    for byte."""
    from repro.memo.columnar import ColumnarLogicalStore, ColumnarUnsupported

    store = ColumnarLogicalStore(memo, graph, allow_cross_products)
    subsets, buckets = enumeration_universe(graph, allow_cross_products)
    store.subset_masks = subsets
    get_group = memo.get_or_create_rels_group
    gid_of = memo._rels_gid_by_mask
    for subset in subsets:
        if not subset & (subset - 1):
            continue
        group = get_group(subset)
        gid = group.gid
        prefix = group._exprs
        init = None
        if prefix:
            init = prefix[0].children
            store.initial_by_gid[gid] = init
        block = [(gid_of[left], gid_of[right]) for left, right in buckets.get(subset, ())]
        if init is not None and init not in block and init[::-1] not in block:
            raise ColumnarUnsupported(
                f"initial join of group {gid} missing from its splits"
            )
        start = len(store.sl)
        store.sl.extend(left for left, _ in block)
        store.sr.extend(right for _, right in block)
        store._range_by_gid[gid] = (start, len(store.sl))
    store.gid_by_mask = dict(gid_of)
    store.complete = True
    return store
