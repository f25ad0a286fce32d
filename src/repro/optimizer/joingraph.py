"""The join hypergraph: which predicates connect which range variables.

Join reordering — by transformation rules or bottom-up enumeration — needs
one canonical answer to "what is the predicate of a join between alias
sets S1 and S2?".  We derive it from the query's conjunct list: a conjunct
*applies* to the join (S1, S2) when its referenced aliases fall within
S1 ∪ S2 but not within either side alone.  Because the predicate is a
function of the two alias sets, every transformation path that produces a
join of the same sides produces an *identical* operator, which is what
makes memo duplicate detection exact.

The same structure answers connectivity questions: the subgraph induced by
an alias set S (using only conjuncts fully inside S) must be connected for
S to be a valid sub-goal when Cartesian products are disallowed — the
distinction behind the two halves of the paper's Table 1.

Mask encoding
-------------
Internally every alias set is an integer bitmask interned through
:class:`repro.optimizer.bitset.AliasUniverse`: bit ``i`` is the ``i``-th
alias in sorted name order, so the numerically lowest bit of any mask is
its lexicographically smallest alias.  Each conjunct carries its
referenced-alias mask; per-alias *adjacency masks* (``adj[i]`` = union of
the masks of all conjuncts touching alias ``i``) make ``neighbors`` a few
OR instructions, and connectivity a word-parallel BFS whose results are
memoized per mask.  Join predicates are interned in a
``(left_mask, right_mask) -> predicate`` table, so the same predicate
*object* (with its cached fingerprint) is reused by every caller.

csg–cmp partition enumeration
-----------------------------
``partitions`` no longer generates all ``2^(n-1)`` candidate splits and
tests each from scratch.  Following the connected-subgraph/complement
style of DPccp (Moerkotte & Neumann 2006), it grows connected left sides
breadth-first from the subset's lowest alias via neighbor masks
(``EnumerateCsgRec``), then keeps exactly the splits whose complement is
connected and linked by at least one conjunct — checks that are O(1)
against the memoized connectivity table and adjacency masks.  When every
conjunct is binary (the overwhelmingly common case) no invalid left side
is ever materialized; hypergraph conjuncts (3+ referenced aliases) fall
back to the same enumeration plus an exact connectivity filter.  Valid
splits are emitted in the historical generate-and-test order (ascending
subset index over the name-sorted members), keeping memo layouts
byte-identical to the pre-bitset implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import Scalar, make_conjunction
from repro.algebra.logical import LogicalJoin
from repro.errors import OptimizerError
from repro.optimizer.bitset import AliasUniverse, iter_bits

__all__ = ["Conjunct", "JoinGraph"]


@dataclass(frozen=True)
class Conjunct:
    """One WHERE conjunct with its referenced alias set (and mask).

    ``mask`` is deliberately required: a defaulted 0 mask would classify
    the conjunct as internal to *every* subset and silently skew
    cardinality annotation."""

    expr: Scalar
    aliases: frozenset[str]
    mask: int


class JoinGraph:
    """Aliases plus multi-table conjuncts, with connectivity helpers."""

    def __init__(self, aliases: frozenset[str], conjuncts: list[Scalar]):
        if not aliases:
            raise OptimizerError("join graph requires at least one alias")
        self.aliases = frozenset(aliases)
        self.universe = AliasUniverse(self.aliases)
        self.conjuncts: list[Conjunct] = []
        self.constant_conjuncts: list[Scalar] = []
        mask_of = self.universe.mask_of
        for expr in conjuncts:
            referenced = frozenset(c.alias for c in expr.references())
            unknown = referenced - self.aliases
            if unknown:
                raise OptimizerError(
                    f"conjunct {expr.render()} references unknown aliases {sorted(unknown)}"
                )
            if not referenced:
                self.constant_conjuncts.append(expr)
            else:
                self.conjuncts.append(
                    Conjunct(expr, referenced, mask_of(referenced))
                )

        self._conjunct_masks: list[int] = [c.mask for c in self.conjuncts]
        #: all conjuncts reference at most two aliases (a plain graph, no
        #: hyperedges) — enables the pure csg–cmp fast paths
        self._only_binary = all(m.bit_count() <= 2 for m in self._conjunct_masks)
        # adjacency[i]: union of the masks of every conjunct touching bit i
        adjacency = [0] * self.universe.size
        for cm in self._conjunct_masks:
            for bit in iter_bits(cm):
                adjacency[bit.bit_length() - 1] |= cm
        self._adjacency = adjacency
        # memo tables (masks are cheap, stable dict keys)
        self._conn_cache: dict[int, bool] = {}
        self._pred_cache: dict[tuple[int, int], Scalar | None] = {}
        self._op_cache: dict[tuple[int, int], LogicalJoin] = {}
        self._csg_cache: list[int] | None = None
        self._all_subsets_cache: list[int] | None = None

    # ------------------------------------------------------------------
    # mask boundary conversion
    # ------------------------------------------------------------------
    def mask_of(self, aliases) -> int:
        """Intern an alias collection to its bitmask."""
        return self.universe.mask_of(aliases)

    def names(self, mask: int) -> frozenset[str]:
        """The alias set covered by ``mask``."""
        return self.universe.names(mask)

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    def applicable_conjuncts_m(self, left: int, right: int) -> list[Scalar]:
        """Conjuncts that become evaluable at the join of the two masks
        (and were not evaluable below it)."""
        combined = left | right
        out = []
        for conjunct in self.conjuncts:
            cm = conjunct.mask
            if not cm & ~combined and cm & ~left and cm & ~right:
                out.append(conjunct.expr)
        return out

    def applicable_conjuncts(
        self, left: frozenset[str], right: frozenset[str]
    ) -> list[Scalar]:
        """Conjuncts that become evaluable at the join of ``left`` and
        ``right`` (and were not evaluable below it)."""
        mask_of = self.universe.mask_of
        return self.applicable_conjuncts_m(mask_of(left), mask_of(right))

    def join_predicate_m(self, left: int, right: int) -> Scalar | None:
        """The canonical join predicate for the mask partition, interned:
        both orientations share one predicate object."""
        key = (left, right)
        cache = self._pred_cache
        if key in cache:
            return cache[key]
        predicate = make_conjunction(self.applicable_conjuncts_m(left, right))
        cache[key] = predicate
        cache[(right, left)] = predicate
        return predicate

    def join_predicate(
        self, left: frozenset[str], right: frozenset[str]
    ) -> Scalar | None:
        """The canonical join predicate for the partition (left, right)."""
        mask_of = self.universe.mask_of
        return self.join_predicate_m(mask_of(left), mask_of(right))

    def join_operator_m(self, left: int, right: int) -> LogicalJoin:
        """The interned logical join operator for the mask partition.

        The operator's identity is its predicate, which both orientations
        share — interning lets every insertion of the same logical join
        reuse one operator object (and its cached memo key).
        """
        key = (left, right)
        cache = self._op_cache
        op = cache.get(key)
        if op is None:
            op = LogicalJoin(self.join_predicate_m(left, right))
            cache[key] = op
            cache[(right, left)] = op
        return op

    def internal_conjuncts_m(self, mask: int) -> list[Conjunct]:
        """Conjuncts whose references fall entirely inside ``mask``."""
        return [c for c in self.conjuncts if not c.mask & ~mask]

    def internal_conjuncts(self, subset: frozenset[str]) -> list[Conjunct]:
        """Conjuncts whose references fall entirely inside ``subset``."""
        return self.internal_conjuncts_m(self.universe.mask_of(subset))

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def _neighbor_mask(self, mask: int) -> int:
        """Union of adjacency masks over the bits of ``mask`` (unrestricted:
        includes ``mask`` itself; callers strip as needed)."""
        out = 0
        adjacency = self._adjacency
        m = mask
        while m:
            bit = m & -m
            out |= adjacency[bit.bit_length() - 1]
            m ^= bit
        return out

    def components_m(self, mask: int) -> list[int]:
        """Connected components of the hypergraph induced by ``mask``.

        A conjunct counts only when *all* its aliases lie inside ``mask``
        (hyperedges connect nothing until complete)."""
        out: list[int] = []
        masks = self._conjunct_masks
        remaining = mask
        while remaining:
            component = remaining & -remaining
            changed = True
            while changed:
                changed = False
                for cm in masks:
                    if cm & component and not cm & ~mask and cm & ~component:
                        component |= cm
                        changed = True
            out.append(component)
            remaining &= ~component
        return out

    def components(self, subset: frozenset[str]) -> list[frozenset[str]]:
        """Connected components of the hypergraph induced by ``subset``."""
        names = self.universe.names
        return [names(m) for m in self.components_m(self.universe.mask_of(subset))]

    def _bfs_connected(self, mask: int) -> bool:
        """Word-parallel BFS connectivity (binary-conjunct graphs only)."""
        adjacency = self._adjacency
        component = frontier = mask & -mask
        while frontier:
            grown = 0
            m = frontier
            while m:
                bit = m & -m
                grown |= adjacency[bit.bit_length() - 1]
                m ^= bit
            frontier = grown & mask & ~component
            component |= frontier
        return component == mask

    def is_connected_m(self, mask: int) -> bool:
        """Memoized connectivity of the induced sub-hypergraph."""
        if not mask:
            return False
        if not mask & (mask - 1):  # single alias
            return True
        cache = self._conn_cache
        value = cache.get(mask)
        if value is None:
            if self._only_binary:
                value = self._bfs_connected(mask)
            else:
                first = self.components_m(mask)[0]
                value = first == mask
            cache[mask] = value
        return value

    def is_connected(self, subset: frozenset[str]) -> bool:
        if not subset:
            return False
        return self.is_connected_m(self.universe.mask_of(subset))

    def neighbors_m(self, mask: int) -> int:
        """Aliases outside ``mask`` reachable by one conjunct touching it."""
        return self._neighbor_mask(mask) & ~mask

    def neighbors(self, subset: frozenset[str]) -> frozenset[str]:
        """Aliases outside ``subset`` reachable by one conjunct that touches
        ``subset`` (used by connected-subgraph enumeration)."""
        return self.universe.names(self.neighbors_m(self.universe.mask_of(subset)))

    # ------------------------------------------------------------------
    # csg–cmp partition enumeration
    # ------------------------------------------------------------------
    def _grow_connected(
        self, start: int, start_nbr: int, prohibited: int, restrict: int, emit
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
        adjacency = self._adjacency
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

    def _connected_within(self, subset: int, start: int) -> list[tuple[int, int]]:
        """All adjacency-connected subsets of ``subset`` containing the
        one-bit mask ``start``, as ``(mask, neighbor_mask)`` pairs.

        With binary conjuncts every emitted mask is truly connected; with
        hyperedges the caller filters through :meth:`is_connected_m`.
        """
        start_nbr = self._adjacency[start.bit_length() - 1]
        out = [(start, start_nbr)]
        append = out.append
        self._grow_connected(
            start, start_nbr, start, subset,
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
        self, subset: int, allow_cross_products: bool
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
            for left, right in self.cross_splits_m(subset):
                out.append((left, right))
                out.append((right, left))
            return out
        if not subset & (subset - 1):  # fewer than two aliases
            return []
        lowest = subset & -subset
        rest = subset ^ lowest
        out = []

        only_binary = self._only_binary
        is_connected = self.is_connected_m
        masks = self._conjunct_masks
        valid: list[tuple[int, int]] = []
        for left, left_nbr in self._connected_within(subset, lowest):
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

    def cross_splits_m(self, subset: int) -> list[tuple[int, int]]:
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

    def csg_cmp_buckets(self) -> dict[int, list[tuple[int, int]]]:
        """Every valid no-cross-products split, grouped by subset mask.

        ``buckets[S]`` lists the unordered splits ``(left, right)`` of the
        connected subset ``S`` — left side containing ``S``'s smallest
        alias — in historical split-index order.  Binary-conjunct graphs
        run the full DPccp pairing (EnumerateCsg × EnumerateCmp): each
        valid csg–cmp pair is produced exactly once, globally, and nothing
        invalid is ever materialized.  Hypergraph queries fall back to the
        per-subset filtered enumeration.
        """
        if not self._only_binary:
            return {
                subset: [
                    pair
                    for pair in self.partitions_m(subset, False)[::2]
                ]
                for subset in self.connected_subset_masks()
                if subset & (subset - 1)
            }

        adjacency = self._adjacency
        grow = self._grow_connected
        buckets: dict[int, list[tuple[int, int]]] = {}

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
        for position in range(self.universe.size - 1, -1, -1):
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
        self, subset: frozenset[str], allow_cross_products: bool
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
        names = self.universe.names
        return [
            (names(left), names(right))
            for left, right in self.partitions_m(
                self.universe.mask_of(subset), allow_cross_products
            )
        ]

    # ------------------------------------------------------------------
    # subset universes
    # ------------------------------------------------------------------
    def _size_name_key(self, mask: int):
        return (mask.bit_count(), self.universe.sorted_names(mask))

    def connected_subset_masks(self) -> list[int]:
        """All connected alias subsets as masks, smallest first (by size,
        then name) — the group universe for the no-cross-products space.

        Binary-conjunct graphs use DPccp's EnumerateCsg (each connected
        subset emitted exactly once, nothing else materialized); hypergraph
        queries enumerate adjacency-connected candidates and filter through
        the exact connectivity test.
        """
        if self._csg_cache is not None:
            return self._csg_cache
        out: list[int] = []
        adjacency = self._adjacency
        only_binary = self._only_binary
        append = out.append
        for position in range(self.universe.size - 1, -1, -1):
            start = 1 << position
            prohibited0 = (1 << (position + 1)) - 1
            append(start)
            self._grow_connected(
                start,
                adjacency[position],
                prohibited0,
                -1,
                lambda mask, _nbr: append(mask),
            )
        if only_binary:
            for mask in out:
                self._conn_cache[mask] = True
        else:
            out = [m for m in out if self.is_connected_m(m)]
        out.sort(key=self._size_name_key)
        self._csg_cache = out
        return out

    def all_subset_masks(self) -> list[int]:
        """All non-empty alias subsets as masks, smallest first (by size,
        then name)."""
        if self._all_subsets_cache is None:
            subsets = list(range(1, self.universe.full_mask + 1))
            subsets.sort(key=self._size_name_key)
            self._all_subsets_cache = subsets
        return self._all_subsets_cache

    def enumeration_universe(
        self, allow_cross_products: bool
    ) -> tuple[list[int], dict[int, list[tuple[int, int]]] | None]:
        """The explorer's subset universe plus per-subset split buckets.

        One definition for every consumer that must walk the search space
        in the canonical order — the batched columnar builder and
        (through it) the implicit engine — so the byte-identical-memo
        guarantee cannot drift between them.  In the
        cross-products space ``buckets`` is ``None``: every split is
        valid, and callers take :meth:`cross_splits_m` per subset.
        """
        if allow_cross_products:
            return self.all_subset_masks(), None
        return self.connected_subset_masks(), self.csg_cmp_buckets()

    def connected_subsets(self) -> list[frozenset[str]]:
        """All connected alias subsets, smallest first (by size, then name).

        This is the group universe for the no-cross-products search space.
        """
        names = self.universe.names
        return [names(m) for m in self.connected_subset_masks()]

    def all_subsets(self) -> list[frozenset[str]]:
        """All non-empty alias subsets, smallest first (by size, then name)."""
        names = self.universe.names
        return [names(m) for m in self.all_subset_masks()]
