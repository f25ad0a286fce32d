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
:meth:`JoinGraph.enumeration_universe` is the search space: every
connected subset (csg) and every valid split of it into a connected
complement pair (cmp), built as arrays by one vectorized DPccp
(Moerkotte & Neumann 2006) in :func:`repro.kernel.vector.csg_cmp_universe`.
The kernel grows all csgs and their complements level-synchronously
from the adjacency masks — each pair produced exactly once, nothing
invalid materialized — and orders the result canonically: subsets by
size then sorted names, each subset's splits by left mask (the
historical generate-and-test split-index order), so memo layouts stay
byte-identical to the per-split Python enumerator it replaced (kept
under ``tests/`` as the oracle).  Hypergraph conjuncts (3+ referenced
aliases) make the adjacency graph a candidate generator, filtered by
exact connectivity and a linking conjunct.  The cross-products space
is every subset with every split.  The connectivity helpers below
(``is_connected_m``, ``components_m``, ``neighbors_m``) answer single
questions about one alias set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import Scalar, make_conjunction
from repro.algebra.logical import LogicalJoin
from repro.errors import OptimizerError
from repro.kernel.vector import csg_cmp_universe
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
        #: hyperedges) — connectivity is then a plain BFS
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
        ``subset``."""
        return self.universe.names(self.neighbors_m(self.universe.mask_of(subset)))

    # ------------------------------------------------------------------
    # the search space
    # ------------------------------------------------------------------
    def enumeration_universe(self, allow_cross_products: bool, on_level=None):
        """The explorer's subset universe and every valid split, as arrays.

        ``(subsets, left, right, offsets)`` from the vectorized csg–cmp
        kernel (:func:`repro.kernel.vector.csg_cmp_universe`): the
        universe by size then name, and the unordered splits of subset
        ``r`` — both sides as ranks into ``subsets`` — at
        ``offsets[r]:offsets[r + 1]`` in historical split-index order.  One definition for every consumer that must walk the
        search space in the canonical order — the batched columnar
        builder and (through it) the implicit engine — so the
        byte-identical-memo guarantee cannot drift between them.
        ``on_level(units)`` is polled once per kernel level.
        """
        return csg_cmp_universe(
            self._adjacency, self._conjunct_masks, allow_cross_products, on_level
        )
