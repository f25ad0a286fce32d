"""Struct-of-arrays physical memo: the columnar optimization core.

The object memo stores one slotted :class:`~repro.memo.group.GroupExpr`
per physical alternative — for a 12-relation clique that is ~2.9 million
Python objects, and constructing them (operator dataclasses, fingerprint
tuples, duplicate-detection dict probes) dominates exact optimization.
This module stores the physical side of the memo as parallel integer
arrays instead:

====== ===================================================================
column meaning
====== ===================================================================
tag    operator kind (``TAG_*`` op-code)
gid    owning group id
c0/c1  child group ids (-1 when unused; note an index-lookup join has
       arity 1: ``c0`` is the outer input, ``a`` keeps the inner gid)
a/b    per-tag payload: interned sort-order ids (*kids*) for merge keys
       and delivered orders, or the ordinal into the group's generated
       operator list (scans, unary operators, index-lookup joins)
====== ===================================================================

Rows are emitted in exactly the order a one-``memo.insert``-per-operator
loop (the oracle, ``tests/optimizer/reference_implementation.py``)
inserts expressions — group by group, logical expression by logical
expression, rule order within — so ``local_id`` arithmetic is
positional: row ``r`` of group ``g`` has local id ``logical_count(g) +
(r - start(g)) + 1``.  ``Sort`` enforcers are not rows; they are
per-group kid lists in global requirement first-occurrence order, with
the local ids that follow the group's block.

Key identity is *bitmask* work, reused from the implicit engine
(:mod:`repro.planspace.implicit.edges`): the equi-key sequences of a join
``(left, right)`` are the oriented equality edges crossing the cut,
``FROM[left] & TO[right]``, decoded once per distinct cut and interned to
integer *kids*.  No predicate is walked and no key tuple is sorted per
expression.

The memo also has a *logical* columnar side
(:class:`ColumnarLogicalStore`, built by batched exploration — or, for
the heuristic tier, from the setup pass's seeded joins alone): for every
relation-mask group of two or more aliases, the valid unordered csg–cmp
splits are two parallel child-gid columns (``sl``/``sr``, bucket order,
blocks contiguous per group in enumeration-universe order) plus the
group's initial left-deep orientation when the setup pass seeded one.
Both orientations of every split — minus the initial duplicate, exactly
what a per-expression ``memo.insert`` loop would have kept — are
derived positionally, so a 12-relation clique's ~1M
logical joins are two ``array('i')`` buffers instead of a million
``GroupExpr``/``LogicalJoin`` constructions and fingerprint probes.

The object ``Memo``/``GroupExpr`` API stays the facade: every group gets
a ``_pending`` hook that rebuilds its :class:`GroupExpr` list on first
access (same operators, same order, same local ids — the shared rule
module guarantees identity, and the columnar property suite asserts it),
every operator read from the space's one operator cache
(:class:`~repro.optimizer.rules.PhysicalOperators`, which the pair
record creates and seeds with the leaf and tower groups' operators),
so the plan-space toolkit, pruning, and explain work unchanged.  The
hook materializes in logical-then-physical order, and
``Group.logical_exprs()`` fires only the logical half.  Counting
(`expression_count` and friends) answers from the arrays without
materializing anything.

The physical rows are emitted by one vectorized pass over the logical
store (index-lookup joins included), reading the ordered pairs, cut kids,
index lookups and requirements off the one :class:`PairRecord` the
implicit count pass reads too.  The record owns the kid universe — every
order the memo names, byte-lex ranked — and its one order rule, the kid
interval ``q <= d < kid_hi[q]``.  The per-group scalar loop the emitter
replaced is the oracle ``tests/memo/reference_emission.py``.  Columns
are ``array.array`` buffers; the emitter and the layered best-plan DP
(:mod:`repro.optimizer.bestplan`) view them as numpy arrays without
copying.
"""

from __future__ import annotations

import weakref
from array import array
from typing import NamedTuple

import numpy as np

from repro.algebra.logical import LogicalGet, LogicalJoin
from repro.errors import MemoError
from repro.kernel.vector import (
    cut_key_table,
    int_words,
    prefix_intervals,
    union_words_by_mask,
)
from repro.memo.group import Group, GroupExpr
from repro.resilience.faults import fault_point
from repro.optimizer.rules import (
    ImplementationConfig,
    PhysicalOperators,
    index_lookup_matches,
    join_physical_kinds,
)

__all__ = [
    "ColumnarLogicalStore",
    "ColumnarPhysicalStore",
    "ColumnarUnsupported",
    "PairRecord",
    "build_columnar_store",
    "build_logical_store",
    "build_pair_record",
    "replay_logical_store",
    "seeded_logical_store",
]

# Physical row op-codes.  Joins use the contiguous NLJ/HASH/MERGE band so
# the DP can mask them in one comparison.
TAG_TABLE_SCAN = 0
TAG_INDEX_SCAN = 1
TAG_NLJ = 2
TAG_HASH = 3
TAG_MERGE = 4
TAG_INLJ = 5
TAG_FILTER = 6
TAG_HASHAGG = 7
TAG_STREAMAGG = 8
TAG_PROJECT = 9

_JOIN_KIND_TAGS = {"nlj": TAG_NLJ, "hash": TAG_HASH, "merge": TAG_MERGE}

#: unary-operator tags in ``unary_implementations`` class order
_UNARY_TAGS = {
    "PhysicalFilter": TAG_FILTER,
    "HashAggregate": TAG_HASHAGG,
    "StreamAggregate": TAG_STREAMAGG,
    "PhysicalProject": TAG_PROJECT,
}


class _MemoView:
    """A store the memo owns (``memo.columnar_logical`` /
    ``memo.columnar``, each group's pending hook) and reads back through
    a weak reference: owners point down, so a dropped memo frees its
    stores by reference count, not by the cycle collector."""

    __slots__ = ()

    @property
    def memo(self):
        """The memo this store describes, while someone else holds it."""
        memo = self._memo()
        if memo is None:
            raise MemoError("the memo this columnar store describes was dropped")
        return memo


class ColumnarUnsupported(Exception):
    """This memo cannot take a columnar build: not freshly seeded
    (batched exploration, the heuristic tier's seeded store), drifted
    from its cached template (replay — the caller explores normally
    instead), or hand-assembled without an alias universe or holding a
    join group explored one ``memo.insert`` at a time (implementation,
    which has no other path)."""


class _PendingExprs:
    """``Group._pending`` hook: materialize a group's deferred blocks.

    Carries up to two array stores — the logical join block (batched
    exploration) and the physical operator block (batched
    implementation).  Materialization is always logical-then-physical, so
    ``local_id`` arithmetic stays positional whichever half fires first.
    """

    __slots__ = ("gid", "logical", "physical")

    def __init__(
        self,
        gid: int,
        logical: "ColumnarLogicalStore | None" = None,
        physical: "ColumnarPhysicalStore | None" = None,
    ):
        self.gid = gid
        self.logical = logical
        self.physical = physical

    def __call__(self, group: Group) -> None:
        if self.logical is not None:
            self.logical.materialize_group(group)
            self.logical = None
        if self.physical is not None:
            self.physical.materialize_group(group)

    def logical_count(self) -> int:
        if self.logical is None:
            return 0
        return self.logical.pending_count(self.gid)

    def physical_count(self) -> int:
        if self.physical is None:
            return 0
        return self.physical.group_physical_count(self.gid)

    def materialize_logical(self, group: Group) -> None:
        """Rebuild only the logical block; keep the physical one lazy."""
        if self.logical is not None:
            self.logical.materialize_group(group)
            self.logical = None
            if self.physical is None:
                group._pending = None


class ColumnarLogicalStore(_MemoView):
    """Array-backed explored logical joins of one memo.

    Rows are the *unordered* valid splits of every relation-mask group —
    left side holding the subset's name-smallest alias, historical bucket
    order — as parallel child-gid columns.  Ordered orientations (what
    ``Group.exprs`` holds) are derived positionally: the group's initial
    left-deep expression first (it was inserted by setup and survives as
    the object prefix), then both orientations of each split minus that
    duplicate — byte-identical to a per-expression insert stream (the
    reference explorer under ``tests/`` is the oracle).
    """

    def __init__(self, memo, graph, allow_cross_products: bool):
        self._memo = weakref.ref(memo)
        self.graph = graph
        self.allow_cross_products = allow_cross_products
        #: set by the builder once every block is emitted; an interrupted
        #: build leaves it False and the store can never attach
        self.complete = False
        #: unordered split child gids (left = name-smallest side)
        self.sl = array("i")
        self.sr = array("i")
        #: gid -> [start, end) split-row range, in emission order
        self._range_by_gid: dict[int, tuple[int, int]] = {}
        #: gid -> ordered (left_gid, right_gid) of the setup-seeded join
        self.initial_by_gid: dict[int, tuple[int, int]] = {}
        #: the enumeration universe the blocks were emitted over
        self.subset_masks: list[int] = []
        #: subset mask -> gid at build time (every mask of the universe,
        #: leaves included) — the determinism witness template replay
        #: (:func:`replay_logical_store`) verifies against
        self.gid_by_mask: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self.sl)

    def split_rows(self, gid: int) -> tuple[int, int] | None:
        """The group's split-row range, or ``None`` for non-join groups."""
        return self._range_by_gid.get(gid)

    def split_count(self, gid: int) -> int:
        rng = self._range_by_gid.get(gid)
        return 0 if rng is None else rng[1] - rng[0]

    def logical_join_count(self, gid: int) -> int:
        """Total logical expressions of the group (both orientations of
        every split; the initial expression is one of them)."""
        return 2 * self.split_count(gid)

    def pending_count(self, gid: int) -> int:
        """Rows the batched explorer added beyond the object prefix."""
        count = self.logical_join_count(gid)
        if count and gid in self.initial_by_gid:
            count -= 1
        return count

    def expression_total(self) -> int:
        """Logical joins the batched build contributed (the number a
        per-expression insert loop would have reported)."""
        return 2 * self.row_count - len(self.initial_by_gid)

    # ------------------------------------------------------------------
    def explored_pairs(self, gid: int):
        """Ordered ``(left_gid, right_gid)`` orientations beyond the
        object prefix, in local-id order."""
        rng = self._range_by_gid.get(gid)
        if rng is None:
            return
        init = self.initial_by_gid.get(gid)
        sl, sr = self.sl, self.sr
        for row in range(rng[0], rng[1]):
            left, right = sl[row], sr[row]
            if (left, right) != init:
                yield (left, right)
            if (right, left) != init:
                yield (right, left)

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install the pending-materialization hooks and register the
        store on the memo."""
        if not self.complete:
            raise MemoError(
                "refusing to attach an incomplete columnar logical store "
                "(the build was interrupted)"
            )
        memo = self.memo
        memo.columnar_logical = self
        groups = memo.groups
        for gid in self._range_by_gid:
            if self.pending_count(gid):
                groups[gid]._pending = _PendingExprs(gid, logical=self)

    def materialize_group(self, group: Group) -> None:
        """Append the group's explored logical joins — identical
        operators (interned per mask cut), order and local ids as a
        per-expression explorer would have inserted.  Fingerprints are
        registered with the memo, so later ``memo.insert`` calls (a
        transformation pass) deduplicate against rebuilt expressions
        exactly as they would against inserted ones."""
        exprs = group._exprs
        gid = group.gid
        local = len(exprs) + 1
        groups = self.memo.groups
        join_op = self.graph.join_operator_m
        fingerprints = self.memo._expr_fingerprints
        append = exprs.append
        for left, right in self.explored_pairs(gid):
            op = join_op(groups[left].mask, groups[right].mask)
            children = (left, right)
            append(GroupExpr(op, children, gid, local))
            fingerprints[(op.key(), children)] = (gid, local)
            local += 1


def build_logical_store(
    memo, graph, allow_cross_products: bool, scope=None
) -> ColumnarLogicalStore:
    """Batched exploration: the join graph's csg–cmp universe, as arrays,
    into a :class:`ColumnarLogicalStore`.

    :meth:`JoinGraph.enumeration_universe` returns the subset universe
    in its canonical order and every valid split as subset-rank columns
    grouped by subset.  Each join subset's group is created (or found)
    in that order — the only per-subset Python left — and the split
    columns become child-gid columns by one gather each, with every
    group's row range read off the kernel's offsets.  No per-expression
    ``memo.insert``, no ``GroupExpr``/fingerprint work.  The kernel
    accounts every split (both orientations) at its ``explore.batch``
    checkpoints, one per level, before any group is created.  Raises
    :class:`ColumnarUnsupported` (memo untouched beyond group creation)
    when the memo is not a freshly seeded one — a group already holding
    anything but its single setup-inserted left-deep join, or a seeded
    join that is not one of its group's splits.
    """
    if memo.universe is None:
        raise ColumnarUnsupported("memo has no alias universe")
    store = ColumnarLogicalStore(memo, graph, allow_cross_products)
    on_level = None
    if scope is not None:
        checkpoint = scope.checkpoint

        def on_level(units: int) -> None:
            checkpoint("explore.batch", units)

    subsets, left, right, offsets = graph.enumeration_universe(
        allow_cross_products, on_level
    )
    masks = subsets.tolist()
    store.subset_masks = masks

    # The universe opens with its singletons, which setup created.
    leaves = memo.universe.size
    gid_of = memo._rels_gid_by_mask
    gids = [gid_of[mask] for mask in masks[:leaves]]
    get_group = memo.get_or_create_rels_group
    initial_by_gid = store.initial_by_gid
    for subset in masks[leaves:]:
        fault_point("explore.batch", store)
        group = get_group(subset)
        gid = group.gid
        gids.append(gid)
        prefix = group._exprs
        if prefix or group._pending is not None:
            if (
                group._pending is not None
                or len(prefix) > 1
                or type(prefix[0].op) is not LogicalJoin
            ):
                raise ColumnarUnsupported(
                    "batched exploration requires a freshly seeded memo"
                )
            initial_by_gid[gid] = prefix[0].children

    gid_by_rank = np.array(gids, dtype=np.intc)
    sl, sr = store.sl, store.sr
    sl.frombytes(gid_by_rank[left].tobytes())
    sr.frombytes(gid_by_rank[right].tobytes())
    bounds = offsets.tolist()
    range_by_gid = store._range_by_gid = dict(
        zip(gids[leaves:], zip(bounds[leaves:-1], bounds[leaves + 1 :]))
    )
    groups = memo.groups
    for gid, (a, b) in initial_by_gid.items():
        # the seeded join must be one of the group's splits; the left
        # side is the one holding the subset's lowest alias
        mask = groups[gid].mask
        start, end = range_by_gid[gid]
        lower = a if groups[a].mask & mask & -mask else b
        try:
            sl.index(lower, start, end)
        except ValueError:
            raise ColumnarUnsupported(
                f"initial join of group {gid} missing from its splits"
            ) from None
    store.gid_by_mask = dict(gid_of)
    store.complete = True
    return store


def replay_logical_store(
    memo, graph, allow_cross_products: bool, template
) -> ColumnarLogicalStore:
    """Rebuild an explored logical store from cached template arrays.

    ``template`` is a detached snapshot of a prior, completed
    :class:`ColumnarLogicalStore` for the *same query template* (same
    join graph shape, any literal values) — any object exposing
    ``universe_order``, ``allow_cross_products``, ``subset_masks``,
    ``sl``/``sr``, ``range_by_gid``, ``initial_by_gid`` and
    ``gid_by_mask`` (see ``repro.serving.cache.TemplateArtifacts``).
    Group creation in :func:`build_logical_store` is deterministic
    (setup seeds groups in a fixed order, then subsets are created in
    enumeration-universe order), so replaying the creation over a
    freshly seeded memo reproduces identical group ids and the cached
    child-gid columns can be shared read-only — no enumeration, no
    split computation.

    Every assumption is verified cheaply (gid assignment, setup-seeded
    initial joins, cross-product mode); any drift raises
    :class:`ColumnarUnsupported` with the memo untouched beyond group
    creation, so the caller falls back to normal exploration.
    """
    if memo.universe is None:
        raise ColumnarUnsupported("memo has no alias universe")
    if template.allow_cross_products != allow_cross_products:
        raise ColumnarUnsupported("template cached under a different join mode")
    if tuple(memo.universe.order) != tuple(template.universe_order):
        raise ColumnarUnsupported("template cached under a different universe")
    store = ColumnarLogicalStore(memo, graph, allow_cross_products)
    get_group = memo.get_or_create_rels_group
    range_by_gid = template.range_by_gid
    initial_by_gid = template.initial_by_gid
    gid_by_mask = template.gid_by_mask
    for subset in template.subset_masks:
        group = get_group(subset)
        gid = group.gid
        if gid_by_mask.get(subset) != gid:
            raise ColumnarUnsupported("replayed group ids drifted from template")
        if not subset & (subset - 1):
            continue
        prefix = group._exprs
        init = initial_by_gid.get(gid)
        if group._pending is not None or len(prefix) > (0 if init is None else 1):
            raise ColumnarUnsupported(
                "template replay requires a freshly seeded memo"
            )
        if init is not None:
            if (
                not prefix
                or type(prefix[0].op) is not LogicalJoin
                or prefix[0].children != init
            ):
                raise ColumnarUnsupported(
                    "setup-seeded joins drifted from template"
                )
        elif prefix:
            raise ColumnarUnsupported("setup-seeded joins drifted from template")
        if gid not in range_by_gid:
            raise ColumnarUnsupported("template split ranges drifted")
    # Share the immutable columns/tables; the store only ever reads them.
    store.sl = template.sl
    store.sr = template.sr
    store._range_by_gid = range_by_gid
    store.initial_by_gid = initial_by_gid
    store.subset_masks = template.subset_masks
    store.gid_by_mask = gid_by_mask
    store.complete = True
    return store


def seeded_logical_store(
    memo, graph, allow_cross_products: bool
) -> ColumnarLogicalStore:
    """The logical store of a freshly seeded, unexplored memo: each join
    group's one split is its setup-seeded join (``sl`` the side holding
    the group's lowest alias, as in :func:`build_logical_store`), so the
    group holds both orientations, the seeded one first.  The heuristic
    tier's restricted space — one join sequence — as split columns."""
    store = ColumnarLogicalStore(memo, graph, allow_cross_products)
    groups = memo.groups
    for mask, gid in memo._rels_gid_by_mask.items():
        store.subset_masks.append(mask)
        if mask & (mask - 1):
            (seeded,) = groups[gid]._exprs
            left, right = store.initial_by_gid[gid] = seeded.children
            if not groups[left].mask & mask & -mask:
                left, right = right, left
            store._range_by_gid[gid] = (len(store.sl), len(store.sl) + 1)
            store.sl.append(left)
            store.sr.append(right)
    store.gid_by_mask = dict(memo._rels_gid_by_mask)
    store.complete = True
    return store


class PairRecord(NamedTuple):
    """The physical description of a memo's joins and of the orders its
    space names, derived once for the exact emitter and the count pass
    (:func:`build_pair_record`).

    ``join_gids`` are the groups holding splits, in gid order; group
    ``join_gids[i]`` owns pairs ``pair_start[i]:pair_start[i + 1]``, and
    its splits are half those positions.  ``sl``/``sr`` are the splits'
    child gids (bucket order, left = the side holding the subset's
    lowest alias); ``position[2 * s + o]`` is the emission position of
    split ``s``'s orientation ``o`` (0 is ``(sl, sr)``, 1 ``(sr, sl)``).

    Per ordered pair, in emission order (a group's local-id order: both
    orientations of each split in turn, the seeded initial join moved to
    the front): the child gids ``pl``/``pr``; ``keyed``, whether the cut
    has equi-keys; the merge-join key kids ``lkid``/``rkid`` (``-1``
    where keyless); and ``inlj``, the index-lookup joins with ``pr`` as
    the inner side (``None`` when the rule is off or no pair is keyed).

    ``req_gid``/``req_kid`` is the requirement registry: ``(pl, lkid)``
    then ``(pr, rkid)`` per keyed pair, in emission order (merge joins
    only), then the tail — stream-aggregate child orders in gid order,
    then ORDER BY — deduplicated to first occurrences.  ``sid0``/``sid1``
    hold, per keyed pair, its two requirements' positions in the registry
    (both empty without merge joins).  ``operators`` is the space's one
    operator cache (:class:`~repro.optimizer.rules.PhysicalOperators`),
    created here and already holding every leaf's and tower group's
    operators (scans, unary operators; rule order) — the emitter, the
    exact store, the count pass and the unranking tables build every
    other operator through it too.  ``root_kid`` is the ORDER BY kid
    (``None`` without one).

    ``kid_hi`` is the one order rule: kids are byte-lexicographic ranks
    of every order the memo names, so kid ``d`` delivers what kid ``q``
    requires (``q`` is a prefix of ``d``) iff ``q <= d < kid_hi[q]``.
    """

    join_gids: list[int]
    pair_start: np.ndarray
    sl: np.ndarray
    sr: np.ndarray
    position: np.ndarray
    pl: np.ndarray
    pr: np.ndarray
    keyed: np.ndarray
    lkid: np.ndarray
    rkid: np.ndarray
    inlj: np.ndarray | None
    req_gid: np.ndarray
    req_kid: np.ndarray
    sid0: np.ndarray
    sid1: np.ndarray
    operators: PhysicalOperators
    root_kid: int | None
    kid_hi: np.ndarray


def build_pair_record(
    memo, logical_store, edges, keys, config, catalog, root_order, checkpoint=None
) -> PairRecord:
    """The one derivation of a memo's ordered pairs, their cut keys,
    index lookups and requirements, and of the kid universe
    (:class:`PairRecord`).

    Cut bitmasks come from per-gid FROM/TO word tables (``FROM[l] &
    TO[r]``).  Every keyed cut and every loose order — the leaf access
    paths' and the unary tower's deliveries, the tower's child
    requirements and ``root_order`` — go through one cut-key table,
    which ``keys`` adopts: kid = row = byte-lex rank, so no kid is
    interned after it.  ``checkpoint(units)`` (a budget checkpoint at
    the caller's site) accounts the ordered pairs once — both
    orientations of every split, the ``explore.batch`` unit — and polls
    between the whole-store steps and per decoded cut block.
    ``logical_store`` may be ``None`` (a memo with no join group): the
    record then has no pairs.
    """
    ranges = logical_store._range_by_gid if logical_store is not None else {}
    join_gids = sorted(gid for gid, (start, end) in ranges.items() if end > start)
    split_counts = np.array(
        [ranges[gid][1] - ranges[gid][0] for gid in join_gids], np.int64
    )
    pair_start = np.zeros(len(join_gids) + 1, np.int64)
    np.cumsum(2 * split_counts, out=pair_start[1:])
    P = int(pair_start[-1])
    groups = memo.groups
    sl = sr = np.zeros(0, np.int64)
    initial_by_gid = {}
    if P:
        initial_by_gid = logical_store.initial_by_gid
        first_rows = np.array([ranges[gid][0] for gid in join_gids], np.int64)
        rows = np.arange(P // 2) + np.repeat(
            first_rows - pair_start[:-1] // 2, split_counts
        )
        sl = np.frombuffer(logical_store.sl, np.intc)[rows].astype(np.int64)
        sr = np.frombuffer(logical_store.sr, np.intc)[rows].astype(np.int64)
    natural_l = np.empty(P, np.int64)
    natural_r = np.empty(P, np.int64)
    natural_l[0::2] = natural_r[1::2] = sl
    natural_l[1::2] = natural_r[0::2] = sr

    # the one emission order: each seeded group's initial join moves to
    # the front of its block, the pairs before it one place back
    position = np.arange(P)
    index_of_gid = {gid: i for i, gid in enumerate(join_gids)}
    for gid, (left, right) in initial_by_gid.items():
        i = index_of_gid.get(gid)
        if i is None:
            continue
        s, e = int(pair_start[i]), int(pair_start[i + 1])
        hits = (natural_l[s:e] == left) & (natural_r[s:e] == right)
        at = s + int(np.flatnonzero(hits)[0])
        position[s:at] += 1
        position[at] = s
    pl = np.empty(P, np.int64)
    pr = np.empty(P, np.int64)
    pl[position] = natural_l
    pr[position] = natural_r
    if checkpoint is not None:
        checkpoint(P)

    # the loose orders, read off the leaf and tower groups' operators in
    # gid order (column byte ids are assigned on first sight), and the
    # registry's tail: stream-aggregate child orders, then ORDER BY
    seq_bytes = edges.seq_bytes
    operators = PhysicalOperators(edges.graph, catalog, config, keys)
    loose_seqs: list[bytes] = []
    tail: list[tuple[int, bytes]] = []
    for group in groups:
        if group.gid in ranges:
            continue
        exprs = group.logical_exprs()
        if not exprs or type(exprs[0].op) is LogicalJoin:
            continue
        for phys in operators.group(group.gid, exprs[0].op):
            order = phys.delivered_order()
            if order:
                loose_seqs.append(seq_bytes(order))
            order = phys.required_child_order(0)
            if order:
                tail.append((exprs[0].children[0], seq_bytes(order)))
    root_seq = seq_bytes(tuple(root_order)) if root_order else None
    if root_seq is not None:
        loose_seqs.append(root_seq)
        if memo.root_group_id is not None:
            tail.append((memo.root_group_id, root_seq))

    # cut bitmasks: per-gid FROM|TO unions over the per-alias oriented
    # edge masks, packed into uint64 word rows side by side
    W = max(1, (edges.edge_count + 63) // 64)
    mask_of = np.fromiter((group.mask or 0 for group in groups), np.int64, len(groups))
    from_to = union_words_by_mask(
        np.hstack([int_words(edges.from_bits, W), int_words(edges.to_bits, W)]),
        mask_of,
        edges.universe.size,
    )
    cut_words = from_to[pl, :W] & from_to[pr, W:]
    keyed = (cut_words != 0).any(axis=1)
    kc = int(keyed.sum())

    poll = None if checkpoint is None else lambda: checkpoint(0)
    kid_mat, kid_lengths, left_kids, right_kids, loose_kids, kid_words = (
        cut_key_table(
            cut_words[keyed],
            np.frombuffer(edges.left_col, dtype=np.uint8),
            np.frombuffer(edges.right_col, dtype=np.uint8),
            loose_seqs,
            on_block=poll,
        )
    )
    keys.preload(kid_mat, kid_lengths, loose_seqs, loose_kids)
    kid_hi = prefix_intervals(kid_words, kid_lengths)
    lkid = np.full(P, -1, np.int64)
    rkid = np.full(P, -1, np.int64)
    lkid[keyed] = left_kids
    rkid[keyed] = right_kids
    if poll is not None:
        poll()

    inlj = None
    if config.enable_index_nl_join and kc:
        inlj = index_lookup_matches(
            catalog,
            keys,
            lambda gid: groups[gid].logical_exprs()[0].op.table,
            pr,
            rkid,
            keyed,
            mask_of,
        )

    # merge-requirement registry: (gid, kid) interleaved left/right per
    # keyed pair in emission order, deduplicated to first occurrences by
    # one sort — the first occurrence of each code is the least stream
    # position in its run, and a state id is the count of first
    # occurrences before it
    req_gid = req_kid = sid0 = sid1 = np.zeros(0, np.int64)
    if config.enable_merge_join and kc:
        KS = len(kid_lengths) + 1
        code_type = np.uint32 if len(groups) * KS < 1 << 32 else np.int64
        codes = np.empty(2 * kc, code_type)
        codes[0::2] = pl[keyed] * KS + left_kids
        codes[1::2] = pr[keyed] * KS + right_kids
        order = codes.argsort()
        run = np.empty(2 * kc, dtype=bool)
        run[0] = True
        sorted_codes = codes[order]
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=run[1:])
        starts = np.flatnonzero(run)
        first = np.minimum.reduceat(order, starts)
        is_first = np.zeros(2 * kc, dtype=bool)
        is_first[first] = True
        sid_of_run = (np.cumsum(is_first) - 1)[first]
        sid_stream = np.empty(2 * kc, np.int64)
        sid_stream[order] = sid_of_run[np.cumsum(run) - 1]
        sid0 = sid_stream[0::2].copy()
        sid1 = sid_stream[1::2].copy()
        uniq_codes = codes[is_first].astype(np.int64)
        req_gid = uniq_codes // KS
        req_kid = uniq_codes % KS

    # the tail, after the merge registry and deduplicated against it
    extra: dict[tuple[int, int], None] = {}
    for gid, seq in tail:
        kid = keys.kid(seq)
        if not ((req_gid == gid) & (req_kid == kid)).any():
            extra.setdefault((gid, kid))
    if extra:
        gids, kids = zip(*extra)
        req_gid = np.concatenate([req_gid, np.array(gids, np.int64)])
        req_kid = np.concatenate([req_kid, np.array(kids, np.int64)])
    return PairRecord(
        join_gids, pair_start, sl, sr, position, pl, pr, keyed, lkid, rkid,
        inlj, req_gid, req_kid, sid0, sid1, operators,
        None if root_seq is None else keys.kid(root_seq), kid_hi,
    )


class ColumnarPhysicalStore(_MemoView):
    """Array-backed physical expressions of one memo."""

    def __init__(
        self,
        memo,
        graph,
        catalog,
        config: ImplementationConfig,
        root_order,
        edges=None,
    ):
        self._memo = weakref.ref(memo)
        self.graph = graph
        self.catalog = catalog
        self.config = config
        self.root_order = tuple(root_order)
        #: set by the builder once every group's rows are emitted; an
        #: interrupted build leaves it False and the store cannot attach
        self.complete = False

        # Oriented-equality-edge machinery, shared with the implicit
        # engine.  Deferred import: repro.planspace's package __init__
        # reaches back into repro.optimizer.
        from repro.planspace.implicit.edges import EdgeCatalog
        from repro.planspace.implicit.keys import KeyTable

        # A cache-supplied edge catalog (template replay) skips the
        # per-query equality analysis; it must already be bound to this
        # request's graph (see EdgeCatalog.clone).
        if edges is not None and edges.graph is graph:
            self.edges = edges
        else:
            self.edges = EdgeCatalog(graph)

        #: interned sort-order ids (kids) over packed key byte strings —
        #: the implicit engine's table, into which the emitter preloads
        #: its one cut-key table (row = kid = lex rank, no overflow)
        self._keys = KeyTable(self.edges)
        #: per kid ``q``: the end of its extension interval — kid ``d``
        #: delivers what ``q`` requires iff ``q <= d < kid_hi[q]`` (the
        #: pair record's, set by the builder)
        self.kid_hi = None

        # Parallel row columns (signed 32-bit ints on CPython/Linux).
        self.tag = array("i")
        self.gid = array("i")
        self.c0 = array("i")
        self.c1 = array("i")
        self.a = array("i")
        self.b = array("i")
        #: per-group row range: rows of group g are [start[g], start[g+1])
        self.group_start: list[int] = []
        #: logical expression count per group at build time (local-id base)
        self.logical_counts: list[int] = []

        #: all (gid, kid) requirement states as int64 columns, global
        #: first-occurrence order — exactly the oracle insert loop's
        #: enforcer-requirement dict.  The tuple list and the per-group
        #: ``sorts_by_gid`` view only materialize on demand.
        self._req_gid = np.zeros(0, np.int64)
        self._req_kid = np.zeros(0, np.int64)
        self._requirements: list[tuple[int, int]] | None = None
        self._sorts_by_gid: dict[int, list[int]] | None = None
        self._sort_counts: list[int] | None = None
        #: fused build→DP handoff: per merge row (in row order) the
        #: dense state ids of its two child requirements (``None`` when
        #: the store has no keyed pair)
        self._merge_sid0 = None
        self._merge_sid1 = None
        self.root_kid: int | None = None

        #: the space's one operator cache (the pair record's, set by the
        #: builder): rows and enforcers get their operators there
        self.operators: PhysicalOperators | None = None
        #: enabled join-rule tags in rule order (set by the builder)
        self._keyed_tags: tuple[int, ...] = (TAG_NLJ, TAG_HASH, TAG_MERGE)

    # ------------------------------------------------------------------
    # kid interning (delegated to the shared key table)
    # ------------------------------------------------------------------
    def kid_of_columns(self, columns) -> int:
        return self._keys.kid(self.edges.seq_bytes(tuple(columns)))

    # ------------------------------------------------------------------
    # requirement states
    # ------------------------------------------------------------------
    @property
    def requirements(self) -> list[tuple[int, int]]:
        if self._requirements is None:
            self._requirements = list(
                zip(self._req_gid.tolist(), self._req_kid.tolist())
            )
        return self._requirements

    def set_requirement_arrays(self, req_gid, req_kid) -> None:
        """Adopt the build's requirement stream (int64 gid/kid columns,
        global first-occurrence order)."""
        self._req_gid = req_gid
        self._req_kid = req_kid
        self._requirements = None
        self._sorts_by_gid = None
        self._sort_counts = None

    def requirement_count(self) -> int:
        return len(self._req_gid)

    def requirement_arrays(self):
        """``(gid, kid)`` int64 requirement columns, first-occurrence
        order."""
        return self._req_gid, self._req_kid

    @property
    def sorts_by_gid(self) -> dict[int, list[int]]:
        """gid -> ``Sort`` enforcer kids in global requirement
        first-occurrence order, materialized lazily from the stream."""
        if self._sorts_by_gid is None:
            by_gid: dict[int, list[int]] = {}
            if self.config.enable_sort_enforcers:
                for gid, kid in self.requirements:
                    by_gid.setdefault(gid, []).append(kid)
            self._sorts_by_gid = by_gid
        return self._sorts_by_gid

    def group_sorts(self, gid: int) -> list[int]:
        """One group's enforcer kids without materializing the full map."""
        if self._sorts_by_gid is not None:
            return self._sorts_by_gid.get(gid, [])
        if not self.config.enable_sort_enforcers:
            return []
        return self._req_kid[self._req_gid == gid].tolist()

    def _group_sort_counts(self) -> list[int]:
        if self._sort_counts is None:
            n = len(self.group_start) - 1
            if self.config.enable_sort_enforcers:
                counts = np.bincount(self._req_gid, minlength=n).tolist()
            else:
                counts = [0] * n
            self._sort_counts = counts
        return self._sort_counts

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self.tag)

    def sort_count(self) -> int:
        if not self.config.enable_sort_enforcers:
            return 0
        return self.requirement_count()

    def physical_count(self) -> int:
        return self.row_count + self.sort_count()

    def group_rows(self, gid: int) -> tuple[int, int]:
        return self.group_start[gid], self.group_start[gid + 1]

    def group_physical_count(self, gid: int) -> int:
        start, end = self.group_rows(gid)
        return (end - start) + self._group_sort_counts()[gid]

    def row_local_id(self, row: int) -> int:
        g = self.gid[row]
        return self.logical_counts[g] + (row - self.group_start[g]) + 1

    def sort_local_id(self, gid: int, position: int) -> int:
        start, end = self.group_rows(gid)
        return self.logical_counts[gid] + (end - start) + position + 1

    # ------------------------------------------------------------------
    # lazy operator materialization
    # ------------------------------------------------------------------
    def _mask_pair(self, row: int) -> tuple[int, int]:
        groups = self.memo.groups
        left = groups[self.c0[row]].mask
        tag = self.tag[row]
        right_gid = self.a[row] if tag == TAG_INLJ else self.c1[row]
        return left, groups[right_gid].mask

    def row_op(self, row: int):
        """The physical operator of one row, from the operator cache
        (built there on first request)."""
        tag = self.tag[row]
        if tag in (TAG_NLJ, TAG_HASH, TAG_MERGE):
            ops = self.operators.joins(*self._mask_pair(row))
            # ``_keyed_tags`` is the enabled-rule tag order; a keyless
            # orientation generates the NLJ prefix only, whose position
            # is the same.
            return ops[self._keyed_tags.index(tag)]
        if tag == TAG_INLJ:
            inner_get = self.memo.groups[self.a[row]].logical_exprs()[0].op
            ops = self.operators.index_joins(*self._mask_pair(row), inner_get)
            return ops[self.b[row]]
        if tag in (TAG_TABLE_SCAN, TAG_INDEX_SCAN) or tag in (
            TAG_FILTER,
            TAG_HASHAGG,
            TAG_STREAMAGG,
            TAG_PROJECT,
        ):
            return self.operators.group(self.gid[row])[self.a[row]]
        raise MemoError(f"unknown columnar row tag {tag}")

    def row_children(self, row: int) -> tuple[int, ...]:
        tag = self.tag[row]
        if tag in (TAG_NLJ, TAG_HASH, TAG_MERGE):
            return (self.c0[row], self.c1[row])
        if tag in (TAG_TABLE_SCAN, TAG_INDEX_SCAN):
            return ()
        return (self.c0[row],)

    # ------------------------------------------------------------------
    # group materialization (the lazy facade)
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Install the pending-materialization hooks on all groups,
        merging with any logical pending left by batched exploration."""
        if not self.complete:
            raise MemoError(
                "refusing to attach an incomplete columnar physical store "
                "(the build was interrupted)"
            )
        for group in self.memo.groups:
            pending = group._pending
            if pending is not None:
                pending.physical = self
            elif self.group_physical_count(group.gid):
                group._pending = _PendingExprs(group.gid, physical=self)

    def materialize_group(self, group: Group) -> None:
        """Rebuild the group's physical ``GroupExpr`` block — identical
        operators, order and local ids as the oracle's insert loop (the
        columnar equivalence suite asserts byte identity), each operator
        read from the operator cache."""
        exprs = group._exprs
        gid = group.gid
        local = self.logical_counts[gid] + 1
        start, end = self.group_rows(gid)
        append = exprs.append
        for row in range(start, end):
            append(
                GroupExpr(self.row_op(row), self.row_children(row), gid, local)
            )
            local += 1
        for kid in self.group_sorts(gid):
            append(GroupExpr(self.operators.sort(kid), (gid,), gid, local))
            local += 1


def build_columnar_store(
    memo,
    graph,
    catalog,
    config: ImplementationConfig,
    root_order=(),
    scope=None,
    edges=None,
) -> ColumnarPhysicalStore:
    """Populate a :class:`ColumnarPhysicalStore` by batched implementation.

    The join rows of every group, index-lookup joins included, are
    emitted in one whole-bucket array pass over the memo's logical store
    (:func:`_emit_rows_vectorized`); leaf and tower groups are short
    scalar blocks spliced between them.  Raises
    :class:`ColumnarUnsupported` for a memo without an alias universe or
    with a join group the logical store does not hold (one explored a
    ``memo.insert`` at a time), and lets the ``EdgeCatalog``'s limit
    refusal through — either way before any state is attached.
    """
    for group in memo.groups:
        if group.mask is None and group.key[0] == "rels":
            raise ColumnarUnsupported("memo has unmasked relation groups")
    if memo.universe is None:
        raise ColumnarUnsupported("memo has no alias universe")

    store = ColumnarPhysicalStore(memo, graph, catalog, config, root_order, edges)

    keyed_kinds, cross_kinds = join_physical_kinds(config)
    keyed_tags = tuple(_JOIN_KIND_TAGS[kind] for kind in keyed_kinds)
    cross_tags = tuple(_JOIN_KIND_TAGS[kind] for kind in cross_kinds)
    store._keyed_tags = keyed_tags

    _emit_rows_vectorized(
        store, memo, memo.columnar_logical, keyed_tags, cross_tags, scope
    )
    store.complete = True
    return store


def _emit_leaf_rows(store, scans, g_tag, g_c0, g_c1, g_a, g_b) -> None:
    """Scan rows of one base-relation group (scalar): ``scans`` is its
    operator-cache list."""
    for ordinal, scan in enumerate(scans):
        order = scan.delivered_order()
        g_tag.append(TAG_INDEX_SCAN if order else TAG_TABLE_SCAN)
        g_c0.append(-1)
        g_c1.append(-1)
        g_a.append(ordinal)
        g_b.append(store.kid_of_columns(order) if order else -1)


def _emit_tower_rows(store, ops, child, g_tag, g_c0, g_c1, g_a, g_b) -> None:
    """Unary-operator rows of one tower group (scalar): ``ops`` is its
    operator-cache list."""
    for ordinal, phys in enumerate(ops):
        tag = _UNARY_TAGS.get(type(phys).__name__)
        if tag is None:  # pragma: no cover - defensive
            raise ColumnarUnsupported(f"no columnar tag for operator {phys.name}")
        order = phys.delivered_order()
        g_tag.append(tag)
        g_c0.append(child)
        g_c1.append(-1)
        g_a.append(ordinal)
        g_b.append(store.kid_of_columns(order) if order else -1)


#: per-group emission kinds of the vectorized build plan
_VEC, _LEAF, _TOWER, _EMPTY = 0, 1, 2, 3


def _emit_rows_vectorized(
    store, memo, logical_store, keyed_tags, cross_tags, scope
):
    """Whole-bucket join emission over the columnar logical store.

    Classifies the groups in gid order, then reads every join group's
    ordered pairs, cut-key kids and index-lookup matches off the one
    :class:`PairRecord` (:func:`build_pair_record`; its key table — every
    order the memo names, lex-ranked — is the store's).  The store adopts
    the record's requirement registry, kid intervals (``kid_hi``), root
    kid and operator cache (leaf and tower lists already built), and
    hands each merge row's child state ids to the best-plan DP
    (``store._merge_sid0/1``).  What the emitter adds: each pair
    expanded into its join-rule rows, and one walk in gid order splicing
    vector block slices between the scalar leaf/tower emissions.

    Raises :class:`ColumnarUnsupported`, with nothing written to the
    store's columns, for a join group the logical store does not hold
    (``None`` holds none): its rows have no place in the split columns.
    """
    groups = memo.groups
    edges = store.edges
    checkpoint = scope.checkpoint if scope is not None else None

    # One classification pass in gid order.
    ranges = logical_store._range_by_gid if logical_store is not None else {}
    plan: list[tuple[int, int, int]] = []  # (kind, logical_count, payload)
    for group in groups:
        gid = group.gid
        if gid in ranges:
            n_logical = logical_store.logical_join_count(gid)
            plan.append((_VEC if n_logical else _EMPTY, n_logical, -1))
            continue
        exprs = group.logical_exprs()
        n_logical = len(group._exprs)
        if not exprs:
            plan.append((_EMPTY, n_logical, -1))
            continue
        first = exprs[0].op
        if type(first) is LogicalJoin:
            raise ColumnarUnsupported(
                f"join group {gid} was explored one expression at a time; "
                "the columnar logical store does not hold it"
            )
        if isinstance(first, LogicalGet):
            plan.append((_LEAF, n_logical, -1))
        else:
            plan.append((_TOWER, n_logical, exprs[0].children[0]))

    record = build_pair_record(
        memo,
        logical_store,
        edges,
        store._keys,
        store.config,
        store.catalog,
        store.root_order,
        (lambda units: checkpoint("implement.columnar", units))
        if checkpoint
        else None,
    )
    pl, pr, keyed = record.pl, record.pr, record.keyed
    lk_pair, rk_pair, inlj = record.lkid, record.rkid, record.inlj
    pair_start = record.pair_start
    P = len(pl)
    store.operators = record.operators
    store.kid_hi = record.kid_hi
    store.root_kid = record.root_kid
    store.set_requirement_arrays(record.req_gid, record.req_kid)
    store._merge_sid0 = record.sid0
    store._merge_sid1 = record.sid1
    n_keyed = len(keyed_tags)
    n_cross = len(cross_tags)

    # ------------------------------------------------------------------
    # row expansion: each keyed pair becomes the enabled-join-rule tag
    # pattern, each keyless pair the cross pattern
    # ------------------------------------------------------------------
    cnt = np.where(keyed, n_keyed, n_cross).astype(np.int64)
    if inlj is not None:
        cnt += inlj
    row_start = np.zeros(P + 1, np.int64)
    np.cumsum(cnt, out=row_start[1:])
    total = int(row_start[-1])
    rep = np.repeat(np.arange(P, dtype=np.int64), cnt)
    off = np.arange(total, dtype=np.int64) - np.repeat(row_start[:-1], cnt)
    pat_len = max(n_keyed, n_cross, 1)
    keyed_pat = np.zeros(pat_len, np.int64)
    keyed_pat[:n_keyed] = keyed_tags
    cross_pat = np.zeros(pat_len, np.int64)
    cross_pat[:n_cross] = cross_tags
    keyed_rep = keyed[rep]
    pat_off = off if inlj is None else np.minimum(off, pat_len - 1)
    tag32 = np.where(
        keyed_rep, keyed_pat[pat_off], cross_pat[pat_off]
    ).astype(np.int32)
    c032 = pl[rep].astype(np.int32)
    c132 = pr[rep].astype(np.int32)
    a32 = np.where(keyed_rep, lk_pair[rep], -1).astype(np.int32)
    b32 = np.where(keyed_rep, rk_pair[rep], -1).astype(np.int32)
    if inlj is not None:
        # index-lookup rows: arity 1, ``a`` keeps the inner gid and ``b``
        # the ordinal into the pair's generated index-lookup joins
        m = keyed_rep & (off >= n_keyed)
        tag32[m] = TAG_INLJ
        c132[m] = -1
        a32[m] = pr[rep[m]]
        b32[m] = off[m] - n_keyed
    group_row_counts = row_start[pair_start[1:]] - row_start[pair_start[:-1]]
    gid32 = np.repeat(
        np.asarray(record.join_gids, dtype=np.int64), group_row_counts
    ).astype(np.int32)

    # ------------------------------------------------------------------
    # final assembly: one walk in gid order, splicing vector block
    # slices between the scalar leaf/tower emissions
    # ------------------------------------------------------------------
    tag_col, gid_col = store.tag, store.gid
    c0_col, c1_col = store.c0, store.c1
    a_col, b_col = store.a, store.b
    group_start = store.group_start
    logical_counts = store.logical_counts
    g_tag: list[int] = []
    g_c0: list[int] = []
    g_c1: list[int] = []
    g_a: list[int] = []
    g_b: list[int] = []
    vec_i = 0
    # Contiguous runs of vector groups splice as ONE slice per column:
    # the vector rows are laid out group-major in gid order, so a run of
    # _VEC (and row-less _EMPTY) groups occupies one contiguous span.
    # ``pend0:pend1`` is the span not yet copied into the columns.
    pend0 = pend1 = 0

    def _flush_vec():
        nonlocal pend0
        if pend1 > pend0:
            # memoryview splice: no intermediate bytes copy
            tag_col.frombytes(tag32[pend0:pend1].data.cast("B"))
            gid_col.frombytes(gid32[pend0:pend1].data.cast("B"))
            c0_col.frombytes(c032[pend0:pend1].data.cast("B"))
            c1_col.frombytes(c132[pend0:pend1].data.cast("B"))
            a_col.frombytes(a32[pend0:pend1].data.cast("B"))
            b_col.frombytes(b32[pend0:pend1].data.cast("B"))
        pend0 = pend1

    for (kind, n_logical, payload), group in zip(plan, groups):
        fault_point("implement.columnar", store)
        if checkpoint is not None:
            checkpoint("implement.columnar")
        group_start.append(len(tag_col) + (pend1 - pend0))
        logical_counts.append(n_logical)
        if kind == _VEC:
            assert int(row_start[pair_start[vec_i]]) == pend1
            pend1 = int(row_start[pair_start[vec_i + 1]])
            vec_i += 1
            continue
        if kind == _EMPTY:
            continue
        _flush_vec()
        g_tag.clear()
        g_c0.clear()
        g_c1.clear()
        g_a.clear()
        g_b.clear()
        ops = store.operators.group(group.gid)
        if kind == _LEAF:
            _emit_leaf_rows(store, ops, g_tag, g_c0, g_c1, g_a, g_b)
        else:
            _emit_tower_rows(store, ops, payload, g_tag, g_c0, g_c1, g_a, g_b)
        tag_col.extend(g_tag)
        gid_col.extend((group.gid,) * len(g_tag))
        c0_col.extend(g_c0)
        c1_col.extend(g_c1)
        a_col.extend(g_a)
        b_col.extend(g_b)
        if checkpoint is not None:
            checkpoint("implement.columnar", len(g_tag))
    _flush_vec()
    group_start.append(len(tag_col))
