"""Reference (slow-path) relation-group counting: the count-pass oracle.

The per-pair loop that :func:`repro.planspace.implicit.turbo.
turbo_rels_pass` replaced — moved here verbatim (its cut helper and
order index included) when the vectorized pass became the only count
pass; its per-mask unions and per-cut kid memo are
``tests/kernel/reference_keys.py``'s.  It walks every valid split of
every relation-set group in subset order, interning cut keys one
bitmask at a time and answering each
group's order queries through a sorted :class:`OrderIndex`, and fills
``CountState``'s aggregates as plain dicts.  :class:`ReferenceCountState`
is a drop-in ``CountState``: ``ImplicitPlanSpace(state)`` unranks over
it, and :func:`assert_same_aggregates` diffs every per-group aggregate
against the production pass.  The tail registration it reads
(``_tower_requirement_seqs``) moved here verbatim when the pair record
took over every order the memo names, and the per-group split walks
(:func:`splits`, :func:`ordered_exprs`) when ``ImplicitGroup`` kept no
``src/`` caller of them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.algebra.logical import LogicalGet
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.rules import (
    PhysicalOperators,
    join_rule_arity,
    scan_implementations,
    unary_implementations,
)
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.layout import ImplicitGroup, ImplicitLayout
from repro.planspace.implicit.turbo import JoinColumns
from repro.sql.binder import Binder
from repro.sql.parser import parse
from tests.kernel.reference_keys import ReferenceEdges, ReferenceKeys

__all__ = [
    "OrderIndex",
    "ReferenceCountState",
    "assert_same_aggregates",
    "count_both",
    "ordered_exprs",
    "splits",
]


def splits(group: ImplicitGroup) -> list[tuple[int, int]]:
    """The group's unordered splits as mask pairs."""
    store = group.store
    rng = None if store is None else store.split_rows(group.gid)
    if rng is None:
        return []
    groups = store.memo.groups
    sl, sr = store.sl, store.sr
    return [
        (groups[sl[row]].mask, groups[sr[row]].mask)
        for row in range(rng[0], rng[1])
    ]


def ordered_exprs(group: ImplicitGroup) -> Iterator[tuple[int, int]]:
    """The group's logical joins as ordered mask pairs, in local-id
    order: the initial left-deep expression first, then both
    orientations of every split (minus the duplicate)."""
    initial = group.initial
    if initial is not None:
        yield initial
        for left, right in splits(group):
            if (left, right) != initial:
                yield (left, right)
            if (right, left) != initial:
                yield (right, left)
    else:
        for left, right in splits(group):
            yield (left, right)
            yield (right, left)


class OrderIndex:
    """Sorted (delivered order -> total count) index for one group.

    ``sum_satisfying(q)`` returns the total count of operators whose
    delivered order satisfies the required order ``q`` (the paper's
    qualification rule: requirement is a prefix of delivery) as one
    lexicographic range query — delivered orders extending ``q`` occupy
    the contiguous byte-string interval ``[q, q + 0xff)``.
    """

    __slots__ = ("keys", "prefix")

    def __init__(self, deliveries: dict[bytes, int]):
        items = sorted(deliveries.items())
        self.keys = [seq for seq, _count in items]
        prefix = [0]
        total = 0
        for _seq, count in items:
            total += count
            prefix.append(total)
        self.prefix = prefix

    def sum_satisfying(self, required: bytes) -> int:
        """Total count of deliveries whose order satisfies ``required``."""
        keys = self.keys
        lo = bisect_left(keys, required)
        hi = bisect_left(keys, required + b"\xff")
        return self.prefix[hi] - self.prefix[lo]


@dataclass
class ReferenceCountState(CountState):
    """``CountState`` whose relation groups are counted pair by pair."""

    def compute(self) -> "ReferenceCountState":
        """Count twice: the first run interns the orders it names
        first-come; this one interns them into a table preloaded in
        byte-lexicographic order, as the production pass ranks its kids,
        so the tables' kid intervals (``kid_hi``) apply to it too."""
        self.edges = ReferenceEdges(self.layout.graph)
        first = type(self)(
            layout=self.layout,
            catalog=self.catalog,
            config=self.config,
            include_redundant_sorts=self.include_redundant_sorts,
        )
        first.edges = self.edges
        # the first run stops before the tower, which tests order
        # satisfaction by kid interval: its kids are not ranked yet (every
        # order the tower names is a requirement the run interns)
        first._count(ReferenceKeys(self.edges), tower=False)
        seqs = sorted(first.keys.table()[2])
        keys = ReferenceKeys(self.edges)
        width = max(map(len, seqs), default=1) or 1
        matrix = np.frombuffer(
            b"".join(seq.ljust(width, b"\x00") for seq in seqs), np.uint8
        ).reshape(len(seqs), width)
        lengths = np.array([len(seq) for seq in seqs], np.int64)
        keys.preload(matrix, lengths, seqs, np.arange(len(seqs)))
        self.kid_hi = [
            next(
                (j for j in range(k + 1, len(seqs)) if not seqs[j].startswith(seq)),
                len(seqs),
            )
            for k, seq in enumerate(seqs)
        ]
        return self._count(keys)

    def _count(self, keys: ReferenceKeys, tower: bool = True) -> "ReferenceCountState":
        self.keys = keys
        # the operator cache, seeded as the pair record seeds it
        self.operators = PhysicalOperators(
            self.layout.graph, self.catalog, self.config, keys
        )
        for group in self.layout.groups:
            if group.op is not None:
                self.operators.group(group.gid, group.op)
        rels_extra, tower_extra, root_seq = self._tower_requirement_seqs()
        extra = [(mask, self.keys.kid(seq)) for mask, seq in rels_extra]
        self._register_merge_requirements(extra)
        self._count_rels_groups()
        self.join_columns = self._join_columns_per_pair
        for gid, seq in tower_extra:
            self.tower_required.setdefault(gid, {}).setdefault(self.keys.kid(seq))
        if root_seq is not None:
            self.root_kid = self.keys.kid(root_seq)
        if tower:
            self._count_tower()
        return self

    def _tower_requirement_seqs(
        self,
    ) -> tuple[
        list[tuple[int, bytes]], list[tuple[int, bytes]], bytes | None
    ]:
        """StreamAggregate and ORDER BY requirements (registered after all
        merge requirements, mirroring the enforcer pass), as raw byte
        sequences — kid interning happens after the relation-group pass so
        that pass owns the kid universe.  Returns the pairs
        targeting relation-set groups (mask-keyed), the pairs targeting
        tower groups (gid-keyed), and the packed root requirement."""
        layout = self.layout
        seq_bytes = self.edges.seq_bytes
        rels: list[tuple[int, bytes]] = []
        tower: list[tuple[int, bytes]] = []
        for gid in layout.tower_gids:
            group = layout.group(gid)
            if group.kind != "agg":
                continue
            for op in unary_implementations(group.op, self.config):
                order = op.required_child_order(0)
                if not order:
                    continue
                seq = seq_bytes(order)
                child = layout.group(group.child_gid)
                if child.kind in ("leaf", "join"):
                    rels.append((child.mask, seq))
                else:
                    tower.append((child.gid, seq))
        root_seq: bytes | None = None
        if layout.root_order:
            root_seq = seq_bytes(layout.root_order)
            root = layout.group(layout.root_gid)
            if root.kind in ("leaf", "join"):  # pragma: no cover - root is proj
                rels.append((root.mask, root_seq))
            else:
                tower.append((root.gid, root_seq))
        return rels, tower, root_seq

    def _cut(self, left: int, right: int) -> int:
        """The oriented-edge bitmask of the cut ``(left, right)``."""
        return self.edges.from_mask(left) & self.edges.to_mask(right)

    # ------------------------------------------------------------------
    # pass A: requirement registration (materializer emission order)
    # ------------------------------------------------------------------
    def _register_merge_requirements(self, extra: list[tuple[int, int]]) -> None:
        """Walk every logical join in materializer order, interning cut
        keys and recording merge requirements first-occurrence."""
        _plain, merge = join_rule_arity(self.config, True)
        required = self.required
        if merge:
            cut = self._cut
            cut_kids = self.keys.cut_kids
            for group in self.layout.join_groups():
                for left, right in ordered_exprs(group):
                    bits = cut(left, right)
                    if not bits:
                        continue
                    left_kid, right_kid = cut_kids(bits)
                    required.setdefault(left, {}).setdefault(left_kid)
                    required.setdefault(right, {}).setdefault(right_kid)
        for mask, kid in extra:
            required.setdefault(mask, {}).setdefault(kid)

    # ------------------------------------------------------------------
    # pass B: bottom-up group counting
    # ------------------------------------------------------------------
    def _count_rels_groups(self) -> None:
        layout = self.layout
        config = self.config
        plain_keys, merge = join_rule_arity(config, True)
        plain_cross, _ = join_rule_arity(config, False)
        enforcers = config.enable_sort_enforcers
        inlj = config.enable_index_nl_join
        cut = self._cut
        cut_kids = self.keys.cut_kids
        kid_bytes = self.keys
        A, nonenf, sord = self.A, self.nonenf, self.sord

        scope = self.scope
        for mask in layout.subset_masks:
            if scope is not None:
                scope.checkpoint("implicit.count")
            group = layout.group_for_mask(mask)
            deliveries: dict[bytes, int] = {}
            if group.kind == "leaf":
                total = self._count_leaf(group, deliveries)
            else:
                total = 0
                for left, right in splits(group):
                    al = A[left]
                    ar = A[right]
                    bits_lr = cut(left, right)
                    if bits_lr:
                        total += 2 * plain_keys * al * ar
                        if merge:
                            lk_lr, rk_lr = cut_kids(bits_lr)
                            lk_rl, rk_rl = cut_kids(cut(right, left))
                            mc_lr = sord[(left, lk_lr)] * sord[(right, rk_lr)]
                            mc_rl = sord[(right, lk_rl)] * sord[(left, rk_rl)]
                            total += mc_lr + mc_rl
                            if mc_lr:
                                seq = kid_bytes[lk_lr]
                                deliveries[seq] = deliveries.get(seq, 0) + mc_lr
                            if mc_rl:
                                seq = kid_bytes[lk_rl]
                                deliveries[seq] = deliveries.get(seq, 0) + mc_rl
                            self.physical_count += 2
                        self.physical_count += 2 * plain_keys
                        if inlj:
                            total += self._count_inlj(left, right, bits_lr, al)
                            total += self._count_inlj(
                                right, left, cut(right, left), ar
                            )
                    else:
                        total += 2 * plain_cross * al * ar
                        self.physical_count += 2 * plain_cross
            self._finalize_group(mask, total, deliveries, enforcers)

    def _count_leaf(self, group: ImplicitGroup, deliveries: dict) -> int:
        scans = scan_implementations(group.op, self.catalog, self.config)
        for scan in scans:
            order = scan.delivered_order()
            if order:
                seq = self.edges.seq_bytes(order)
                deliveries[seq] = deliveries.get(seq, 0) + 1
        self.physical_count += len(scans)
        return len(scans)

    def _inlj_matches(self, right: int, bits: int) -> int:
        """Index-lookup joins of one orientation: inner side must be a
        single relation; one operator per index whose leading key column
        is among the cut's inner columns."""
        if right & (right - 1) or not bits:
            return 0
        group = self.layout.group_for_mask(right)
        assert isinstance(group.op, LogicalGet)
        _left_seq, right_seq = self.edges.decode(bits)
        inner_columns = {self.edges.columns[b].column for b in right_seq}
        return sum(
            1
            for index in self.catalog.indexes(group.op.table)
            if index.key[0] in inner_columns
        )

    def _count_inlj(self, left: int, right: int, bits: int, a_left: int) -> int:
        matches = self._inlj_matches(right, bits)
        self.physical_count += matches
        return matches * a_left

    # ------------------------------------------------------------------
    # the unranking tables' column source
    # ------------------------------------------------------------------
    def _join_columns_per_pair(self, gid: int) -> JoinColumns:
        """The operator columns of join group ``gid``, filled pair by pair
        from the reference aggregates."""
        group = self.layout.group(gid)
        config = self.config
        plain_keys, merge = join_rule_arity(config, True)
        plain_cross, _ = join_rule_arity(config, False)
        inlj = config.enable_index_nl_join
        cut, cut_kids = self._cut, self.keys.cut_kids
        A, sord = self.A, self.sord
        cols = JoinColumns([], [], [], [], [0], [])
        counts = cols.counts
        for left, right in ordered_exprs(group):
            bits = cut(left, right)
            al = A[left]
            lk = rk = -1
            if bits:
                lk, rk = cut_kids(bits)
                counts += [al * A[right]] * plain_keys
                if merge:
                    counts.append(sord[(left, lk)] * sord[(right, rk)])
                if inlj:
                    counts += [al] * self._inlj_matches(right, bits)
            else:
                counts += [al * A[right]] * plain_cross
            cols.left.append(left)
            cols.right.append(right)
            cols.lkid.append(lk)
            cols.rkid.append(rk)
            cols.starts.append(len(counts))
        return cols

    def _finalize_group(
        self,
        mask: int,
        total: int,
        deliveries: dict[bytes, int],
        enforcers: bool,
    ) -> None:
        """Attach sorts, answer this group's order queries, store totals."""
        kid_bytes = self.keys
        required = self.required.get(mask)
        self.nonenf[mask] = total
        group_total = total
        counts: list[int] = []
        if required and enforcers:
            if self.include_redundant_sorts:
                counts = [total] * len(required)
            else:
                nonenf_index = OrderIndex(deliveries)
                counts = [
                    total - nonenf_index.sum_satisfying(kid_bytes[kid])
                    for kid in required
                ]
            for kid, count in zip(required, counts):
                seq = kid_bytes[kid]
                deliveries[seq] = deliveries.get(seq, 0) + count
                group_total += count
            self.physical_count += len(required)
        self.sort_counts[mask] = counts
        self.A[mask] = group_total
        if required:
            index = OrderIndex(deliveries)
            for kid in required:
                self.sord[(mask, kid)] = index.sum_satisfying(kid_bytes[kid])


# ----------------------------------------------------------------------
# the diff
# ----------------------------------------------------------------------
def count_both(
    catalog, sql: str, options=None, include_redundant_sorts: bool = True
) -> tuple[CountState, ReferenceCountState]:
    """The production count state and the oracle's, over one layout."""
    options = options or OptimizerOptions()
    bound = Binder(catalog).bind(parse(sql))
    layout = ImplicitLayout(bound, options.allow_cross_products)
    states = (
        cls(
            layout=layout,
            catalog=catalog,
            config=options.implementation,
            include_redundant_sorts=include_redundant_sorts,
        ).compute()
        for cls in (CountState, ReferenceCountState)
    )
    return tuple(states)


def assert_same_aggregates(state: CountState, reference: CountState) -> None:
    """Every per-group aggregate of ``state`` equals the oracle's: ``A``,
    ``nonenf``, the required orders in ``Sort`` local-id order, ``sord``
    over them, sort counts, every join group's operator columns, and the
    totals.  Kid *ids* (and column byte ids) differ between the two key
    tables; kids are compared by the column sequences they name."""
    layout = state.layout
    keys, ref_keys = state.keys, reference.keys

    def orders(table, kids):
        return [table.columns_of(kid) if kid >= 0 else None for kid in kids]

    for mask in layout.subset_masks:
        where = sorted(layout.universe.names(mask))
        assert state.A[mask] == reference.A[mask], where
        assert state.nonenf[mask] == reference.nonenf[mask], where
        kids = list(state.required.get(mask) or ())
        ref_kids = list(reference.required.get(mask) or ())
        assert orders(keys, kids) == orders(ref_keys, ref_kids), where
        for kid, ref_kid in zip(kids, ref_kids):
            assert state.sord[(mask, kid)] == reference.sord[(mask, ref_kid)]
        assert (state.sort_counts.get(mask) or []) == (
            reference.sort_counts.get(mask) or []
        ), where
    for group in layout.join_groups():
        ours = state.join_columns(group.gid)
        theirs = reference.join_columns(group.gid)
        where = sorted(group.relations)
        assert (ours.left, ours.right) == (theirs.left, theirs.right), where
        assert orders(keys, ours.lkid) == orders(ref_keys, theirs.lkid), where
        assert orders(keys, ours.rkid) == orders(ref_keys, theirs.rkid), where
        assert ours.starts == theirs.starts, where
        assert ours.counts == theirs.counts, where
    assert state.physical_count == reference.physical_count
    assert state.total == reference.total
