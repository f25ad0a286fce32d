"""Exact plan counting from the implicit layout — no physical memo.

The materialized pipeline counts by the paper's recurrences over linked
physical operators (``b``/``B``/``N`` of Section 3.2).  The implicit
engine computes the *same numbers* group-at-a-time from the rule arity:

* a leaf's non-enforcer total is its access-path count (table scan plus
  index scans);
* a join group's non-enforcer total accumulates, per valid split
  ``(l, r)``, ``2 * plain * N(l) * N(r)`` for the order-insensitive join
  algorithms (both orientations share the product) plus one merge term
  per orientation, ``S(l, lk) * S(r, rk)``, where ``S(g, q)`` sums the
  group's alternatives whose delivered order satisfies ``q``;
* every distinct required order adds one ``Sort`` enforcer whose count is
  the group's non-enforcer total (enforcers link to all non-enforcer
  group members — the paper's Figure 3 semantics), so the group total is
  ``nonenf * (1 + #sorts)``;
* the unary tower multiplies through unchanged, and the root requirement
  (ORDER BY) filters the root group's alternatives.

``S(g, q)`` queries are answered by per-group :class:`~.keys.OrderIndex`
range sums; the required orders of a group are known before its parents
count, because pass A walks all logical joins first (registering the
merge requirements in the materializer's first-occurrence order, which
also pins the ``Sort`` local ids for unranking).

Groups are processed bottom-up in subset-size order, with every
per-group aggregate held in tables keyed by the PR-1 alias bitmasks.
The join-group recurrence runs through the vectorized :mod:`.turbo`
path whenever it covers the query (same results, asserted by the
property suite); the per-pair loop here is the reference implementation
and what serves the inputs turbo does not cover: ablation configurations
and universes above its 18-relation word tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.algebra.logical import LogicalGet
from repro.catalog.catalog import Catalog
from repro.errors import PlanSpaceError
from repro.optimizer.rules import (
    ImplementationConfig,
    join_rule_arity,
    scan_implementations,
    unary_implementations,
)
from repro.planspace.implicit.edges import EdgeCatalog
from repro.planspace.implicit.keys import KeyTable, OrderIndex
from repro.planspace.implicit.layout import ImplicitGroup, ImplicitLayout
from repro.resilience.faults import fault_point

__all__ = ["CountState", "JoinColumns", "TowerOp"]


class JoinColumns(NamedTuple):
    """One join group's operators as columns, in local-id order.

    ``left``/``right``/``lkid``/``rkid`` have one entry per logical join
    (the initial left-deep expression first): the child masks and the
    merge-join key kids (``-1`` where the cut has no equi-keys).
    ``starts[e]`` is the position of expression ``e``'s first operator
    (``len(left) + 1`` entries); ``counts`` is the flat per-operator
    ``N(v)`` list, which the caller owns.
    """

    left: list[int]
    right: list[int]
    lkid: list[int]
    rkid: list[int]
    starts: list[int]
    counts: list[int]


@dataclass
class TowerOp:
    """One physical operator of a unary-tower group."""

    op: object
    count: int
    delivered: bytes | None
    required_kid: int | None  # child-order requirement, as a kid


@dataclass
class CountState:
    """All per-group aggregates of one implicit counting run."""

    layout: ImplicitLayout
    catalog: Catalog
    config: ImplementationConfig
    include_redundant_sorts: bool = True
    use_turbo: bool | None = None  # None = auto
    #: optional BudgetScope checkpointed per phase / subset / tower group
    scope: object = None

    edges: EdgeCatalog = None
    keys: KeyTable = None

    #: per-mask aggregates (the array-backed group tables)
    A: dict[int, int] = field(default_factory=dict)  # group total incl. sorts
    nonenf: dict[int, int] = field(default_factory=dict)
    #: answered order queries: (mask, kid) -> sum of satisfying alternatives
    sord: dict[tuple[int, int], int] = field(default_factory=dict)
    #: required orders per mask, in global first-occurrence order
    required: dict[int, dict[int, None]] = field(default_factory=dict)
    #: per-mask sort counts in required order (== nonenf unless the
    #: redundant-sort ablation is on)
    sort_counts: dict[int, list[int]] = field(default_factory=dict)

    #: unary tower: per gid operator lists, sorts, and totals
    tower_ops: dict[int, list[TowerOp]] = field(default_factory=dict)
    tower_required: dict[int, dict[int, None]] = field(default_factory=dict)
    tower_sorts: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    tower_totals: dict[int, int] = field(default_factory=dict)
    tower_nonenf: dict[int, int] = field(default_factory=dict)

    root_kid: int | None = None
    total: int = 0
    physical_count: int = 0
    turbo_used: bool = False
    #: the turbo pass's per-group column slicer (None: reference-backed)
    split_columns: object = None

    # ------------------------------------------------------------------
    def _checkpoint(self, units: int = 0) -> None:
        scope = self.scope
        if scope is not None:
            scope.checkpoint("implicit.count", units)

    def compute(self) -> "CountState":
        fault_point("implicit.count", self)
        self._checkpoint()
        self.edges = EdgeCatalog(self.layout.graph)
        self.keys = KeyTable(self.edges)
        rels_extra, tower_extra, root_seq = self._tower_requirement_seqs()
        self._checkpoint()
        if self._turbo_enabled():
            from repro.planspace.implicit.turbo import turbo_rels_pass

            self.turbo_used = turbo_rels_pass(self, rels_extra)
        if not self.turbo_used:
            extra = [(mask, self.keys.kid(seq)) for mask, seq in rels_extra]
            self._register_merge_requirements(extra)
            self._checkpoint()
            self._count_rels_groups()
        for gid, seq in tower_extra:
            self.tower_required.setdefault(gid, {}).setdefault(self.keys.kid(seq))
        if root_seq is not None:
            self.root_kid = self.keys.kid(root_seq)
        self._checkpoint()
        self._count_tower()
        return self

    # ------------------------------------------------------------------
    def _turbo_enabled(self) -> bool:
        if self.use_turbo is False:
            return False
        if not self.include_redundant_sorts or self.config.enable_index_nl_join:
            # ablation configurations run through the reference path
            if self.use_turbo:
                raise PlanSpaceError(
                    "turbo counting does not support this configuration"
                )
            return False
        return True

    # ------------------------------------------------------------------
    # pass A: requirement registration (materializer emission order)
    # ------------------------------------------------------------------
    def _tower_requirement_seqs(
        self,
    ) -> tuple[
        list[tuple[int, bytes]], list[tuple[int, bytes]], bytes | None
    ]:
        """StreamAggregate and ORDER BY requirements (registered after all
        merge requirements, mirroring the enforcer pass), as raw byte
        sequences — kid interning happens after the relation-group pass so
        the turbo path can own the kid universe.  Returns the pairs
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

    def _register_merge_requirements(self, extra: list[tuple[int, int]]) -> None:
        """Walk every logical join in materializer order, interning cut
        keys and recording merge requirements first-occurrence."""
        _plain, merge = join_rule_arity(self.config, True)
        required = self.required
        if merge:
            cut = self.edges.cut
            cut_kids = self.keys.cut_kids
            for group in self.layout.join_groups():
                for left, right in group.ordered_exprs():
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
        cut = self.edges.cut
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
                for left, right in group.splits:
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
    def join_columns(self, gid: int) -> JoinColumns:
        """The operator columns of join group ``gid``: sliced out of the
        turbo pass's per-split columns when it ran, else filled pair by
        pair from the reference aggregates (same columns either way)."""
        group = self.layout.group(gid)
        if self.split_columns is not None:
            return self.split_columns(group)
        config = self.config
        plain_keys, merge = join_rule_arity(config, True)
        plain_cross, _ = join_rule_arity(config, False)
        inlj = config.enable_index_nl_join
        cut, cut_kids = self.edges.cut, self.keys.cut_kids
        A, sord = self.A, self.sord
        cols = JoinColumns([], [], [], [], [0], [])
        counts = cols.counts
        for left, right in group.ordered_exprs():
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

    # ------------------------------------------------------------------
    # the unary tower
    # ------------------------------------------------------------------
    def total_of_gid(self, gid: int) -> int:
        group = self.layout.group(gid)
        if group.kind in ("leaf", "join"):
            return self.A[group.mask]
        return self.tower_totals[gid]

    def _tower_sum_satisfying(self, gid: int, seq: bytes) -> int:
        """``S(g, q)`` for a tower group (small: direct filtering)."""
        total = 0
        for top in self.tower_ops[gid]:
            if top.delivered is not None and top.delivered.startswith(seq):
                total += top.count
        for kid, count in self.tower_sorts[gid]:
            if self.keys[kid].startswith(seq):
                total += count
        return total

    def sord_of_gid(self, gid: int, kid: int) -> int:
        group = self.layout.group(gid)
        if group.kind in ("leaf", "join"):
            return self.sord[(group.mask, kid)]
        return self._tower_sum_satisfying(gid, self.keys[kid])

    def _count_tower(self) -> None:
        layout = self.layout
        keys = self.keys
        enforcers = self.config.enable_sort_enforcers
        scope = self.scope
        for gid in layout.tower_gids:
            if scope is not None:
                scope.checkpoint("implicit.count")
            group = layout.group(gid)
            ops: list[TowerOp] = []
            nonenf = 0
            for op in unary_implementations(group.op, self.config):
                order = op.required_child_order(0)
                if order:
                    kid = keys.kid_of_columns(order)
                    count = self.sord_of_gid(group.child_gid, kid)
                else:
                    kid = None
                    count = self.total_of_gid(group.child_gid)
                delivered = op.delivered_order()
                ops.append(
                    TowerOp(
                        op=op,
                        count=count,
                        delivered=(
                            self.edges.seq_bytes(delivered) if delivered else None
                        ),
                        required_kid=kid,
                    )
                )
                nonenf += count
            self.tower_ops[gid] = ops
            self.tower_nonenf[gid] = nonenf
            self.physical_count += len(ops)
            sorts: list[tuple[int, int]] = []
            required = self.tower_required.get(gid)
            if required and enforcers:
                self.tower_sorts[gid] = sorts  # filled below; seen by _tower_sum
                for kid in required:
                    if self.include_redundant_sorts:
                        count = nonenf
                    else:
                        count = nonenf - sum(
                            top.count
                            for top in ops
                            if top.delivered is not None
                            and top.delivered.startswith(keys[kid])
                        )
                    sorts.append((kid, count))
                self.physical_count += len(sorts)
            self.tower_sorts[gid] = sorts
            self.tower_totals[gid] = nonenf + sum(count for _kid, count in sorts)

        root = layout.group(layout.root_gid)
        if self.root_kid is None:
            self.total = self.total_of_gid(root.gid)
        else:
            seq = keys[self.root_kid]
            if root.kind in ("leaf", "join"):  # pragma: no cover - root is proj
                self.total = self.sord[(root.mask, self.root_kid)]
            else:
                self.total = self._tower_sum_satisfying(root.gid, seq)
        if not self.total and self.root_kid is not None:
            raise PlanSpaceError(
                "no physical operator in the root group satisfies the root "
                "requirement — are sort enforcers disabled?"
            )
