"""Exact plan counting from the implicit layout — no physical memo.

The materialized pipeline counts by the paper's recurrences over linked
physical operators (``b``/``B``/``N`` of Section 3.2).  The implicit
engine computes the *same numbers* group-at-a-time from the rule arity:

* a leaf's non-enforcer total is its access-path count (table scan plus
  index scans);
* a join group's non-enforcer total accumulates, per valid split
  ``(l, r)``, ``2 * plain * N(l) * N(r)`` for the order-insensitive join
  algorithms (both orientations share the product), one merge term per
  orientation, ``S(l, lk) * S(r, rk)``, where ``S(g, q)`` sums the
  group's alternatives whose delivered order satisfies ``q``, and — with
  index-lookup joins enabled — ``matches * N(outer)`` per orientation
  whose inner side is a single relation;
* every distinct required order adds one ``Sort`` enforcer whose count is
  the group's non-enforcer total (enforcers link to all non-enforcer
  group members — the paper's Figure 3 semantics), so the group total is
  ``nonenf * (1 + #sorts)``; without redundant sorts a ``Sort`` counts
  only the non-enforcers its order is not already delivered by;
* the unary tower multiplies through unchanged, and the root requirement
  (ORDER BY) filters the root group's alternatives.

The relation-set groups are counted by one vectorized pass,
:func:`.turbo.turbo_rels_pass`, bottom-up in subset-size layers; the
required orders of a group are registered in the materializer's
first-occurrence order, which pins the ``Sort`` local ids for unranking.
:class:`CountState` holds the result and counts the unary tower on top.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import PlanSpaceError
from repro.optimizer.rules import ImplementationConfig, PhysicalOperators
from repro.planspace.implicit.edges import EdgeCatalog
from repro.planspace.implicit.keys import KeyTable
from repro.planspace.implicit.layout import ImplicitLayout
from repro.planspace.implicit.turbo import JoinColumns, turbo_rels_pass
from repro.resilience.faults import fault_point

__all__ = ["CountState", "TowerOp"]


@dataclass
class TowerOp:
    """One physical operator of a unary-tower group (the operator itself
    is ``state.operators.group(gid)[position]``)."""

    count: int
    delivered: int  # delivered order as a kid, -1 for none
    required_kid: int | None  # child-order requirement, as a kid


@dataclass
class CountState:
    """All per-group aggregates of one implicit counting run."""

    layout: ImplicitLayout
    catalog: Catalog
    config: ImplementationConfig
    #: the space counted, not how: with False (an ablation of the paper's
    #: space) a ``Sort`` skips the alternatives already ordered its way —
    #: the tables and the unranker read it from here
    include_redundant_sorts: bool = True
    #: optional BudgetScope checkpointed per phase / layer / tower group
    scope: object = None

    edges: EdgeCatalog = None
    keys: KeyTable = None

    #: per-mask group totals incl. sorts, and non-enforcer totals
    A: dict[int, int] = field(default_factory=dict)
    nonenf: dict[int, int] = field(default_factory=dict)
    #: answered order queries: (mask, kid) -> sum of satisfying alternatives
    sord: dict[tuple[int, int], int] = field(default_factory=dict)
    #: mask -> required kids, in global first-occurrence order (``.get``)
    required: dict[int, list[int]] = field(default_factory=dict)
    #: mask -> sort counts in required order (``.get``; == nonenf unless
    #: redundant sorts are left out)
    sort_counts: dict[int, list[int]] = field(default_factory=dict)
    #: per kid ``q``: the end of its extension interval — kid ``d``'s
    #: order satisfies ``q``'s iff ``q <= d < kid_hi[q]`` (kids are
    #: byte-lexicographic ranks, and the pair record ranks every kid)
    kid_hi: object = field(default=None, repr=False)
    #: join gid -> its operator columns, sliced out of the count pass's
    #: arrays (a closure over those arrays only)
    join_columns: Callable[[int], JoinColumns] = field(default=None, repr=False)
    #: the space's one operator cache (the pair record's): every leaf's
    #: and tower group's operators are built, the rest on first request
    operators: PhysicalOperators = field(default=None, repr=False)

    #: unary tower: per gid operator lists, sorts, and totals
    tower_ops: dict[int, list[TowerOp]] = field(default_factory=dict)
    tower_required: dict[int, dict[int, None]] = field(default_factory=dict)
    tower_sorts: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    tower_totals: dict[int, int] = field(default_factory=dict)
    tower_nonenf: dict[int, int] = field(default_factory=dict)

    root_kid: int | None = None
    total: int = 0
    physical_count: int = 0

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
        turbo_rels_pass(self)
        self._checkpoint()
        self._count_tower()
        return self

    # ------------------------------------------------------------------
    # the unary tower
    # ------------------------------------------------------------------
    def total_of_gid(self, gid: int) -> int:
        group = self.layout.group(gid)
        if group.kind in ("leaf", "join"):
            return self.A[group.mask]
        return self.tower_totals[gid]

    def _tower_sum_satisfying(self, gid: int, kid: int) -> int:
        """``S(g, q)`` for a tower group (small: direct filtering)."""
        hi = int(self.kid_hi[kid])
        total = 0
        for top in self.tower_ops[gid]:
            if kid <= top.delivered < hi:
                total += top.count
        for delivered, count in self.tower_sorts[gid]:
            if kid <= delivered < hi:
                total += count
        return total

    def sord_of_gid(self, gid: int, kid: int) -> int:
        group = self.layout.group(gid)
        if group.kind in ("leaf", "join"):
            return self.sord[(group.mask, kid)]
        return self._tower_sum_satisfying(gid, kid)

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
            for op in self.operators.group(gid):
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
                        count=count,
                        delivered=keys.kid_of_columns(delivered) if delivered else -1,
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
                        hi = int(self.kid_hi[kid])
                        count = nonenf - sum(
                            top.count for top in ops if kid <= top.delivered < hi
                        )
                    sorts.append((kid, count))
                self.physical_count += len(sorts)
            self.tower_sorts[gid] = sorts
            self.tower_totals[gid] = nonenf + sum(count for _kid, count in sorts)

        root = layout.group(layout.root_gid)
        if self.root_kid is None:
            self.total = self.total_of_gid(root.gid)
        else:
            self.total = self.sord_of_gid(root.gid, self.root_kid)
        if not self.total and self.root_kid is not None:
            raise PlanSpaceError(
                "no physical operator in the root group satisfies the root "
                "requirement — are sort enforcers disabled?"
            )
