"""The implicit memo layout: groups and logical expressions, simulated.

The materialized pipeline builds its group structure twice over: the
initial copy-in seeds singles, the left-deep prefix chain and the unary
tower, then exploration inserts one logical join per valid ordered
partition.  The resulting layout — group ids in creation order, logical
expressions in insertion order — is fully determined by the bound query
and the join graph.  Since PR 5 that determination lives in *one* place:
:func:`repro.memo.columnar.build_logical_store`, the batched explorer's
builder.  The implicit engine runs the same builder over the initial memo
and consumes the resulting child-gid arrays directly:

* groups of the initial memo keep their ids (``build_initial_memo`` runs
  as-is: it is O(query) and supplies the leaf ``Get`` operators, the
  left-deep prefix joins, and the unary tower);
* every further subset of the enumeration universe — the join graph's
  csg–cmp kernel returns it, and every split, as arrays — gets the next
  id, in universe order: the builder calls ``get_or_create`` exactly as
  the explorer does;
* a join group's logical expressions are its valid splits in bucket
  order, both orientations, with the initial left-deep expression (if the
  group has one) first — read positionally from the store's ``sl``/``sr``
  columns, which the count pass (:mod:`.turbo`) gathers wholesale.

``local_id`` arithmetic follows: logical expressions occupy ``1..L``, the
physical operators the implicit engine *counts without creating* would
occupy ``L+1..``.  The simulation is byte-compatible with the explored
memo — asserted group-by-group in the property suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.algebra.logical import LogicalGet
from repro.errors import PlanSpaceError
from repro.memo.columnar import (
    ColumnarLogicalStore,
    ColumnarUnsupported,
    build_logical_store,
)
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import BoundQuery

__all__ = ["ImplicitGroup", "ImplicitLayout"]


@dataclass
class ImplicitGroup:
    """One simulated memo group.

    ``kind`` is ``leaf`` (single relation), ``join`` (relation set of two
    or more), or the unary-tower tags ``select``/``agg``/``proj``.  Join
    groups read their valid unordered splits (left side holding the
    subset's name-smallest alias, historical order) from the shared
    columnar logical ``store``.  Groups seeded by the initial left-deep
    plan carry the ``initial`` ordered pair.
    """

    gid: int
    kind: str
    mask: int | None = None
    relations: frozenset[str] = frozenset()
    op: object | None = None  # leaf Get / tower logical operator
    child_gid: int | None = None  # tower groups
    initial: tuple[int, int] | None = None
    store: ColumnarLogicalStore | None = field(default=None, repr=False)

    @property
    def logical_count(self) -> int:
        """Number of logical expressions (local ids ``1..L``): both
        orientations of every split of a join group (the initial
        expression is one of them), one for a leaf or tower group."""
        if self.kind == "join":
            return self.store.logical_join_count(self.gid)
        return 1


class ImplicitLayout:
    """Simulated memo layout for one query."""

    def __init__(self, bound: BoundQuery, allow_cross_products: bool, scope=None):
        setup = build_initial_memo(bound, allow_cross_products)
        self.bound = bound
        self.allow_cross_products = allow_cross_products
        self.graph: JoinGraph = setup.graph
        self.universe = self.graph.universe
        self.root_order = bound.order_by
        self.join_root_gid = setup.join_root_gid

        #: the seed memo: the layout owns it (the store only reads it
        #: back weakly), so the count pass and the tables reach it here
        self.memo = memo = setup.memo
        self.root_gid: int = memo.root_group_id
        self.groups: list[ImplicitGroup] = []
        self.tower_gids: list[int] = []

        # One shared builder determines the layout: the columnar logical
        # store appends the enumeration universe's groups to the initial
        # memo (explorer gid order) and holds every bucket as child-gid
        # columns.  The simulation below is just views over it.
        n_initial = len(memo.groups)
        try:
            store = build_logical_store(
                memo, self.graph, allow_cross_products, scope=scope
            )
        except ColumnarUnsupported as exc:  # pragma: no cover - defensive
            raise PlanSpaceError(str(exc)) from None
        self.store = store
        self.subset_masks = store.subset_masks
        self.gid_by_mask: dict[int, int] = memo._rels_gid_by_mask

        # 1. Groups of the initial memo keep their ids.
        memo_groups = memo.groups
        for group in memo_groups[:n_initial]:
            tag = group.key[0]
            if tag == "rels":
                mask = group.mask
                if len(group.relations) == 1:
                    record = ImplicitGroup(
                        gid=group.gid,
                        kind="leaf",
                        mask=mask,
                        relations=group.relations,
                        op=group.logical_exprs()[0].op,
                    )
                    assert isinstance(record.op, LogicalGet)
                else:
                    init = store.initial_by_gid[group.gid]
                    record = ImplicitGroup(
                        gid=group.gid,
                        kind="join",
                        mask=mask,
                        relations=group.relations,
                        initial=(
                            memo_groups[init[0]].mask,
                            memo_groups[init[1]].mask,
                        ),
                        store=store,
                    )
            elif tag in ("select", "agg", "proj"):
                expr = group.logical_exprs()[0]
                record = ImplicitGroup(
                    gid=group.gid,
                    kind=tag,
                    relations=group.relations,
                    mask=group.mask,
                    op=expr.op,
                    child_gid=expr.children[0],
                )
                self.tower_gids.append(group.gid)
            else:  # pragma: no cover - defensive
                raise PlanSpaceError(f"unknown group key tag {tag!r}")
            self.groups.append(record)

        # 2. The enumeration universe, in builder (= explorer) order.
        for group in memo_groups[n_initial:]:
            self.groups.append(
                ImplicitGroup(
                    gid=group.gid,
                    kind="join",
                    mask=group.mask,
                    relations=group.relations,
                    store=store,
                )
            )

    # ------------------------------------------------------------------
    def group(self, gid: int) -> ImplicitGroup:
        return self.groups[gid]

    def group_for_mask(self, mask: int) -> ImplicitGroup:
        return self.groups[self.gid_by_mask[mask]]

    def join_groups(self) -> Iterator[ImplicitGroup]:
        """Join groups in gid order (= the materializer's iteration order)."""
        for group in self.groups:
            if group.kind == "join":
                yield group

    def logical_expression_count(self) -> int:
        return sum(group.logical_count for group in self.groups)
