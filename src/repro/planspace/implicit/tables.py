"""Column-backed operator tables for unranking.

Counting works on group aggregates; unranking must walk a group's
alternatives in ``local_id`` order with their ``N(v)`` counts.  A
:class:`GroupTable` holds exactly the rows the materializer would have
inserted — same order, same local ids — one group at a time, on first
touch, as columns:

* ``counts``: the flat per-row ``N(v)`` list; position ``p`` is local id
  ``base + p``.  The group's own operators (its *body*: scans, joins or
  unary-tower operators) come first, its ``Sort`` enforcers after them;
* join groups: per-expression :class:`~.turbo.JoinColumns` (child
  masks, merge kids, first row of each logical join) from
  ``CountState.join_columns`` — the group's block of the count pass's
  int64 rows, read as lists, its bigint counts multiplied out by a
  plain loop.  A row's operator is arithmetic on its offset within
  its expression (``[nlj] [hash] [merge] [index-nl ...]``, rule order);
* ``delivering()``: the sparse delivered-order column, ``(position,
  kid)`` of every row that delivers an order.

A requirement (``None`` / kid / ``(NONENF, kid)``) selects *positions*:
all of them, the delivering ones whose kid extends the required one, or
the body.  Kids are the count pass's byte-lexicographic ranks and every
order a table names is ranked there, so the kids extending ``q`` are the
interval ``[q, kid_hi[q])``: satisfaction is two integer comparisons per
delivering row, no byte string is read.  A :class:`Row` (slots,
``B_v`` prefix, payload, later its operator) is constructed, and cached,
only for a position a plan, a stratum descent or a pooled fragment
selects — ``TableSet.rows_built`` counts them: O(plan), never O(group).
A join row's kind is its physical join (``nlj`` / ``hash`` / ``merge``,
from ``join_physical_kinds``) and a sort row's is ``sort``, so both can
be priced from cardinalities alone (the cost model's
``CARDINALITY_FORMULAS``); their operators are built only when a plan
node needs them.  Every operator comes from the space's one operator
cache (``state.operators``, the pair record's, which built every leaf's
and tower group's operators when the space was counted);
``TableSet.operators_built`` reads its counter.  A group's cardinality
is estimated on first touch by annotate's one per-group estimate
(``group_cardinality``) over the layout's own memo group — the rule
``annotate_cardinalities`` loops eagerly on the exact route — so the two
routes hold the same floats.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import PlanSpaceError
from repro.optimizer.annotate import group_cardinality
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.rules import join_physical_kinds, join_rule_arity
from repro.planspace.implicit.counting import CountState

__all__ = ["GroupTable", "CandidateList", "TableSet"]

#: slot requirement sentinel: enforcer child (non-enforcers of own group)
NONENF = "nonenf"
#: the row kinds of binary joins, named as ``join_physical_kinds`` names them
JOIN_KINDS = ("nlj", "hash", "merge")


@dataclass(slots=True)
class Row:
    """One virtual physical operator of a group."""

    local_id: int
    kind: str  # scan | nlj | hash | merge | inlj | unary | sort
    payload: tuple
    count: int
    #: per child slot: (child_gid, requirement) where requirement is
    #: None (any), a kid id, or (NONENF, sort kid) for enforcer children
    slots: tuple
    #: B_v prefix products per slot, B_v(0)=1 first
    prefix: tuple
    #: the physical operator, set by :meth:`TableSet.operator` from the
    #: operator cache
    op: object = None


@dataclass(slots=True)
class CandidateList:
    """Qualifying positions of one (group, requirement) pair, with the
    prefix sums operator selection bisects over."""

    table: "GroupTable"
    positions: range | list[int]  # ascending table positions
    cumulative: list[int]  # exclusive prefix sums, len(positions)+1

    @property
    def gid(self) -> int:
        return self.table.gid

    @property
    def total(self) -> int:
        return self.cumulative[-1]

    def find(self, local_id: int) -> int:
        """Index of the row with ``local_id`` in this list, or -1."""
        position = local_id - self.table.base
        index = bisect_left(self.positions, position)
        if index < len(self.positions) and self.positions[index] == position:
            return index
        return -1


class GroupTable:
    """The virtual operators of one group, in local-id order, as columns."""

    def __init__(self, tables: "TableSet", gid: int):
        # no reference back to ``tables``: a dropped space must free its
        # tables by reference count, not wait for the cycle collector
        # (rows are counted through a one-slot cell the set shares out)
        self.state = state = tables.state
        self._built = tables._built
        self.gid = gid
        self.group = group = state.layout.group(gid)
        #: local id of position 0 (logical expressions occupy ``1..L``)
        self.base = group.logical_count + 1
        self.join = None
        if group.kind == "leaf":
            self.scans = state.operators.group(gid)
            counts = [1] * len(self.scans)
        elif group.kind == "join":
            self.join = state.join_columns(gid)
            #: (keyed, keyless) physical join kinds, in rule order
            self.join_kinds = join_physical_kinds(state.config)
            counts = self.join.counts
        else:  # unary tower
            counts = [top.count for top in state.tower_ops[gid]]
        self.body = len(counts)

        # sort enforcers, in global first-occurrence requirement order
        self.sort_kids: list[int] = []
        if state.config.enable_sort_enforcers:
            if group.kind in ("leaf", "join"):
                self.sort_kids = list(state.required.get(group.mask, ()))
                counts += state.sort_counts.get(group.mask, [])
            else:
                sorts = state.tower_sorts.get(gid, [])
                self.sort_kids = [kid for kid, _count in sorts]
                counts += [count for _kid, count in sorts]
        self.counts: list[int] = counts
        self._rows: dict[int, Row] = {}
        self._delivering: list[tuple[int, int]] | None = None

    # ------------------------------------------------------------------
    def delivering(self) -> list[tuple[int, int]]:
        """``(position, delivered kid)`` of every order-delivering row."""
        out = self._delivering
        if out is None:
            state = self.state
            kind = self.group.kind
            if kind == "join":
                plain, merge = join_rule_arity(state.config, True)
                out = [
                    (start + plain, kid)  # the expression's merge join
                    for start, kid in zip(self.join.starts, self.join.lkid)
                    if merge and kid >= 0
                ]
            elif kind == "leaf":
                out = [
                    (pos, state.keys.kid_of_columns(order))
                    for pos, scan in enumerate(self.scans)
                    if (order := scan.delivered_order())
                ]
            else:
                out = [
                    (pos, top.delivered)
                    for pos, top in enumerate(state.tower_ops[self.gid])
                    if top.delivered >= 0
                ]
            out += [(self.body + j, k) for j, k in enumerate(self.sort_kids)]
            self._delivering = out
        return out

    def satisfying(self, kid: int) -> list[int]:
        """Positions whose delivered order satisfies required ``kid``:
        the deliveries in the kid's extension interval."""
        hi = int(self.state.kid_hi[kid])
        return [pos for pos, found in self.delivering() if kid <= found < hi]

    # ------------------------------------------------------------------
    def row(self, pos: int) -> Row:
        """The row at ``pos`` (constructed on first selection)."""
        row = self._rows.get(pos)
        if row is None:
            row = self._rows[pos] = self._make(pos)
            self._built[0] += 1
        return row

    def row_by_local(self, local_id: int) -> Row:
        return self.row(local_id - self.base)

    def _make(self, pos: int) -> Row:
        state = self.state
        gid = self.gid
        local = self.base + pos
        count = self.counts[pos]
        if pos >= self.body:
            kid = self.sort_kids[pos - self.body]
            return Row(local, "sort", (kid,), count, ((gid, (NONENF, kid)),), (1,))
        kind = self.group.kind
        if kind == "leaf":
            return Row(local, "scan", (pos,), count, (), ())
        if kind != "join":
            top = state.tower_ops[gid][pos]
            slots = ((self.group.child_gid, top.required_kid),)
            return Row(local, "unary", (pos,), count, slots, (1,))
        cols = self.join
        expr = bisect_right(cols.starts, pos) - 1
        offset = pos - cols.starts[expr]
        left, right = cols.left[expr], cols.right[expr]
        gid_by_mask = state.layout.gid_by_mask
        lgid, rgid = gid_by_mask[left], gid_by_mask[right]
        lkid = cols.lkid[expr]
        keyed, keyless = self.join_kinds
        kinds = keyed if lkid >= 0 else keyless
        if offset >= len(kinds):
            payload = (left, right, offset - len(kinds))
            return Row(local, "inlj", payload, count, ((lgid, None),), (1,))
        kind = kinds[offset]
        payload = (left, right, offset)
        if kind == "merge":
            slots = ((lgid, lkid), (rgid, cols.rkid[expr]))
            prefix = (1, state.sord[(left, lkid)])
            return Row(local, kind, payload, count, slots, prefix)
        slots = ((lgid, None), (rgid, None))
        return Row(local, kind, payload, count, slots, (1, state.A[left]))


class TableSet:
    """Lazy per-group tables and candidate lists over one count state;
    operators come from the state's operator cache."""

    def __init__(self, state: CountState):
        self.state = state
        self._tables: dict[int, GroupTable] = {}
        self._candidates: dict[tuple, CandidateList] = {}
        self._cardinality: dict[int, float] = {}
        self._estimator = None
        self._built = [0]  # rows constructed, counted by the tables

    # ------------------------------------------------------------------
    # first-touch work so far, in counts (each an O(1) read)
    @property
    def rows_built(self) -> int:
        """:class:`Row` objects constructed so far (the laziness measure)."""
        return self._built[0]

    @property
    def operators_built(self) -> int:
        """Physical operators the space's operator cache has constructed:
        every leaf's access paths and tower group's unary operators when
        the space was counted, then a join pair's operators when a plan
        node needs one of them, one ``Sort`` per kid."""
        return self.state.operators.built

    @property
    def tables(self) -> int:
        """Group tables built so far."""
        return len(self._tables)

    @property
    def candidate_lists(self) -> int:
        """Candidate lists (positions + bigint prefix sums) built so far."""
        return len(self._candidates)

    def table(self, gid: int) -> GroupTable:
        table = self._tables.get(gid)
        if table is None:
            table = GroupTable(self, gid)
            self._tables[gid] = table
        return table

    def candidates(self, gid: int, requirement) -> CandidateList:
        """The qualifying positions of ``(group, requirement)``.

        ``requirement`` is None (all alternatives), a kid id (delivered
        order must satisfy it), or ``(NONENF, kid)`` (enforcer children:
        every non-enforcer, minus the already-ordered ones under the
        redundant-sort ablation).  With redundant sorts kept, every
        enforcer of a group has the same children — its body — so the
        group keeps one list for all of them; without, the lists really
        differ per kid.
        """
        if isinstance(requirement, tuple) and self.state.include_redundant_sorts:
            requirement = NONENF
        key = (gid, requirement)
        cached = self._candidates.get(key)
        if cached is not None:
            return cached
        table = self.table(gid)
        counts = table.counts
        if requirement is None:
            positions = range(len(counts))
        elif requirement is NONENF:
            positions = range(table.body)
        elif isinstance(requirement, tuple):
            ordered = set(table.satisfying(requirement[1]))
            positions = [pos for pos in range(table.body) if pos not in ordered]
        else:
            positions = table.satisfying(requirement)
        cumulative = [0, *accumulate(map(counts.__getitem__, positions))]
        cached = CandidateList(table, positions, cumulative)
        self._candidates[key] = cached
        return cached

    # ------------------------------------------------------------------
    # operators: read from the operator cache, remembered on the row
    # ------------------------------------------------------------------
    def operator(self, gid: int, row: Row):
        """The physical operator of ``row``, from the operator cache
        (built there on first request)."""
        op = row.op
        if op is not None:
            return op
        operators = self.state.operators
        kind = row.kind
        if kind in ("scan", "unary"):
            op = operators.group(gid)[row.payload[0]]
        elif kind in JOIN_KINDS:
            left, right, pos = row.payload
            op = operators.joins(left, right)[pos]
        elif kind == "inlj":
            left, right, pos = row.payload
            inner_get = self.state.layout.group_for_mask(right).op
            op = operators.index_joins(left, right, inner_get)[pos]
        elif kind == "sort":
            op = operators.sort(row.payload[0])
        else:  # pragma: no cover - defensive
            raise PlanSpaceError(f"unknown row kind {kind!r}")
        row.op = op
        return op

    # ------------------------------------------------------------------
    def cardinality(self, gid: int) -> float:
        """The group's estimated output rows, computed on first touch
        by annotate's one per-group estimate over the layout's own memo
        group (the value the exact pipeline stores on it)."""
        cached = self._cardinality.get(gid)
        if cached is not None:
            return cached
        state = self.state
        layout = state.layout
        group = layout.memo.groups[gid]
        if self._estimator is None:
            self._estimator = CardinalityEstimator(state.catalog, layout.bound)
        child_rows = (
            None if group.key[0] == "rels" else self.cardinality(group.key[1])
        )
        value = group_cardinality(group, layout.graph, self._estimator, child_rows)
        self._cardinality[gid] = value
        return value
