"""Oriented equality edges as rank bitmasks.

The implicit engine never materializes a join predicate to learn its
equi-keys.  Instead every equality conjunct ``a.x = b.y`` becomes *two
oriented edges* (``a``-side left, ``b``-side left), globally sorted by the
same ``(alias, column, other alias, other column)`` string key that
:func:`repro.optimizer.rules.extract_equi_keys` sorts key pairs by.  An
oriented edge's position in that global order is its *rank*.

Because the canonical key sequence of any cut is its crossing edges in
rank order, the key identity of the cut ``(left, right)`` reduces to a
single integer: the bitmask (bit *i* = rank-*i* edge crosses) ::

    cut(left, right) = FROM[left] & TO[right]

where ``FROM[mask]``/``TO[mask]`` are unions over the alias bits of
``mask`` — per group, one vectorized OR sweep per alias bit in the count
pass and the exact path's emitter.  Decoding a cut bitmask yields both
oriented column sequences — the left keys (sorted canonically for the
left side) and the right keys (the matching columns in *the same order*,
which is how merge-join ``right_keys`` are ordered).

Columns are interned to one-byte ids (assigned on first sight) so key
sequences pack into ``bytes`` — hashable and memcmp-comparable, the
representation :mod:`repro.planspace.implicit.keys` interns.  Sorted as
0-padded rows, a sequence sits directly before its extensions, so "the
required order is a prefix of the delivered one" becomes an interval of
byte-lexicographic ranks (``q <= d < kid_hi[q]``, the pair record's one
order rule); no consumer tests the bytes themselves.
"""

from __future__ import annotations

from repro.algebra.expressions import ColumnId
from repro.errors import PlanSpaceError
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.rules import equality_analysis

__all__ = ["MAX_RELATIONS", "EdgeCatalog", "check_limits"]

#: relation sets are bitmasks in signed int64 columns throughout the
#: vectorized kernels (``union_words_by_mask``, the layout and count
#: passes): bit 63 is the sign bit, so 63 aliases is the widest universe
#: they represent — a 64th raises ``OverflowError`` inside numpy
MAX_RELATIONS = 63

#: column ids are 1-based single bytes; 0 is reserved as the pad/sentinel
#: value of the vectorized key tables
_MAX_COLUMNS = 254


def _limit_error(limit: int, what: str, given) -> PlanSpaceError:
    return PlanSpaceError(
        f"query exceeds the optimizer's limit of {limit} {what} ({given} given)"
    )


def check_limits(graph: JoinGraph) -> None:
    """Refuse a query beyond what the kernels represent — more than
    :data:`MAX_RELATIONS` relations or ``_MAX_COLUMNS`` distinct
    equi-join key columns — with the one error every route raises.

    Cheap enough for every request (two integer compares; the columns
    are only counted when there are enough conjuncts to overflow), so
    :func:`repro.optimizer.setup.build_initial_memo` calls it before any
    route explores anything.
    """
    n = graph.universe.size
    if n > MAX_RELATIONS:
        raise _limit_error(MAX_RELATIONS, "relations", n)
    # A conjunct contributes at most one equality, hence two columns.
    if 2 * len(graph.conjuncts) > _MAX_COLUMNS:
        columns = set()
        for conjunct in graph.conjuncts:
            for pair in equality_analysis(conjunct.expr)[0]:
                if pair[2] != pair[3]:  # same-alias equality is no join key
                    columns.update(pair[:2])
        if len(columns) > _MAX_COLUMNS:
            raise _limit_error(
                _MAX_COLUMNS, "distinct key columns", len(columns)
            )


class EdgeCatalog:
    """Oriented equality edges of one query's join graph."""

    def __init__(self, graph: JoinGraph):
        self.graph = graph
        self.universe = graph.universe
        n = self.universe.size
        check_limits(graph)

        #: interned columns: ColumnId -> 1-based byte id (and back)
        self.col_ids: dict[ColumnId, int] = {}
        self.columns: list[ColumnId] = [None]  # 1-based

        records = []
        mask_of = self.universe.mask_of
        for conjunct in graph.conjuncts:
            eq_pairs, _others = equality_analysis(conjunct.expr)
            for a, b, a_alias, b_alias, key_ab, key_ba, _c in eq_pairs:
                a_bit = mask_of([a_alias])
                b_bit = mask_of([b_alias])
                if a_bit == b_bit:
                    continue  # same-alias equality never crosses a cut
                records.append((key_ab, a, b, a_bit, b_bit))
                records.append((key_ba, b, a, b_bit, a_bit))
        records.sort(key=lambda rec: rec[0])

        self.edge_count = len(records)
        #: per oriented edge rank: left/right column byte ids
        self.left_col: bytes
        self.right_col: bytes
        #: per alias bit position: bitmask of ranks leaving/entering it
        self.from_bits = [0] * n
        self.to_bits = [0] * n

        left_cols = bytearray()
        right_cols = bytearray()
        for rank, (_key, a, b, a_bit, b_bit) in enumerate(records):
            left_cols.append(self.col_id(a))
            right_cols.append(self.col_id(b))
            self.from_bits[a_bit.bit_length() - 1] |= 1 << rank
            self.to_bits[b_bit.bit_length() - 1] |= 1 << rank
        self.left_col = bytes(left_cols)
        self.right_col = bytes(right_cols)

    # ------------------------------------------------------------------
    def clone(self, graph: JoinGraph | None = None) -> "EdgeCatalog":
        """A private copy bound to ``graph`` (default: the original).

        The heavy, immutable parts — the sorted oriented-edge records
        packed into ``left_col``/``right_col`` and ``edge_count`` — are
        shared; the interning tables (``col_ids``/``columns`` grow via
        check-then-insert in :meth:`col_id`) are copied, so the clone can
        be mutated freely on another thread.  Used by the plan cache's
        template tier: a structurally identical re-bound query supplies
        its own ``graph`` and skips the per-query equality analysis.  The caller is
        responsible for structural identity (same template, same
        catalog); the universe order is still asserted.
        """
        twin = object.__new__(EdgeCatalog)
        twin.graph = graph if graph is not None else self.graph
        twin.universe = twin.graph.universe
        if tuple(twin.universe.order) != tuple(self.universe.order):
            raise PlanSpaceError(
                "edge catalog cloned onto a different alias universe"
            )
        twin.col_ids = dict(self.col_ids)
        twin.columns = list(self.columns)
        twin.edge_count = self.edge_count
        twin.left_col = self.left_col
        twin.right_col = self.right_col
        twin.from_bits = list(self.from_bits)
        twin.to_bits = list(self.to_bits)
        return twin

    # ------------------------------------------------------------------
    def col_id(self, column: ColumnId) -> int:
        """Intern ``column`` to its 1-based byte id."""
        cid = self.col_ids.get(column)
        if cid is None:
            cid = len(self.columns)
            if cid > _MAX_COLUMNS:
                # Index, GROUP BY and ORDER BY columns intern after the
                # equality edges check_limits counted.
                raise _limit_error(
                    _MAX_COLUMNS, "distinct key columns", f"{cid} or more"
                )
            self.col_ids[column] = cid
            self.columns.append(column)
        return cid

    def seq_bytes(self, columns: tuple[ColumnId, ...]) -> bytes:
        """Pack a column sequence (index key, GROUP BY, ORDER BY) into the
        interned byte form."""
        return bytes(self.col_id(c) for c in columns)

    def seq_columns(self, seq: bytes) -> tuple[ColumnId, ...]:
        """Inverse of :meth:`seq_bytes`."""
        columns = self.columns
        return tuple(columns[b] for b in seq)

    # ------------------------------------------------------------------
    def decode(self, cut_bits: int) -> tuple[bytes, bytes]:
        """Decode a cut bitmask into ``(left key bytes, right key bytes)``.

        Ranks ascend with bit position, so the sequences come out in the
        canonical (left-side sorted) key order.
        """
        left = bytearray()
        right = bytearray()
        left_col = self.left_col
        right_col = self.right_col
        bits = cut_bits
        while bits:
            bit = bits & -bits
            i = bit.bit_length() - 1
            left.append(left_col[i])
            right.append(right_col[i])
            bits ^= bit
        return bytes(left), bytes(right)
