"""Interned cut keys.

Every sort order the search space mentions — merge-join key sequences,
index key orders, GROUP BY / ORDER BY requirements — is interned here as a
*kid* (key id) over its packed byte form (:mod:`.edges`).
:meth:`KeyTable.kid` is identity: the same column sequence always maps to
the same kid, which is what deduplicates ``Sort`` enforcers exactly like
the memo's duplicate detection does.  The paper's qualification rule
(the required order is a prefix of the delivered one) is one rule over
kids: the pair record (:func:`repro.memo.columnar.build_pair_record`)
preloads every order the memo names (cut keys, leaf and tower
deliveries, the tower's child requirements, ORDER BY) as a
lexicographically sorted kid matrix, so the deliveries extending ``q``
are the contiguous kid interval ``[q, kid_hi[q])`` and every consumer —
the best-plan DP, pruning, the count pass, its tower and the group
tables — tests ``q <= d < kid_hi[q]``, reading no byte string.  No kid
is interned after the record.
"""

from __future__ import annotations

import numpy as np

from repro.planspace.implicit.edges import EdgeCatalog

__all__ = ["KeyTable"]

#: sentinel "required order" ids
NO_ORDER_KID = -1


class KeyTable:
    """Kid interning over packed key byte strings.

    Two backings share one id space:

    * a :meth:`preload`-ed, lexicographically sorted byte matrix — the
      one cut-key table (:func:`repro.kernel.vector.cut_key_table`) the
      pair record interns every order the memo names into, before
      anything asks for a kid.  Lookups binary-search it,
      and the byte strings themselves are sliced out lazily, so a
      count-only run never materializes hundreds of thousands of
      ``bytes`` objects;
    * the plain dict/list overflow: every kid of the oracles under
      ``tests/`` that intern one sequence at a time (the scalar
      emission loop, the per-pair count pass's first run).  The pair
      record preloads every order production interns, so production
      tables have none.
    """

    def __init__(self, edges: EdgeCatalog):
        self.edges = edges
        self._kid_by_bytes: dict[bytes, int] = {}
        self._overflow: list[bytes] = []
        self._matrix = np.zeros((0, 1), np.uint8)
        self._lengths = np.zeros(0, np.int64)
        self._width: int = 1
        self._preloaded: int = 0
        #: the matrix as one ``bytes``, built on the first byte-level
        #: lookup (the matrix then becomes a view of it: one copy)
        self._flat: bytes | None = None

    def preload(self, matrix, lengths, seqs=(), kids=None) -> None:
        """Adopt a sorted, 0-padded ``(K, width)`` uint8 kid matrix and
        its int64 key lengths: row index = kid id = lexicographic rank.
        ``seqs`` are sequences the matrix holds at rows ``kids`` (an
        int64 array), registered so interning them later does not
        search."""
        assert not self._preloaded and not self._overflow
        self._matrix = matrix
        self._lengths = lengths
        self._width = matrix.shape[1]
        self._preloaded = len(lengths)
        if seqs:
            self._kid_by_bytes.update(zip(seqs, kids.tolist()))

    def table(self):
        """``(matrix, lengths, overflow)``: the preloaded lex-sorted kid
        matrix and key lengths (kid ``k < len(lengths)`` is row ``k``) and
        the overflow kids' byte strings (kid ``len(lengths) + i``)."""
        return self._matrix, self._lengths, self._overflow

    def _flat_rows(self) -> bytes:
        flat = self._flat
        if flat is None:
            matrix = self._matrix
            flat = self._flat = matrix.tobytes()
            self._matrix = np.frombuffer(flat, np.uint8).reshape(matrix.shape)
        return flat

    def _row(self, kid: int) -> bytes:
        flat = self._flat
        if flat is None:
            flat = self._flat_rows()
        start = kid * self._width
        # column ids are 1-based: the trailing zeros are the padding
        return flat[start : start + self._width].rstrip(b"\x00")

    def bytes_of(self, kid: int) -> bytes:
        if kid < self._preloaded:
            return self._row(kid)
        return self._overflow[kid - self._preloaded]

    #: ``keys[kid]`` — the table is its own ``kid -> bytes`` column.  No
    #: ``__len__`` beside it: an empty table must not become falsy.
    __getitem__ = bytes_of

    def kid(self, seq: bytes) -> int:
        """Intern a packed key sequence."""
        k = self._kid_by_bytes.get(seq)
        if k is not None:
            return k
        if self._preloaded:
            width = self._width
            if len(seq) <= width:
                probe = seq.ljust(width, b"\x00")
                flat = self._flat_rows()
                lo, hi = 0, self._preloaded
                while lo < hi:
                    mid = (lo + hi) // 2
                    if flat[mid * width : (mid + 1) * width] < probe:
                        lo = mid + 1
                    else:
                        hi = mid
                if (
                    lo < self._preloaded
                    and flat[lo * width : (lo + 1) * width] == probe
                ):
                    self._kid_by_bytes[seq] = lo
                    return lo
        k = self._preloaded + len(self._overflow)
        self._kid_by_bytes[seq] = k
        self._overflow.append(seq)
        return k

    def kid_of_columns(self, columns) -> int:
        """Intern a ColumnId sequence (index keys, GROUP BY, ORDER BY)."""
        return self.kid(self.edges.seq_bytes(tuple(columns)))

    def columns_of(self, kid: int):
        """The ColumnId sequence of a kid (for ``Sort``/key construction)."""
        return self.edges.seq_columns(self.bytes_of(kid))
