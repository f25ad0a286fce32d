"""Reference (slow-path) cut-key interning: the key-table oracle.

Before :func:`repro.kernel.vector.cut_key_table`, the exact path's
emitter (``_emit_rows_vectorized`` in :mod:`repro.memo.columnar`) and the
count pass (:func:`repro.planspace.implicit.turbo.turbo_rels_pass`) each
ran the same chain over their cut word rows, written twice: intern the
cuts, unpack every distinct cut to bits and scatter its symbols into
per-chunk 0-padded uint8 matrices (:func:`decode_bit_rows`), re-pad the
chunks to one width, stack the left and right halves (and, in the count
pass, the loose requirement / leaf sequences), and rank the stack by one
big-endian word lexsort (:func:`lex_unique_rows`).  Both chains are kept
here verbatim as the oracle the shared table must reproduce byte for
byte (``tests/kernel/test_cut_key_table.py``).  :func:`lex_rank_rows`,
the lexsort the best-plan DP once ranked a scalar-built store's overflow
kids with, and the one-cut-at-a-time interning the scalar emitter and the
per-pair count pass read — :class:`ReferenceEdges` (per-mask FROM/TO
unions) and :class:`ReferenceKeys` (the per-cut kid memo) — moved here
verbatim when the one emitter left them no caller under ``src/``; the
two scalar oracles build on them.  :func:`prefix_interval_ends`, the
best-plan DP's second interval kernel (interval ends at the required
ranks only, by masked word compares), moved here verbatim with
:func:`byte_words` when the pair record's one ``prefix_intervals`` call
became every consumer's order rule: it is a second derivation of that
sweep (``tests/kernel/test_vector.py``).  :func:`byte_prefix_intervals`
is that sweep as it ran over the kid matrix's bytes, before it compared
the rows' big-endian words; it moved here as a third derivation.
"""

from __future__ import annotations

import numpy as np

from repro.kernel.vector import unique_rows
from repro.planspace.implicit.edges import EdgeCatalog
from repro.planspace.implicit.keys import KeyTable

__all__ = [
    "DECODE_CHUNK",
    "ReferenceEdges",
    "ReferenceKeys",
    "byte_prefix_intervals",
    "byte_words",
    "count_pass_key_chain",
    "decode_bit_rows",
    "emitter_key_chain",
    "lex_rank_rows",
    "lex_unique_rows",
    "prefix_interval_ends",
]

DECODE_CHUNK = 1 << 18


def byte_words(mat):
    """View a 0-padded (n, width) uint8 matrix as big-endian uint64 words
    — numeric word order equals byte-lexicographic row order."""
    width = mat.shape[1]
    padded_width = (width + 7) // 8 * 8
    if padded_width != width:
        out = np.zeros((mat.shape[0], padded_width), np.uint8)
        out[:, :width] = mat
        mat = out
    return np.ascontiguousarray(mat).view(">u8").astype(np.uint64)


def byte_prefix_intervals(sorted_mat, lengths, pad_width):
    """``hi_rank`` by a ``(K - 1, width)`` byte-inequality sweep — what
    :func:`repro.kernel.vector.prefix_intervals` computed before it
    compared the rows' big-endian words.  One LCP sweep plus one
    searchsorted per row length."""
    K = len(sorted_mat)
    hi_rank = np.full(K, K, np.int64)
    if K > 1:
        diff = sorted_mat[1:] != sorted_mat[:-1]
        lcp = np.where(diff.any(axis=1), diff.argmax(axis=1), pad_width)
        lens = np.asarray(lengths, np.int64)
        for T in np.unique(lens[:-1]):
            if T <= 0:
                continue  # empty prefix: extended to the end of the table
            sel = np.flatnonzero(lens[:-1] == T)
            drops = np.flatnonzero(lcp < T)
            pos = np.searchsorted(drops, sel)
            hit = pos < len(drops)
            out = np.full(len(sel), K, np.int64)
            out[hit] = drops[pos[hit]] + 1
            hi_rank[sel] = out
    return hi_rank


def prefix_interval_ends(sorted_mat, lengths, pad_width, ranks):
    """:func:`prefix_intervals` evaluated at selected ranks only.

    The DP needs interval ends for the *required* kids — a small
    multiset of ranks — not for every row of the kid table.  For one
    prefix length ``T`` the break boundaries are exactly the adjacent
    row pairs whose first ``T`` bytes differ, which a masked big-endian
    word compare answers without materializing the full LCP column:
    per distinct required length this is a couple of whole-array uint64
    ops instead of a ``(K, width)`` byte sweep.
    """
    out = np.full(len(ranks), len(sorted_mat), np.int64)
    K = len(sorted_mat)
    if K <= 1 or not len(ranks):
        return out
    words = byte_words(sorted_mat)
    prev = words[:-1]
    nxt = words[1:]
    rlen = np.asarray(lengths, np.int64)[ranks]
    for T in np.unique(rlen):
        T = int(T)
        if T <= 0:
            continue  # empty prefix: extended to the end of the table
        sel = np.flatnonzero(rlen == T)
        neq = np.zeros(K - 1, dtype=bool)
        for wi in range((T + 7) // 8):
            tail = T - wi * 8
            if tail >= 8:
                neq |= nxt[:, wi] != prev[:, wi]
            else:
                shift = np.uint64(64 - 8 * tail)
                neq |= (nxt[:, wi] >> shift) != (prev[:, wi] >> shift)
        drops = np.flatnonzero(neq)
        pos = np.searchsorted(drops, ranks[sel])
        hit = pos < len(drops)
        vals = np.full(len(sel), K, np.int64)
        vals[hit] = drops[pos[hit]] + 1
        out[sel] = vals
    return out


def lex_rank_rows(mat):
    """Byte-lexicographic row ranks of a 0-padded uint8 matrix:
    ``(order, rank)`` with ``mat[order]`` sorted and ``rank[i]`` the
    position of row ``i`` in that order."""
    words = byte_words(mat)
    order = np.lexsort(words.T[::-1])
    rank = np.empty(len(mat), np.int64)
    rank[order] = np.arange(len(mat))
    return order, rank


def lex_unique_rows(mat):
    """Distinct rows of a 0-padded uint8 matrix in byte-lex order, plus
    each input row's rank in that order: ``(distinct_sorted, rank)``
    with ``distinct_sorted`` the deduplicated sorted matrix and
    ``rank[i]`` the position of row ``i``'s value in it.

    :func:`unique_rows` over the big-endian words — exact, and cheaper
    than interning to distinct rows first and sorting those: the
    duplicate-collapse rides the same sort.
    """
    first, rank = unique_rows(byte_words(mat))
    return mat[first], rank


def decode_bit_rows(
    bit_rows, nbits, left_lut, right_lut, chunk_size=DECODE_CHUNK, on_chunk=None
):
    """Decode packed little-endian bit rows into padded byte matrices.

    ``bit_rows`` is an (n, W) uint64 matrix of bitmasks; each set bit
    ``p`` contributes ``left_lut[p]`` / ``right_lut[p]`` to that row's
    left/right output, in ascending bit order.  Returns
    ``(left_chunks, right_chunks, chunk_maxlens)`` — 0-padded uint8
    matrices per decode chunk (pad widths differ per chunk; callers
    re-pad to a common width).  ``on_chunk`` is polled once per chunk
    for budget checkpoints.
    """
    left_chunks, right_chunks, chunk_maxlens = [], [], []
    for lo in range(0, len(bit_rows), chunk_size):
        if on_chunk is not None:
            on_chunk()
        chunk = bit_rows[lo : lo + chunk_size]
        if nbits:
            # Unpack only the bytes that can hold set bits, and take
            # flatnonzero over the contiguous result — far faster than
            # 2-D nonzero over a strided column slice.  Bits past
            # ``nbits`` inside the last byte are guaranteed zero (masks
            # fit in ``nbits``).
            nbytes = (nbits + 7) // 8
            bits = np.unpackbits(
                np.ascontiguousarray(chunk.view(np.uint8)[:, :nbytes]),
                axis=1,
                bitorder="little",
            )
        else:
            bits = np.zeros((len(chunk), 0), np.uint8)
        ncols = bits.shape[1] if nbits else 1
        flat = np.flatnonzero(bits)
        if len(chunk) * ncols < 1 << 32:
            # Chunks fit 32-bit flat indices (chunk_size * ncols stays
            # far under 2**32), and uint32 division/scatter indexing run
            # ~2x faster than int64.
            flat = flat.astype(np.uint32)
            rows = flat // np.uint32(ncols)
            poss = flat - rows * np.uint32(ncols)
        else:  # pragma: no cover - needs a >4G-bit chunk
            rows = flat // ncols
            poss = flat - rows * ncols
        lengths = np.bincount(rows, minlength=len(chunk))
        maxlen = max(int(lengths.max()) if lengths.size else 0, 1)
        starts = np.zeros(len(chunk), np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        offs = (np.arange(len(rows)) - np.repeat(starts, lengths)).astype(
            rows.dtype
        )
        idx = rows * rows.dtype.type(maxlen) + offs
        lmat = np.zeros(len(chunk) * maxlen, np.uint8)
        rmat = np.zeros(len(chunk) * maxlen, np.uint8)
        lmat[idx] = left_lut[poss]
        rmat[idx] = right_lut[poss]
        left_chunks.append(lmat.reshape(len(chunk), maxlen))
        right_chunks.append(rmat.reshape(len(chunk), maxlen))
        chunk_maxlens.append(maxlen)
    return left_chunks, right_chunks, chunk_maxlens


def emitter_key_chain(keyed_cuts, E, lcol_lut, rcol_lut, checkpoint=None):
    """The exact emitter's chain over its keyed cut rows (every row has
    a set bit): ``(kid_mat, kid_lengths, left_kids, right_kids)`` with
    the kids per input row — the matrix the store's key table adopted."""
    cut_first, cut_ids = unique_rows(keyed_cuts)
    uniq_cuts = keyed_cuts[cut_first]
    left_chunks, right_chunks, chunk_maxlens = decode_bit_rows(
        uniq_cuts,
        E,
        lcol_lut,
        rcol_lut,
        on_chunk=(
            (lambda: checkpoint("implement.columnar", 0))
            if checkpoint is not None
            else None
        ),
    )
    maxlen = max(chunk_maxlens, default=1)

    def padded(mat, width):
        if mat.shape[1] == width:
            return mat
        out = np.zeros((mat.shape[0], width), np.uint8)
        out[:, : mat.shape[1]] = mat
        return out

    stacked = np.concatenate(
        [padded(m, maxlen) for m in left_chunks]
        + [padded(m, maxlen) for m in right_chunks],
        axis=0,
    )
    # One lexsort interns and ranks the whole key universe at once:
    # distinct rows in lex order (row = kid = lex rank) plus every
    # stacked row's kid — exact, no hash-collision retry needed.
    kid_mat, kid_of_row = lex_unique_rows(stacked)
    kid_lengths = (kid_mat != 0).sum(axis=1).astype(np.int64)
    U = len(uniq_cuts)
    return kid_mat, kid_lengths, kid_of_row[:U][cut_ids], kid_of_row[U:][cut_ids]


def count_pass_key_chain(ebits, E, lcol_lut, rcol_lut, loose_seqs, checkpoint=None):
    """The count pass's chain over every cut row (keyless ones too) and
    its loose sequences (extra requirements, then leaf deliveries):
    ``(kid_mat, kid_lengths, left_kids, right_kids, loose_kids, maxlen)``
    with the kids per input row, ``maxlen`` the matrix width including
    the headroom column nothing read."""
    eb_first, eb_ids = unique_rows(ebits)
    u_ebits = ebits[eb_first]
    U = len(u_ebits)

    # decode each unique cut into its padded left/right column rows
    left_chunks, right_chunks, chunk_maxlens = decode_bit_rows(
        u_ebits,
        E,
        lcol_lut,
        rcol_lut,
        on_chunk=(
            (lambda: checkpoint("implicit.count"))
            if checkpoint is not None
            else None
        ),
    )
    maxlen = max(chunk_maxlens, default=1)
    if loose_seqs:
        maxlen = max(maxlen, max(len(s) for s in loose_seqs))
    maxlen += 1  # headroom column for the 0xff prefix-range probes

    def padded(mat, width):
        if mat.shape[1] == width:
            return mat
        out = np.zeros((mat.shape[0], width), np.uint8)
        out[:, : mat.shape[1]] = mat
        return out

    stack = [padded(m, maxlen) for m in left_chunks]
    stack += [padded(m, maxlen) for m in right_chunks]
    if loose_seqs:
        loose = np.zeros((len(loose_seqs), maxlen), np.uint8)
        for i, seq in enumerate(loose_seqs):
            loose[i, : len(seq)] = np.frombuffer(seq, np.uint8)
        stack.append(loose)
    all_rows = (
        np.concatenate(stack, axis=0)
        if stack
        else np.zeros((0, maxlen), np.uint8)
    )
    # one lexsort interns and ranks the whole key universe: row = kid =
    # byte-lexicographic rank, and every input row's kid
    kid_mat, kid_ids = lex_unique_rows(all_rows)
    kid_lengths = (kid_mat != 0).sum(axis=1).astype(np.int64)
    lkid_of_eb = kid_ids[:U]
    rkid_of_eb = kid_ids[U : 2 * U]
    loose_kids = kid_ids[2 * U :]
    return (
        kid_mat,
        kid_lengths,
        lkid_of_eb[eb_ids],
        rkid_of_eb[eb_ids],
        loose_kids,
        maxlen,
    )


class ReferenceEdges(EdgeCatalog):
    """The edge catalog plus its per-mask FROM/TO unions, one cut at a
    time (the vectorized passes OR whole word tables instead)."""

    def __init__(self, graph):
        super().__init__(graph)
        # FROM/TO unions are memoized per queried mask (lowest-bit
        # recurrence), not pre-filled densely: a sparse topology touches
        # only its connected subsets, a vanishing fraction of 2^n.
        self._from_cache: dict[int, int] = {0: 0}
        self._to_cache: dict[int, int] = {0: 0}

    # ------------------------------------------------------------------
    def _union(self, mask: int, bits: list[int], cache: dict[int, int]) -> int:
        value = cache.get(mask)
        if value is None:
            low = mask & -mask
            value = self._union(mask ^ low, bits, cache) | bits[
                low.bit_length() - 1
            ]
            cache[mask] = value
        return value

    def from_mask(self, mask: int) -> int:
        """Bitmask of the oriented edges leaving any alias of ``mask``."""
        return self._union(mask, self.from_bits, self._from_cache)

    def to_mask(self, mask: int) -> int:
        """Bitmask of the oriented edges entering any alias of ``mask``."""
        return self._union(mask, self.to_bits, self._to_cache)


class ReferenceKeys(KeyTable):
    """The key table plus its per-cut kid memo: one cut bitmask decoded
    and interned at a time (first occurrence, into the overflow)."""

    def __init__(self, edges):
        super().__init__(edges)
        #: cut bitmask -> (left kid, right kid), memoized: symmetric
        #: workloads reuse the same cut key sets across many subsets
        self._cut_kids: dict[int, tuple[int, int]] = {}

    def cut_kids(self, cut_bits: int) -> tuple[int, int]:
        """``(left kid, right kid)`` for one oriented cut bitmask."""
        pair = self._cut_kids.get(cut_bits)
        if pair is None:
            left_seq, right_seq = self.edges.decode(cut_bits)
            pair = (self.kid(left_seq), self.kid(right_seq))
            self._cut_kids[cut_bits] = pair
        return pair
