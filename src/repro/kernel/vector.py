"""numpy kernel primitives shared by implement, the DP, and the count pass.

The interning/ranking primitives are exact by construction:

* :func:`unique_rows` interns word rows by one lexsort — no hashing, so
  no collision to detect or fall back from;
* :func:`byte_words` + a big-endian word lexsort give byte-
  lexicographic row order, and 0-padded rows sort a key directly before
  its extensions, which is what makes :func:`prefix_intervals` a single
  LCP sweep.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DECODE_CHUNK",
    "byte_words",
    "lex_rank_rows",
    "lex_unique_rows",
    "prefix_intervals",
    "prefix_interval_ends",
    "decode_bit_rows",
    "union_words_by_mask",
    "int_words",
    "unique_rows",
    "sorted_unique",
    "range_min_pairs",
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


def lex_rank_rows(mat):
    """Byte-lexicographic row ranks of a 0-padded uint8 matrix:
    ``(order, rank)`` with ``mat[order]`` sorted and ``rank[i]`` the
    position of row ``i`` in that order."""
    words = byte_words(mat)
    order = np.lexsort(words.T[::-1])
    rank = np.empty(len(mat), np.int64)
    rank[order] = np.arange(len(mat))
    return order, rank


def prefix_intervals(sorted_mat, lengths, pad_width):
    """``hi_rank`` over byte-lex-sorted 0-padded rows: ``hi_rank[k]`` is
    the first rank after ``k`` whose row does not extend row ``k`` — so
    the extensions of row ``k`` (itself included) are exactly the
    contiguous rank interval ``[k, hi_rank[k])``.  One LCP sweep plus a
    monotonic stack."""
    K = len(sorted_mat)
    hi_rank = np.full(K, K, np.int64)
    if K > 1:
        diff = sorted_mat[1:] != sorted_mat[:-1]
        lcp = np.where(diff.any(axis=1), diff.argmax(axis=1), pad_width)
        lens = np.asarray(lengths, np.int64)
        # hi_rank[k] = 1 + (first boundary i >= k with lcp[i] < len[k]),
        # or K when the extension run reaches the end of the table.  Row
        # lengths are small (<= pad_width), so resolve one length
        # threshold at a time: the break positions for threshold T are
        # exactly lcp < T, and one searchsorted per threshold hands every
        # row of that length its first break at or after it.
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
        # the last row trivially ends at K (already the fill value)
    return hi_rank


def unique_rows(words):
    """Exact interning of a 2-D word matrix by one lexsort (no hashing):
    ``(first, rank)`` with ``words[first]`` the distinct rows in word
    order and ``rank[i]`` the position of row ``i``'s value among them.
    """
    n = len(words)
    if not n:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    order = np.lexsort(words.T[::-1])
    sw = words[order]
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    if n > 1:
        is_new[1:] = (sw[1:] != sw[:-1]).any(axis=1)
    rank = np.empty(n, np.int64)
    rank[order] = np.cumsum(is_new) - 1
    return order[is_new], rank


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


def union_words_by_mask(bit_words, masks, nbits):
    """Per-mask unions of per-bit word rows: ``out[i] = OR of
    bit_words[b] over set bits b of masks[i]``.  One vectorized OR sweep
    per universe bit; ``masks`` is a signed int64 column, so ``nbits`` ≤
    63 (``repro.planspace.implicit.edges.MAX_RELATIONS``)."""
    W = bit_words.shape[1] if nbits else 1
    out = np.zeros((len(masks), W), np.uint64)
    for i in range(nbits):
        sel = (masks >> i) & 1 == 1
        if sel.any():
            out[sel] |= bit_words[i]
    return out


def int_words(values, width):
    """Python ints as little-endian uint64 word rows: an
    ``(len(values), width)`` matrix, bit ``b`` of ``values[i]`` at bit
    ``b % 64`` of word ``b // 64``."""
    buf = b"".join(v.to_bytes(width * 8, "little") for v in values)
    words = np.frombuffer(buf, dtype="<u8").reshape(len(values), width)
    return words.astype(np.uint64)


def sorted_unique(values):
    """``np.unique(values)`` of a 1-D array as one sort plus a neighbour
    mask — numpy 2.3+ answers the bare call through a hash table, which
    is several times slower on the registries' int64 keys."""
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def range_min_pairs(values, lo, hi):
    """Per-interval minima over a 1-D float array: ``out[k] =
    min(values[lo[k]:hi[k]])``, ``+inf`` for empty intervals.  The
    classic interleaved-``reduceat`` trick: only the even slots of the
    boundary array are segment results."""
    inf = float("inf")
    out = np.full(len(lo), inf, dtype=np.float64)
    ok = lo < hi
    if not ok.any():
        return out
    vals = np.append(values, inf)  # sentinel keeps reduceat in range
    sel_lo = lo[ok]
    sel_hi = hi[ok]
    bounds = np.empty(2 * len(sel_lo), np.int64)
    bounds[0::2] = sel_lo
    bounds[1::2] = sel_hi
    out[ok] = np.minimum.reduceat(vals, bounds)[0::2]
    return out
