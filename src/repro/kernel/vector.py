"""numpy kernel primitives shared by explore, implement, the DP, and the
count pass.

:func:`csg_cmp_universe` is the search space itself: a level-synchronous
DPccp over int64 masks (byte-table bit-deposit and neighbour lookups, so
up to 63 relations) that returns the subset universe and every csg–cmp
split as arrays, in the canonical order the memo layout depends on.

:func:`cut_key_table` is the one cut-key table: it interns every merge-join
key a query's cuts decode to, plus every other order its caller will
intern, into one byte-lex-ranked kid matrix — the exact path's emitter
and the count pass both build their key tables with it.

The interning/ranking primitives are exact by construction:

* :func:`unique_rows` interns word rows by one lexsort — no hashing, so
  no collision to detect or fall back from;
* big-endian words of 0-padded byte rows sort in byte-lexicographic
  row order, and 0-padded rows sort a key directly before its
  extensions, which is what makes :func:`prefix_intervals` a single LCP
  sweep — the one order rule: the extensions of kid ``q`` are the rank
  interval ``[q, kid_hi[q])``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CUT_BLOCK",
    "csg_cmp_universe",
    "cut_key_table",
    "prefix_intervals",
    "union_words_by_mask",
    "int_words",
    "unique_rows",
    "sorted_unique",
    "range_min_pairs",
]

#: distinct cut rows decoded per budget poll of :func:`cut_key_table`
CUT_BLOCK = 1 << 18


def prefix_intervals(sorted_words, lengths):
    """``hi_rank`` over byte-lex-sorted 0-padded rows, given as their
    big-endian uint64 words (:func:`cut_key_table`'s ``kid_words``):
    ``hi_rank[k]`` is the first rank after ``k`` whose row does not
    extend row ``k`` — so the extensions of row ``k`` (itself included)
    are exactly the contiguous rank interval ``[k, hi_rank[k])``.

    One LCP sweep over words: per adjacent pair the first differing
    word, then the differing byte from the XOR's leading zeros.  A row
    its successor does not extend ends at ``k + 1``; only the proper
    prefixes search on, one length at a time."""
    K = len(sorted_words)
    hi_rank = np.arange(1, K + 1, dtype=np.int64)
    if K > 1:
        x = sorted_words[1:] ^ sorted_words[:-1]
        word = (x != 0).argmax(axis=1)
        first = x[np.arange(K - 1), word]
        equal = first == 0
        # smear the highest set bit down: 64 - popcount = leading zeros
        for shift in (1, 2, 4, 8, 16, 32):
            first |= first >> np.uint64(shift)
        # lcp[i]: bytes rows i and i + 1 share; lcp[K - 1] = -1 is a
        # break after the last row, which no row extends
        lcp = np.full(K, -1, np.int64)
        lcp[:-1] = 8 * word + (64 - np.bitwise_count(first)) // 8
        lcp[:-1][equal] = 8 * sorted_words.shape[1]
        lens = np.asarray(lengths, np.int64)
        # hi_rank[k] = 1 + (first boundary i >= k with lcp[i] < len[k]).
        # Row lengths are small, so resolve one length T at a time: the
        # break positions for T are exactly lcp < T, and one searchsorted
        # hands every prefix row of that length its first break after it.
        prefixes = np.flatnonzero(lcp >= lens)
        prefix_lens = lens[prefixes]
        for T in np.flatnonzero(np.bincount(prefix_lens)).tolist():
            sel = prefixes[prefix_lens == T]
            drops = np.flatnonzero(lcp < T)
            hi_rank[sel] = drops[np.searchsorted(drops, sel)] + 1
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
    sw = words.take(order, axis=0)
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    # word by word: a row-wise ``any`` over a few columns is slower
    np.not_equal(sw[1:, 0], sw[:-1, 0], out=is_new[1:])
    for k in range(1, words.shape[1]):
        is_new[1:] |= sw[1:, k] != sw[:-1, k]
    rank = np.empty(n, np.int64)
    rank[order] = np.cumsum(is_new) - 1
    return order[is_new], rank


def cut_key_table(cut_words, left_lut, right_lut, extra_seqs=(), on_block=None):
    """Intern every key of a query's cuts, and every other order the
    caller will intern, into one byte-lex-ranked kid table.

    ``cut_words`` is an (n, W) uint64 matrix of oriented cut bitmasks;
    set bit ``p`` contributes ``left_lut[p]`` / ``right_lut[p]`` (uint8
    column ids, 1-based) to the cut's left / right key, in ascending bit
    order.  ``extra_seqs`` are packed byte sequences (leaf and tower
    deliveries, GROUP BY / ORDER BY requirements).  Returns ``(kid_mat,
    kid_lengths, left_kids, right_kids, extra_kids, kid_words)``: the
    distinct keys as a 0-padded uint8 matrix of width ``max(longest key,
    1)`` in byte-lex order (row = kid = rank), their int64 lengths, the
    left and right kid of every input cut row, the kid of every extra,
    and the kid rows as the big-endian uint64 words they were ranked by
    (what :func:`prefix_intervals` sweeps).

    The distinct cuts are decoded longest first, one key column at a
    time, straight into one 0-padded buffer whose width is a whole number
    of words: peeling a cut's lowest set bit ``p`` leaves
    ``bitwise_count(x ^ (x - 1)) == p + 1`` (a borrow carries the peel
    across words), and the rows still holding bits are a prefix.  One
    :func:`unique_rows` over the buffer's big-endian words then interns
    and ranks the whole key universe.  ``on_block`` (a budget poll) is
    called before each :data:`CUT_BLOCK` distinct cuts are decoded and
    once more before that sort.
    """
    cut_first, cut_ids = unique_rows(cut_words)
    cuts = cut_words.take(cut_first, axis=0)
    U, W = cuts.shape
    X = len(extra_seqs)
    cut_len = np.bitwise_count(cuts).sum(axis=1, dtype=np.int64)
    by_len = np.argsort(-cut_len, kind="stable")
    cuts = cuts.take(by_len, axis=0)
    cut_len = cut_len[by_len]
    extra_lens = [len(seq) for seq in extra_seqs]
    width = max(int(cut_len[0]) if U else 0, max(extra_lens, default=0), 1)
    padded = (width + 7) // 8 * 8
    buf = np.zeros((2 * U + X, padded), np.uint8)
    if U:
        # the symbols of bit p at p + 1 (what the peel counts)
        lut = np.zeros((2, 64 * W + 1), np.uint8)
        lut[0, 1 : len(left_lut) + 1] = left_lut
        lut[1, 1 : len(right_lut) + 1] = right_lut
        # active[j]: the cuts with more than j keys — a prefix
        active = U - np.cumsum(np.bincount(cut_len))
        for lo in range(0, U, CUT_BLOCK):
            if on_block is not None:
                on_block()
            hi = min(lo + CUT_BLOCK, U)
            _peel_keys(
                cuts[lo:hi],
                active[: cut_len[lo]] - lo,
                lut,
                buf[lo:hi],
                buf[U + lo : U + hi],
            )
    if X:
        buf[2 * U :] = np.frombuffer(
            b"".join(seq.ljust(padded, b"\x00") for seq in extra_seqs), np.uint8
        ).reshape(X, padded)
    if on_block is not None:
        on_block()
    words = buf.view(">u8").astype(np.uint64)
    first, rank = unique_rows(words)
    kid_lengths = np.concatenate(
        (cut_len, cut_len, np.array(extra_lens, np.int64))
    )[first]
    left = np.empty(U, np.int64)
    right = np.empty(U, np.int64)
    left[by_len] = rank[:U]
    right[by_len] = rank[U : 2 * U]
    kid_mat = buf[:, :width].take(first, axis=0)
    kid_words = words.take(first, axis=0)
    return (
        kid_mat, kid_lengths, left[cut_ids], right[cut_ids], rank[2 * U :],
        kid_words,
    )


def _peel_keys(cuts, active, lut, left_out, right_out):
    """Decode length-descending cut rows column by column into
    ``left_out`` / ``right_out``: column ``j`` holds the symbols of the
    first ``active[j]`` rows' lowest remaining bits (clipped to the
    block)."""
    n, W = cuts.shape
    words = [cuts[:, k].copy() for k in range(W)]
    below = np.empty(n, np.uint64)
    spent = np.empty(n, np.uint64)
    pos = np.empty(n, np.uint16)
    if W > 1:
        count = np.empty(n, np.uint16)
        borrow = np.empty(n, bool)
    for j, m in enumerate(np.minimum(active, n).tolist()):
        t, y, p = below[:m], spent[:m], pos[:m]
        x = words[0][:m]
        np.subtract(x, np.uint64(1), out=t)
        np.bitwise_xor(x, t, out=y)
        np.bitwise_count(y, out=p)
        if W > 1:
            b, c = borrow[:m], count[:m]
            np.equal(x, 0, out=b)
        np.bitwise_and(x, t, out=x)
        for k in range(1, W):
            # a word is peeled only while every word below it is empty
            x = words[k][:m]
            np.subtract(x, b, out=t, casting="unsafe")
            np.bitwise_xor(x, t, out=y)
            np.bitwise_count(y, out=c)
            p += c
            if k + 1 < W:
                b &= x == 0
            np.bitwise_and(x, t, out=x)
        left_out[:m, j] = lut[0].take(p)
        right_out[:m, j] = lut[1].take(p)


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


# ----------------------------------------------------------------------
# csg–cmp enumeration
# ----------------------------------------------------------------------
def _pdep8_table():
    """``table[(m << 8) | c]``: the low bits of ``c`` deposited, in
    order, at the set bits of the byte ``m`` (an 8-bit ``pdep``)."""
    m = np.arange(256, dtype=np.int64)[:, None]
    c = np.arange(256, dtype=np.int64)[None, :]
    out = np.zeros((256, 256), np.int64)
    taken = np.zeros((256, 1), np.int64)
    for p in range(8):
        has = (m >> p) & 1
        out |= ((c >> taken) & has) << p
        taken = taken + has
    return out.ravel()


_PDEP8 = _pdep8_table()
_POP8 = np.bitwise_count(np.arange(256, dtype=np.uint8)).astype(np.int64)
#: byte value -> its bits reversed
_REV8 = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], np.uint64)
#: bit i as a one-bit mask, and 2^k - 1 by popcount k
_BITS = np.left_shift(1, np.arange(63, dtype=np.int64))
_LOW_ONES = np.left_shift(1, np.arange(64, dtype=np.int64)) - 1


def _deposit(counter, mask, nbytes):
    """Vectorized ``pdep``: the low bits of ``counter[i]`` placed, in
    order, at the set bits of ``mask[i]`` — one byte-table gather per
    byte of the universe (the top byte needs no masking: both operands
    are below 256 there)."""
    top = nbytes - 1
    out = None
    for b in range(nbytes):
        shift = 8 * b
        byte = mask >> shift if b else mask
        if b < top:
            byte = byte & 255
            piece = _PDEP8[(byte << 8) | (counter & 255)]
            counter = counter >> _POP8[byte]
        else:
            piece = _PDEP8[(byte << 8) | counter]
        out = piece if b == 0 else out | (piece << shift)
    return out


def _or_tables(adjacency, nbytes):
    """``tables[b][v]``: the OR of ``adjacency[8b + p]`` over the set
    bits ``p`` of the byte ``v`` — neighbour masks by byte lookups."""
    tables = np.zeros((nbytes, 256), np.int64)
    for bit, adj in enumerate(adjacency):
        row = tables[bit >> 3]
        half = 1 << (bit & 7)
        np.bitwise_or(row[:half], adj, out=row[half : 2 * half])
    return tables


def _neighbours(masks, tables, nbytes):
    out = tables[0][masks & 255 if nbytes > 1 else masks]
    for b in range(1, nbytes):
        byte = masks >> (8 * b)
        out |= tables[b][byte & 255 if b < nbytes - 1 else byte]
    return out


def _exactly_connected(masks, conjuncts):
    """Hypergraph connectivity of each mask: a conjunct joins the
    lowest bit's component only once all its aliases lie inside."""
    component = masks & -masks
    while True:
        grown = component
        for c in conjuncts:
            hit = ((masks & c) == c) & ((grown & c) != 0)
            grown = np.where(hit, grown | c, grown)
        if np.array_equal(grown, component):
            return component == masks
        component = grown


def _hyper_filter(csg, left, right, conjuncts):
    """The csgs, and csg–cmp pairs, that are valid in the hypergraph:
    every side exactly connected and each pair linked by a conjunct
    inside its union that touches both sides."""
    union = left | right
    linked = np.zeros(len(left), dtype=bool)
    for c in conjuncts:
        linked |= ((union & c) == c) & ((left & c) != 0) & ((right & c) != 0)
    keep = (
        linked
        & _exactly_connected(left, conjuncts)
        & _exactly_connected(right, conjuncts)
    )
    return csg[_exactly_connected(csg, conjuncts)], left[keep], right[keep]


def csg_cmp_universe(adjacency, conjunct_masks, allow_cross_products, on_level=None):
    """DPccp (Moerkotte & Neumann 2006) over int64 masks, level-synchronous.

    ``adjacency[i]`` is the OR of the conjunct masks touching bit ``i``
    (at most 63 bits).  Returns ``(subsets, left, right, offsets)``:
    the search space's subset universe (connected subsets, or every
    subset when cross products are allowed) in canonical order — by
    size, then by the sorted member list — and every valid unordered
    split, left side holding the subset's lowest bit, grouped by subset
    in universe order and by ascending left mask within a subset.
    ``left``/``right`` are *ranks* into ``subsets``; subset ``r``'s
    splits are rows ``offsets[r]:offsets[r + 1]``.

    Each state row is (owner, grown, neighbours, blocked): owner 0 marks
    a connected subset (csg) grown from its lowest bit, any other owner
    is the csg whose complement (cmp) the row grows.  One level emits
    every row, expands every row's frontier into its nonempty subsets by
    a vectorized bit-deposit (the frontier joins the blocked set below
    them — DPccp's dedup argument), and seeds each new csg's complements
    at its neighbours outside its prohibited prefix, so every csg–cmp
    pair is emitted exactly once.  When a conjunct spans three or more
    aliases the adjacency graph only proposes candidates, and exact
    hypergraph connectivity plus a linking conjunct filter them.  The
    cross-products space deposits every split of every subset directly.

    ``on_level(units)`` is polled once per level with twice the splits
    the level emitted — the logical joins they become.
    """
    n = len(adjacency)
    nbytes = max((n + 7) // 8, 1)
    if allow_cross_products:
        return _cross_universe(n, nbytes, on_level)
    hyper = any(c.bit_count() > 2 for c in conjunct_masks)
    tables = _or_tables(adjacency, nbytes)
    adj = np.array(adjacency, dtype=np.int64)
    bits = _BITS[:n]
    through = _LOW_ONES[1 : n + 1]  # bit p and every bit below it

    def with_seeds(owner, grown, nbr, blocked, k):
        # Complement seeds of the csg rows (the first k): one per
        # neighbour v outside the csg's prohibited prefix X (the bits
        # below it, and itself), blocking X and the seeds at or below v.
        # Appended, so the csg rows stay in front.
        g = grown[:k]
        prefix = g | (g - 1)
        cand = nbr[:k] & ~prefix
        row, bit = (cand[:, None] & bits).nonzero()
        return (
            np.concatenate((owner, g[row])),
            np.concatenate((grown, bits[bit])),
            np.concatenate((nbr, adj[bit])),
            np.concatenate((blocked, prefix[row] | (through[bit] & cand[row]))),
        )

    # Rows [0, k) are csgs (owner 0), the rest csg–cmp pairs; a row's
    # children keep its side of that boundary.
    k = n
    owner, grown, nbr, blocked = with_seeds(np.zeros(n, np.int64), bits, adj, through, k)
    csgs, lefts, rights = [], [], []
    while True:
        level = grown[:k], owner[k:], grown[k:]
        if hyper:
            level = _hyper_filter(*level, conjunct_masks)
        csgs.append(level[0])
        lefts.append(level[1])
        rights.append(level[2])
        if on_level is not None:
            on_level(2 * len(level[1]))
        # children: every nonempty subset of each row's frontier, which
        # joins the blocked set below them
        frontier = nbr & ~(blocked | grown)
        counts = _LOW_ONES[np.bitwise_count(frontier)]
        ends = counts.cumsum()
        total = int(ends[-1])
        if not total:
            break
        k = int(ends[k - 1]) if k else 0
        parent = np.arange(len(counts)).repeat(counts)
        front = frontier[parent]
        sub = _deposit(np.arange(1, total + 1) - (ends - counts)[parent], front, nbytes)
        owner, grown, nbr, blocked = with_seeds(
            owner[parent],
            grown[parent] | sub,
            nbr[parent] | _neighbours(sub, tables, nbytes),
            blocked[parent] | front,
            k,
        )
    # rebinding the names frees the per-level pieces before the sort
    csgs, lefts, rights = (np.concatenate(parts) for parts in (csgs, lefts, rights))
    return _canonical(csgs, lefts, rights, nbytes)


def _universe_order(masks, nbytes):
    """Canonical universe order: by size, then by the ascending member
    list — the lowest differing bit decides, so by descending
    bit-reversed value (reversed per byte, bytes in reverse order)."""
    reverse = _REV8[masks & 255 if nbytes > 1 else masks] << (8 * nbytes - 8)
    for b in range(1, nbytes):
        byte = masks >> (8 * b)
        if b < nbytes - 1:
            byte = byte & 255
        reverse |= _REV8[byte] << (8 * (nbytes - 1 - b))
    return np.lexsort((~reverse, np.bitwise_count(masks)))


def _canonical(csgs, left, right, nbytes):
    """Sort the universe canonically and the splits by (subset rank,
    left mask); every mask becomes its subset rank by a ``searchsorted``
    over the value-sorted universe."""
    subsets = csgs[_universe_order(csgs, nbytes)]
    by_value = subsets.argsort()
    ascending = subsets[by_value]
    union_rank = by_value[ascending.searchsorted(left | right)]
    left_pos = ascending.searchsorted(left)
    # A left side's position in value order is monotone in its mask, so
    # (subset rank, left mask) order is one int64 key's order (two
    # fields of ``width`` bits: any universe that fits in memory).
    width = len(subsets).bit_length()
    order = ((union_rank << width) | left_pos).argsort()
    offsets = np.zeros(len(subsets) + 1, np.int64)
    np.bincount(union_rank, minlength=len(subsets)).cumsum(out=offsets[1:])
    right_rank = by_value[ascending.searchsorted(right[order])]
    return subsets, by_value[left_pos[order]], right_rank, offsets


def _cross_universe(n, nbytes, on_level):
    """Every subset, and every split of it: the deposit of ``0 .. 2^(k-1)
    - 2`` over a k-subset's bits above its lowest, one level per size."""
    masks = np.arange(1, 1 << n, dtype=np.int64)
    subsets = masks[_universe_order(masks, nbytes)]
    sizes = np.bitwise_count(subsets)
    counts = _LOW_ONES[sizes - 1]
    offsets = np.zeros(len(subsets) + 1, np.int64)
    counts.cumsum(out=offsets[1:])
    bounds = sizes.searchsorted(np.arange(2, n + 2)).tolist()
    lefts, rights = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo, hi in zip(bounds, bounds[1:]):
        level = counts[lo:hi]
        parent = np.arange(lo, hi).repeat(level)
        k = np.arange(len(parent)) - (offsets[lo:hi] - offsets[lo])[parent - lo]
        subset = subsets[parent]
        low = subset & -subset
        left = low | _deposit(k, subset ^ low, nbytes)
        lefts.append(left)
        rights.append(subset ^ left)
        if on_level is not None:
            on_level(2 * len(left))
    # the universe is every mask, so a mask's rank is its position in
    # the order: invert the permutation
    rank = np.empty(len(subsets) + 1, np.int64)
    rank[subsets] = np.arange(len(subsets))
    return subsets, rank[np.concatenate(lefts)], rank[np.concatenate(rights)], offsets
