"""Vectorized join-group counting (numpy-accelerated layer DP).

Reference semantics live in :mod:`.counting`; this module computes the
identical per-group aggregates with the per-split Python loop replaced by
columnar array passes, one per subset-size layer:

* cut key identity: ``FROM[l] & TO[r]`` word rows and the decoded key
  byte rows are interned by a mix-hash + first-occurrence-representative
  scheme whose result is *verified exactly* (every row is compared to its
  representative; a hash collision falls back to the reference pass, so
  correctness never rests on the hash);
* interned key rows are ranked by a big-endian word lexsort — 0-padded
  byte rows sort prefix-first, so the extensions of key ``q`` form the
  contiguous rank interval ``[rank(q), hi(q))``, with ``hi`` computed in
  one LCP sweep;
* ``(group, kid)`` requirement and delivery *slots* pack into int64 keys;
  order queries become prefix-sum differences over each group's slot
  segment;
* the bigint recurrences themselves (counts overflow ``float64`` and
  ``int64`` by hundreds of digits) run on ``object``-dtype arrays —
  numpy's C loops over arbitrary-precision Python ints.

Everything the rest of the engine consumes (``A``, ``nonenf``, ``sord``,
the ordered requirement registry, sort counts) is exported in the same
shape the reference pass produces — as lazy array-backed views, so a
count-only run pays for no Python-level dict materialization.  The int64
per-split columns (sides, cut kids and query slots per orientation) are
laid out once more per logical join and stay alive behind
``state.split_columns``: the unranking tables slice them per group
instead of re-deriving them pair by pair.  The turbo
path requires the default rule configuration (no index-lookup joins,
paper-faithful redundant sorts); ablations fall back to the reference
pass.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PlanSpaceError
from repro.kernel.vector import (
    HashCollision as _HashCollision,
    byte_words as _byte_words,
    decode_bit_rows,
    intern_rows as _intern_rows,
    lex_rank_rows,
    prefix_intervals,
    sorted_unique,
)
from repro.optimizer.rules import join_rule_arity, scan_implementations
from repro.planspace.implicit.counting import JoinColumns

__all__ = ["turbo_rels_pass"]

#: turbo needs the full 2^n FROM/TO tables in word form
_MAX_UNIVERSE_BITS = 18


def turbo_rels_pass(state, extra_pairs: list[tuple[int, bytes]]) -> bool:
    """Fill ``state``'s relation-group aggregates; False if not applicable.

    ``extra_pairs`` are the StreamAggregate/ORDER BY requirements that
    target relation-set groups, as ``(mask, packed column bytes)`` —
    registered after all merge requirements, like the materializer's
    enforcer pass.
    """
    if state.layout.universe.size > _MAX_UNIVERSE_BITS:
        return False
    if not hasattr(np, "bitwise_count"):  # pragma: no cover - numpy < 2.0
        return False
    try:
        _turbo_rels_pass(state, extra_pairs)
        return True
    except _HashCollision:  # pragma: no cover - ~2^-64 per pair of rows
        return False


def _turbo_rels_pass(state, extra_pairs) -> None:
    layout = state.layout
    config = state.config
    edges = state.edges
    scope = getattr(state, "scope", None)
    checkpoint = scope.checkpoint if scope is not None else None
    plain_keys, merge = join_rule_arity(config, True)
    plain_cross, _ = join_rule_arity(config, False)
    enforcers = config.enable_sort_enforcers

    # ------------------------------------------------------------------
    # flatten splits, gid-major (the materializer's registration order)
    # ------------------------------------------------------------------
    # Columnar logical store: gather the child-gid columns directly
    # (gid-major via per-group ranges) and map gids to masks through one
    # lookup table — no per-split Python tuples are ever built.
    store = layout.store
    split_counts = []
    first_rows = []  # each group's first row in the store's columns
    initials = []  # groups seeded by the initial plan: (left mask, splits lo, hi)
    expr_range: dict[int, tuple[int, int]] = {}  # gid -> its logical joins
    M = 0
    for g in layout.join_groups():
        count = store.split_count(g.gid)
        if count:
            split_counts.append(count)
            first_rows.append(store.split_rows(g.gid)[0])
            expr_range[g.gid] = (2 * M, 2 * (M + count))
            if g.initial is not None:
                initials.append((g.initial[0], M, M + count))
            M += count
    mask_lut = np.fromiter(
        (g.mask if g.mask is not None else 0 for g in layout.groups),
        np.int64,
        count=len(layout.groups),
    )
    if M:
        counts = np.array(split_counts)
        shift = np.array(first_rows) - (np.cumsum(counts) - counts)
        gather = np.arange(M) + np.repeat(shift, counts)
        sl_col = np.frombuffer(store.sl, dtype=np.intc)
        sr_col = np.frombuffer(store.sr, dtype=np.intc)
        Ls = mask_lut[sl_col[gather]]
        Rs = mask_lut[sr_col[gather]]
    else:
        Ls = np.zeros(0, np.int64)
        Rs = np.zeros(0, np.int64)
    Ss = Ls | Rs
    # A seeded group emits its initial left-deep join first.  Locate it:
    # (the group's first split, the split holding the join, whether the
    # join is that split's (l, r) orientation)
    seeded = []
    for left, lo, hi in initials:
        forward = Ls[lo:hi] == left
        at = int(np.flatnonzero(forward | (Rs[lo:hi] == left))[0])
        seeded.append((lo, lo + at, bool(forward[at])))

    # ------------------------------------------------------------------
    # cut bitmasks as uint64 word rows; intern and decode
    # ------------------------------------------------------------------
    E = edges.edge_count
    W = max(1, (E + 63) // 64)
    full = layout.universe.full_mask

    def words(table):
        buf = b"".join(v.to_bytes(W * 8, "little") for v in table)
        return np.frombuffer(buf, dtype="<u8").reshape(len(table), W)

    # dense FROM/TO union tables, one vectorized OR sweep per alias bit
    from_bits_w = words(edges.from_bits)
    to_bits_w = words(edges.to_bits)
    FROM_w = np.zeros((full + 1, W), np.uint64)
    TO_w = np.zeros((full + 1, W), np.uint64)
    has_bit = (
        np.arange(full + 1)[:, None] >> np.arange(layout.universe.size)
    ) & 1
    for i in range(layout.universe.size):
        sel = has_bit[:, i] == 1
        FROM_w[sel] |= from_bits_w[i]
        TO_w[sel] |= to_bits_w[i]
    del has_bit
    if checkpoint is not None:
        checkpoint("implicit.count", int(M))
    ebits = np.concatenate(
        [FROM_w[Ls] & TO_w[Rs], FROM_w[Rs] & TO_w[Ls]], axis=0
    )
    eb_ids, eb_rep = _intern_rows(ebits)
    u_ebits = ebits[eb_rep]
    has_keys = u_ebits.any(axis=1)[eb_ids[:M]]
    U = len(u_ebits)

    # decode each unique cut into its padded left/right column rows
    lcol_lut = np.frombuffer(edges.left_col, dtype=np.uint8)
    rcol_lut = np.frombuffer(edges.right_col, dtype=np.uint8)
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

    # ------------------------------------------------------------------
    # the kid universe: cut keys, extra requirements, leaf deliveries
    # ------------------------------------------------------------------
    leaf_pairs: list[tuple[int, bytes]] = []  # (mask, seq), delivery count 1
    leaf_nonenf: dict[int, int] = {}
    for mask in layout.subset_masks:
        if mask & (mask - 1):
            break  # universes are size-sorted: leaves come first
        group = layout.group_for_mask(mask)
        scans = scan_implementations(group.op, state.catalog, config)
        leaf_nonenf[mask] = len(scans)
        state.physical_count += len(scans)
        for scan in scans:
            order = scan.delivered_order()
            if order:
                leaf_pairs.append((mask, edges.seq_bytes(order)))

    loose_seqs = [seq for _mask, seq in extra_pairs]
    loose_seqs += [seq for _mask, seq in leaf_pairs]
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
    raw_ids, raw_rep = _intern_rows(_byte_words(all_rows))
    kid_mat_raw = all_rows[raw_rep]
    K = len(kid_mat_raw)

    # lexicographic kid ranks: big-endian word lexsort == byte order, and
    # 0-padding sorts a key directly before its extensions
    order, rank_of_raw = lex_rank_rows(kid_mat_raw)
    kid_mat = kid_mat_raw[order]
    kid_ids = rank_of_raw[raw_ids]  # every input row -> lex-ranked kid
    kid_lengths = (kid_mat != 0).sum(axis=1).astype(np.int64)

    lkid_of_eb = kid_ids[:U]
    rkid_of_eb = kid_ids[U : 2 * U]
    loose_kids = kid_ids[2 * U :]
    extra_kids = loose_kids[: len(extra_pairs)]
    leaf_kids = loose_kids[len(extra_pairs) :]

    # prefix intervals: hi_rank[k] = first kid after k that does not
    # extend k — one LCP sweep + monotonic stack over the sorted rows
    hi_rank = prefix_intervals(kid_mat, kid_lengths, maxlen)

    # per-split kid roles (valid where has_keys)
    lk_lr = lkid_of_eb[eb_ids[:M]]
    rk_lr = rkid_of_eb[eb_ids[:M]]
    lk_rl = lkid_of_eb[eb_ids[M:]]
    rk_rl = rkid_of_eb[eb_ids[M:]]

    # ------------------------------------------------------------------
    # requirement registry and slot universes
    # ------------------------------------------------------------------
    KS = K + 2
    extra_packed = np.array(
        [mask * KS + kid for (mask, _), kid in zip(extra_pairs, extra_kids)],
        np.int64,
    )
    reg_keys = []  # per split: its four packed (mask, kid) registrations
    if merge and M:
        reg_keys = [Ls * KS + lk_lr, Rs * KS + rk_lr]  # (l, r) orientation
        reg_keys += [Rs * KS + lk_rl, Ls * KS + rk_rl]  # (r, l)
    req_packed = sorted_unique(
        np.concatenate([key[has_keys] for key in reg_keys] + [extra_packed])
    )
    NQ = len(req_packed)
    req_masks = req_packed // KS
    req_kids = req_packed % KS
    full = layout.universe.full_mask
    nreq_by_mask = np.bincount(req_masks, minlength=full + 1)

    # delivered slots: merge deliveries, sort deliveries, leaf deliveries
    leaf_packed = np.array(
        [mask * KS + kid for (mask, _), kid in zip(leaf_pairs, leaf_kids)],
        np.int64,
    )
    d_parts = [leaf_packed]
    if merge and M:
        deliv_lr, deliv_rl = Ss * KS + lk_lr, Ss * KS + lk_rl
        d_parts += [deliv_lr[has_keys], deliv_rl[has_keys]]
    if enforcers:
        d_parts.append(req_packed)
    D_packed = sorted_unique(np.concatenate(d_parts))
    ND = len(D_packed)
    DS = np.empty(ND, dtype=object)
    DS[:] = 0

    # The registration stream in query-slot coordinates, materializer
    # emission order: four per split, a seeded group's left-deep join
    # rolled to the front of its segment, the extra requirements last.
    # Keyless splits register nothing: they point at a spare slot.
    stream = np.searchsorted(req_packed, extra_packed)
    if merge and M:
        d_lr = np.searchsorted(D_packed, deliv_lr)
        d_rl = np.searchsorted(D_packed, deliv_rl)
        q_l_lr, q_r_lr, q_r_rl, q_l_rl = (
            np.searchsorted(req_packed, key) for key in reg_keys
        )
        regs = np.stack([q_l_lr, q_r_lr, q_r_rl, q_l_rl], axis=1)
        regs[~has_keys] = NQ
        regs = regs.reshape(-1)
        for lo, at, forward in seeded:
            hi = 4 * at + (2 if forward else 4)
            regs[4 * lo : hi] = np.roll(regs[4 * lo : hi], 2)
        stream = np.concatenate([regs, stream])
    first = np.empty(NQ + 1, np.int64)  # per slot: its first registration
    first[stream[::-1]] = np.arange(len(stream) - 1, -1, -1)
    # slots are mask-major; within each mask, first registered first
    by_first = np.argsort(req_masks * len(stream) + first[:NQ])

    # query ranges in D coordinates (a group's slots are contiguous and
    # kid-rank ordered, because the packed key is mask-major, rank-minor);
    # with enforcers every requirement is itself a delivered slot
    q_lo_D = req_slot_in_D = np.searchsorted(D_packed, req_packed)
    q_hi_D = np.searchsorted(D_packed, req_masks * KS + hi_rank[req_kids])
    QS = np.empty(NQ, dtype=object)
    QS[:] = 0

    # ------------------------------------------------------------------
    # bottom-up layer DP
    # ------------------------------------------------------------------
    A_obj = np.empty(full + 1, dtype=object)
    NE_obj = np.empty(full + 1, dtype=object)
    req_sizes = np.bitwise_count(req_masks.astype(np.uint64)).astype(np.int64)
    split_sizes = np.bitwise_count(Ss.astype(np.uint64)).astype(np.int64)

    def answer_queries(q_sel):
        """Fill QS for the query slots ``q_sel`` (one finalized layer)."""
        if not len(q_sel):
            return
        # req_packed is sorted mask-major, so the layer's masks ascend:
        # boundary detection replaces a hash unique
        sel_masks = req_masks[q_sel]
        seg_masks = sel_masks[
            np.concatenate([[0], np.flatnonzero(np.diff(sel_masks)) + 1])
        ]
        seg_lo = np.searchsorted(D_packed, seg_masks * KS)
        seg_hi = np.searchsorted(D_packed, (seg_masks + 1) * KS)
        seg_len = seg_hi - seg_lo
        total = int(seg_len.sum())
        if not total:
            return
        offsets = np.zeros(len(seg_masks), np.int64)
        np.cumsum(seg_len[:-1], out=offsets[1:])
        block = (
            np.arange(total)
            - np.repeat(offsets, seg_len)
            + np.repeat(seg_lo, seg_len)
        )
        prefix = np.empty(total + 1, dtype=object)
        prefix[0] = 0
        np.cumsum(DS[block], out=prefix[1:])
        seg_pos = np.searchsorted(seg_masks, sel_masks)
        base = offsets[seg_pos] - seg_lo[seg_pos]
        QS[q_sel] = prefix[base + q_hi_D[q_sel]] - prefix[base + q_lo_D[q_sel]]

    # layer 1: leaves
    for mask, nonenf in leaf_nonenf.items():
        nreq = int(nreq_by_mask[mask])
        A_obj[mask] = nonenf * (1 + nreq) if enforcers else nonenf
        NE_obj[mask] = nonenf
        if enforcers:
            state.physical_count += nreq
    if len(leaf_packed):
        np.add.at(DS, np.searchsorted(D_packed, leaf_packed), 1)
    layer_req = np.flatnonzero(req_sizes == 1)
    if enforcers and len(layer_req):
        # requirement slots are unique, so the buffered += is safe
        DS[req_slot_in_D[layer_req]] += NE_obj[req_masks[layer_req]]
    answer_queries(layer_req)

    for size in range(2, layout.universe.size + 1):
        if checkpoint is not None:
            checkpoint("implicit.count")
        sel = np.flatnonzero(split_sizes == size)
        if len(sel):
            ls, rs, ss = Ls[sel], Rs[sel], Ss[sel]
            hk = has_keys[sel]
            coeff = np.where(hk, 2 * plain_keys, 2 * plain_cross)
            contrib = A_obj[ls] * A_obj[rs] * coeff
            state.physical_count += int(coeff.sum())
            if merge:
                keyed = np.flatnonzero(hk)
                if len(keyed):
                    ksel = sel[keyed]
                    mc_lr = QS[q_l_lr[ksel]] * QS[q_r_lr[ksel]]
                    mc_rl = QS[q_r_rl[ksel]] * QS[q_l_rl[ksel]]
                    contrib[keyed] += mc_lr + mc_rl
                    np.add.at(DS, d_lr[ksel], mc_lr)
                    np.add.at(DS, d_rl[ksel], mc_rl)
                    state.physical_count += 2 * len(keyed)
            starts = np.concatenate([[0], np.flatnonzero(np.diff(ss)) + 1])
            group_masks = ss[starts]
            nonenf_g = np.add.reduceat(contrib, starts)
            if enforcers:
                nreq_g = nreq_by_mask[group_masks]
                A_obj[group_masks] = nonenf_g * (1 + nreq_g)
                state.physical_count += int(nreq_g.sum())
            else:
                A_obj[group_masks] = nonenf_g
            NE_obj[group_masks] = nonenf_g
        layer_req = np.flatnonzero(req_sizes == size)
        if enforcers and len(layer_req):
            DS[req_slot_in_D[layer_req]] += NE_obj[req_masks[layer_req]]
        answer_queries(layer_req)

    # ------------------------------------------------------------------
    # export: mask-keyed totals as dicts, the rest as lazy views
    # ------------------------------------------------------------------
    for mask in layout.subset_masks:
        state.A[mask] = A_obj[mask]
        state.nonenf[mask] = NE_obj[mask]
    state.keys.preload(kid_mat, kid_lengths)

    # The unranking tables' columns: one int64 entry per logical join,
    # group-major in local-id order — both orientations of every split
    # interleaved, a group's initial left-deep expression rotated to the
    # front.  Bigint operator counts are multiplied out per group, on
    # demand: no ``object`` array is retained beyond the DP's own.
    def both(lr, rl):
        out = np.empty(2 * M, np.int64)
        out[0::2] = lr
        out[1::2] = rl
        return out

    keyed = np.repeat(has_keys, 2)
    exprs = [  # left mask, right mask, left kid, right kid (-1: no keys)
        both(Ls, Rs),
        both(Rs, Ls),
        np.where(keyed, both(lk_lr, lk_rl), -1),
        np.where(keyed, both(rk_lr, rk_rl), -1),
    ]
    if merge and M:  # the QS slots of S(left, lkid) and S(right, rkid)
        exprs += [both(q_l_lr, q_r_rl), both(q_r_lr, q_l_rl)]
    for lo, at, forward in seeded:
        hi = 2 * at + (1 if forward else 2)
        for col in exprs:
            col[2 * lo : hi] = np.roll(col[2 * lo : hi], 1)

    def join_columns(group) -> JoinColumns:
        """``CountState.join_columns`` of a turbo-backed state."""
        lo, hi = expr_range[group.gid]
        left, right, lkid, rkid, *slots = (col[lo:hi] for col in exprs)
        keyed = lkid >= 0
        plain = A_obj[left] * A_obj[right]
        starts = np.zeros(hi - lo + 1, np.int64)
        np.cumsum(np.where(keyed, plain_keys + merge, plain_cross), out=starts[1:])
        counts = np.empty(starts[-1], dtype=object)
        at, at_keyed = starts[:-1], starts[:-1][keyed]
        for k in range(plain_cross):
            counts[at + k] = plain
        for k in range(plain_cross, plain_keys):
            counts[at_keyed + k] = plain[keyed]
        if merge:
            counts[at_keyed + plain_keys] = QS[slots[0][keyed]] * QS[slots[1][keyed]]
        columns = (left, right, lkid, rkid, starts, counts)
        return JoinColumns(*(col.tolist() for col in columns))

    state.split_columns = join_columns
    state.sord = _SordView(KS, req_packed, QS)
    state.required = _RequiredView(req_kids[by_first], nreq_by_mask)
    state.sort_counts = (
        _SortCountsView(state.required, state.nonenf) if enforcers else {}
    )


class _SordView:
    """Lazy ``(mask, kid) -> S(g, q)`` mapping over the query-slot arrays."""

    def __init__(self, KS, req_packed, QS):
        self._KS = KS
        self._req_packed = req_packed
        self._QS = QS

    def __getitem__(self, key):
        mask, kid = key
        if kid >= self._KS - 2:  # overflow kid: cannot be a turbo slot
            raise KeyError(key)
        packed = mask * self._KS + kid
        pos = np.searchsorted(self._req_packed, packed)
        if pos >= len(self._req_packed) or self._req_packed[pos] != packed:
            raise KeyError(key)
        return self._QS[pos]


class _RequiredView:
    """``mask -> ordered kid list`` (global first-registration order),
    sliced out of the mask-major kid column by each mask's slot count."""

    def __init__(self, kids, nreq_by_mask):
        self._kids = kids
        self._ends = np.cumsum(nreq_by_mask)

    def get(self, mask, default=None):
        ends = self._ends
        return self._kids[ends[mask - 1] : ends[mask]].tolist() or default


class _SortCountsView:
    """``mask -> per-sort counts`` — with paper-faithful redundant sorts
    every enforcer of a group counts its non-enforcer total."""

    def __init__(self, required, nonenf):
        self._required = required
        self._nonenf = nonenf

    def __getitem__(self, mask):
        kids = self._required.get(mask)
        if kids is None:
            raise KeyError(mask)
        return [self._nonenf[mask]] * len(kids)

    def get(self, mask, default=None):
        try:
            return self[mask]
        except KeyError:
            return default
