"""The relation-group count pass: one vectorized layer DP.

Every relation-set group's aggregates (``A``, ``nonenf``, ``sord``, the
ordered requirement registry, sort counts, the virtual operator census)
come out of one bottom-up pass per subset-size layer — the recurrence
:mod:`.counting` describes, with the per-split work done as columnar
array operations:

* groups are addressed by gid — the logical store's ``sl``/``sr``
  columns hold child gids already — so every per-group array is as long
  as the layout, never ``2^n``: each group's ``FROM``/``TO`` edge unions
  are one :func:`~repro.kernel.vector.union_words_by_mask` call over the
  group masks, and every universe up to ``MAX_RELATIONS`` is served;
* cut key identity: the ``FROM[l] & TO[r]`` word rows, the extra
  requirements and the leaf deliveries go through the one cut-key table
  (:func:`~repro.kernel.vector.cut_key_table`, which the exact path's
  emitter shares), interned exactly by sorting (no hash, so no collision
  path); a kid is its byte-lexicographic rank, and 0-padded rows sort a
  key directly before its extensions, so the extensions of key ``q``
  form the contiguous rank interval ``[rank(q), hi(q))``, with ``hi``
  computed in one LCP sweep;
* ``(gid, kid)`` requirement and delivery *slots* pack into group-major
  int64 keys; order queries become prefix-sum differences over each
  group's slot segment;
* an index-lookup join contributes ``matches × A(outer)`` per keyed
  orientation whose inner side is one relation; without redundant sorts
  a layer answers its queries once over the non-enforcer deliveries
  (each ``Sort`` counts the alternatives not already ordered its way)
  and once more after its sorts are delivered;
* the bigint recurrences themselves (counts overflow ``float64`` and
  ``int64`` by hundreds of digits) run on ``object``-dtype arrays —
  numpy's C loops over arbitrary-precision Python ints.

The state gets mask-keyed ``A``/``nonenf`` dicts and lazy array-backed
views for the rest, so a count-only run pays for no per-requirement
Python objects.  The int64 per-split columns (sides, cut kids, query
slots and index-lookup matches per orientation) are laid out once more
as one row per logical join and stay alive behind
``state.join_columns``: the unranking tables read a group's block of
rows as lists.  The key table's extension intervals stay on the state
too (``state.kid_hi``): the tables decide order satisfaction with them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.kernel.vector import (
    cut_key_table,
    int_words,
    prefix_intervals,
    sorted_unique,
    union_words_by_mask,
)
from repro.optimizer.rules import (
    index_lookup_matches,
    join_rule_arity,
    scan_implementations,
)

__all__ = ["JoinColumns", "turbo_rels_pass"]


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


def turbo_rels_pass(
    state, extra_pairs: list[tuple[int, bytes]], tower_seqs: list[bytes]
) -> None:
    """Fill ``state``'s relation-group aggregates.

    ``extra_pairs`` are the StreamAggregate/ORDER BY requirements that
    target relation-set groups, as ``(mask, packed column bytes)`` —
    registered after all merge requirements, like the materializer's
    enforcer pass.  ``tower_seqs`` are the orders the unary tower
    requires or delivers: they only join the key table, so that no kid
    is interned after this pass.
    """
    layout = state.layout
    config = state.config
    edges = state.edges
    scope = state.scope
    checkpoint = scope.checkpoint if scope is not None else None

    def poll() -> None:
        # between the whole-universe sorts below: each is a large share
        # of a big query's pass, so none runs unpolled after another
        if checkpoint is not None:
            checkpoint("implicit.count")

    plain_keys, merge = join_rule_arity(config, True)
    plain_cross, _ = join_rule_arity(config, False)
    enforcers = config.enable_sort_enforcers
    gid_by_mask = layout.gid_by_mask
    G = len(layout.groups)
    mask_lut = np.fromiter(
        (g.mask if g.mask is not None else 0 for g in layout.groups),
        np.int64,
        count=G,
    )

    # ------------------------------------------------------------------
    # flatten splits, gid-major (the materializer's registration order)
    # ------------------------------------------------------------------
    # Columnar logical store: gather the child-gid columns directly
    # (gid-major via per-group ranges) — no per-split Python tuples are
    # ever built.
    store = layout.store
    split_counts = []
    first_rows = []  # each group's first row in the store's columns
    join_gids = []
    initials = []  # groups seeded by the initial plan: (left gid, lo, hi)
    expr_range: dict[int, tuple[int, int]] = {}  # gid -> its logical joins
    M = 0
    for g in layout.join_groups():
        count = store.split_count(g.gid)
        if count:
            split_counts.append(count)
            first_rows.append(store.split_rows(g.gid)[0])
            join_gids.append(g.gid)
            expr_range[g.gid] = (2 * M, 2 * (M + count))
            if g.initial is not None:
                initials.append((gid_by_mask[g.initial[0]], M, M + count))
            M += count
    if M:
        counts = np.array(split_counts)
        shift = np.array(first_rows) - (np.cumsum(counts) - counts)
        gather = np.arange(M) + np.repeat(shift, counts)
        Ls = np.frombuffer(store.sl, dtype=np.intc)[gather].astype(np.int64)
        Rs = np.frombuffer(store.sr, dtype=np.intc)[gather].astype(np.int64)
        Ss = np.repeat(np.array(join_gids, np.int64), counts)
    else:
        Ls = Rs = Ss = np.zeros(0, np.int64)
    # A seeded group emits its initial left-deep join first.  Locate it:
    # (the group's first split, the split holding the join, whether the
    # join is that split's (l, r) orientation)
    seeded = []
    for left, lo, hi in initials:
        forward = Ls[lo:hi] == left
        at = int(np.flatnonzero(forward | (Rs[lo:hi] == left))[0])
        seeded.append((lo, lo + at, bool(forward[at])))

    # ------------------------------------------------------------------
    # cut bitmasks as uint64 word rows, both orientations
    # ------------------------------------------------------------------
    E = edges.edge_count
    W = max(1, (E + 63) // 64)
    n_alias = layout.universe.size
    FROM = union_words_by_mask(int_words(edges.from_bits, W), mask_lut, n_alias)
    TO = union_words_by_mask(int_words(edges.to_bits, W), mask_lut, n_alias)
    if checkpoint is not None:
        checkpoint("implicit.count", int(M))
    ebits = np.concatenate([FROM[Ls] & TO[Rs], FROM[Rs] & TO[Ls]], axis=0)

    # ------------------------------------------------------------------
    # the kid universe: cut keys, extra requirements, leaf deliveries
    # ------------------------------------------------------------------
    leaf_pairs: list[tuple[int, bytes]] = []  # (gid, seq), delivery count 1
    leaf_nonenf: dict[int, int] = {}
    for mask in layout.subset_masks:
        if mask & (mask - 1):
            break  # universes are size-sorted: leaves come first
        gid = gid_by_mask[mask]
        scans = scan_implementations(layout.group(gid).op, state.catalog, config)
        leaf_nonenf[gid] = len(scans)
        state.physical_count += len(scans)
        for scan in scans:
            order = scan.delivered_order()
            if order:
                leaf_pairs.append((gid, edges.seq_bytes(order)))

    # one lex-ranked table: row = kid = byte-lexicographic rank, the left
    # and right kid of every cut row, and the kid of every loose sequence
    loose_seqs = [seq for _mask, seq in extra_pairs]
    loose_seqs += [seq for _gid, seq in leaf_pairs]
    loose_seqs += tower_seqs
    kid_mat, kid_lengths, left_kids, right_kids, loose_kids = cut_key_table(
        ebits,
        np.frombuffer(edges.left_col, dtype=np.uint8),
        np.frombuffer(edges.right_col, dtype=np.uint8),
        loose_seqs,
        on_block=poll,
    )
    poll()
    K = len(kid_mat)
    state.keys.preload(kid_mat, kid_lengths, loose_seqs, loose_kids)
    has_keys = kid_lengths[left_kids[:M]] > 0
    extra_kids = loose_kids[: len(extra_pairs)]
    leaf_kids = loose_kids[len(extra_pairs) : len(extra_pairs) + len(leaf_pairs)]

    # prefix intervals: hi_rank[k] = first kid after k that does not
    # extend k — one LCP sweep + monotonic stack over the sorted rows.
    # The state keeps it: kid d satisfies kid q iff q <= d < hi_rank[q]
    hi_rank = prefix_intervals(kid_mat, kid_lengths, kid_mat.shape[1])
    state.kid_hi = hi_rank
    poll()

    # per-split kid roles (valid where has_keys)
    lk_lr, lk_rl = left_kids[:M], left_kids[M:]
    rk_lr, rk_rl = right_kids[:M], right_kids[M:]

    # index-lookup joins per orientation, (l, r) then (r, l): the inner
    # side is the right one
    KS = K + 2
    if config.enable_index_nl_join:
        matches = index_lookup_matches(
            state.catalog,
            state.keys,
            lambda gid: layout.group(gid).op.table,
            np.concatenate([Rs, Ls]),
            np.concatenate([rk_lr, rk_rl]),
            np.concatenate([has_keys, has_keys]),
            mask_lut,
        )
    else:
        matches = np.zeros(2 * M, np.int64)
    m_lr, m_rl = matches[:M], matches[M:]

    # ------------------------------------------------------------------
    # requirement registry and slot universes
    # ------------------------------------------------------------------
    extra_packed = np.array(
        [
            gid_by_mask[mask] * KS + kid
            for (mask, _), kid in zip(extra_pairs, extra_kids)
        ],
        np.int64,
    )
    reg_keys = []  # per split: its four packed (gid, kid) registrations
    if merge and M:
        reg_keys = [Ls * KS + lk_lr, Rs * KS + rk_lr]  # (l, r) orientation
        reg_keys += [Rs * KS + lk_rl, Ls * KS + rk_rl]  # (r, l)
    req_packed = sorted_unique(
        np.concatenate([key[has_keys] for key in reg_keys] + [extra_packed])
    )
    NQ = len(req_packed)
    req_gids = req_packed // KS
    req_kids = req_packed % KS
    nreq_by_gid = np.bincount(req_gids, minlength=G)

    # delivered slots: merge deliveries, sort deliveries, leaf deliveries
    leaf_packed = np.array(
        [gid * KS + kid for (gid, _), kid in zip(leaf_pairs, leaf_kids)],
        np.int64,
    )
    d_parts = [leaf_packed]
    if merge and M:
        deliv_lr, deliv_rl = Ss * KS + lk_lr, Ss * KS + lk_rl
        d_parts += [deliv_lr[has_keys], deliv_rl[has_keys]]
    if enforcers:
        d_parts.append(req_packed)
    D_packed = sorted_unique(np.concatenate(d_parts))
    poll()
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
    # slots are group-major; within each group, first registered first
    by_first = np.argsort(req_gids * len(stream) + first[:NQ])
    poll()

    # query ranges in D coordinates (a group's slots are contiguous and
    # kid-rank ordered, because the packed key is gid-major, rank-minor);
    # with enforcers every requirement is itself a delivered slot
    q_lo_D = req_slot_in_D = np.searchsorted(D_packed, req_packed)
    q_hi_D = np.searchsorted(D_packed, req_gids * KS + hi_rank[req_kids])
    QS = np.empty(NQ, dtype=object)
    QS[:] = 0
    SC = np.empty(NQ, dtype=object)  # per requirement slot: its Sort's count

    # ------------------------------------------------------------------
    # bottom-up layer DP
    # ------------------------------------------------------------------
    A_obj = np.empty(G, dtype=object)
    NE_obj = np.empty(G, dtype=object)
    req_sizes = np.bitwise_count(mask_lut[req_gids]).astype(np.int64)
    split_sizes = np.bitwise_count(mask_lut[Ss]).astype(np.int64)

    def answer_queries(q_sel):
        """Fill QS for the query slots ``q_sel`` (one finalized layer)."""
        if not len(q_sel):
            return
        # req_packed is sorted gid-major, so the layer's gids ascend:
        # boundary detection replaces a hash unique
        sel_gids = req_gids[q_sel]
        seg_gids = sel_gids[
            np.concatenate([[0], np.flatnonzero(np.diff(sel_gids)) + 1])
        ]
        seg_lo = np.searchsorted(D_packed, seg_gids * KS)
        seg_hi = np.searchsorted(D_packed, (seg_gids + 1) * KS)
        seg_len = seg_hi - seg_lo
        total = int(seg_len.sum())
        if not total:
            return
        offsets = np.zeros(len(seg_gids), np.int64)
        np.cumsum(seg_len[:-1], out=offsets[1:])
        block = (
            np.arange(total)
            - np.repeat(offsets, seg_len)
            + np.repeat(seg_lo, seg_len)
        )
        prefix = np.empty(total + 1, dtype=object)
        prefix[0] = 0
        np.cumsum(DS[block], out=prefix[1:])
        seg_pos = np.searchsorted(seg_gids, sel_gids)
        base = offsets[seg_pos] - seg_lo[seg_pos]
        QS[q_sel] = prefix[base + q_hi_D[q_sel]] - prefix[base + q_lo_D[q_sel]]

    def finish_layer(gids, nonenf, size):
        """Store one layer's totals, deliver its sorts, answer its queries."""
        NE_obj[gids] = nonenf
        layer_req = np.flatnonzero(req_sizes == size)
        if not enforcers:
            A_obj[gids] = nonenf
            answer_queries(layer_req)
            return
        state.physical_count += len(layer_req)  # one Sort per requirement
        owners = req_gids[layer_req]
        if state.include_redundant_sorts:
            SC[layer_req] = NE_obj[owners]
            A_obj[gids] = nonenf * (1 + nreq_by_gid[gids])
        else:
            answer_queries(layer_req)  # S(g, q) over the non-enforcers
            SC[layer_req] = NE_obj[owners] - QS[layer_req]
            A_obj[gids] = nonenf
            np.add.at(A_obj, owners, SC[layer_req])
        # requirement slots are unique, so the buffered += is safe
        DS[req_slot_in_D[layer_req]] += SC[layer_req]
        answer_queries(layer_req)

    # layer 1: leaves
    leaf_gids = np.fromiter(leaf_nonenf, np.int64, count=len(leaf_nonenf))
    leaf_counts = np.empty(len(leaf_gids), dtype=object)
    leaf_counts[:] = list(leaf_nonenf.values())
    if len(leaf_packed):
        np.add.at(DS, np.searchsorted(D_packed, leaf_packed), 1)
    finish_layer(leaf_gids, leaf_counts, 1)

    for size in range(2, n_alias + 1):
        poll()
        sel = np.flatnonzero(split_sizes == size)
        ls, rs, ss = Ls[sel], Rs[sel], Ss[sel]
        hk = has_keys[sel]
        coeff = np.where(hk, 2 * plain_keys, 2 * plain_cross)
        a_l, a_r = A_obj[ls], A_obj[rs]
        contrib = a_l * a_r * coeff
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
        inlj = np.flatnonzero(m_lr[sel] | m_rl[sel])
        if len(inlj):
            k_lr, k_rl = m_lr[sel[inlj]], m_rl[sel[inlj]]
            contrib[inlj] += k_lr * a_l[inlj] + k_rl * a_r[inlj]
            state.physical_count += int(k_lr.sum() + k_rl.sum())
        if len(sel):
            starts = np.concatenate([[0], np.flatnonzero(np.diff(ss)) + 1])
            finish_layer(ss[starts], np.add.reduceat(contrib, starts), size)
        else:
            finish_layer(ss, contrib, size)

    # ------------------------------------------------------------------
    # export: mask-keyed totals as dicts, the rest as lazy views
    # ------------------------------------------------------------------
    masks = layout.subset_masks
    rels_gids = [gid_by_mask[mask] for mask in masks]
    state.A = dict(zip(masks, A_obj[rels_gids].tolist()))
    state.nonenf = dict(zip(masks, NE_obj[rels_gids].tolist()))

    # The unranking tables' columns: one row per logical join, group-major
    # in local-id order — both orientations of every split interleaved, a
    # group's initial left-deep expression rotated to the front.  A group
    # reads its block of rows as lists with one ``tolist`` (a request
    # touches a tenth of a dense layout's rows, and exporting them all
    # as Python ints costs more than every group it serves); its bigint
    # operator counts are multiplied out by a plain loop over that block,
    # so no ``object`` array is retained beyond the DP's own.
    rows_by_expr = np.zeros((2 * M, 7), np.int64)
    l_masks, r_masks = mask_lut[Ls], mask_lut[Rs]
    columns = [  # left/right mask, left/right kid (-1: no keys), index lookups
        (l_masks, r_masks),
        (r_masks, l_masks),
        (np.where(has_keys, lk_lr, -1), np.where(has_keys, lk_rl, -1)),
        (np.where(has_keys, rk_lr, -1), np.where(has_keys, rk_rl, -1)),
        (m_lr, m_rl),
    ]
    if merge and M:  # the QS slots of S(left, lkid) and S(right, rkid);
        # without merge joins they stay 0 and are never read
        columns += [(q_l_lr, q_r_rl), (q_r_lr, q_l_rl)]
    for col, (lr, rl) in enumerate(columns):
        rows_by_expr[0::2, col] = lr
        rows_by_expr[1::2, col] = rl
    for lo, at, forward in seeded:
        block = rows_by_expr[2 * lo : 2 * at + (1 if forward else 2)]
        block[:] = np.roll(block, 1, axis=0)
    A = state.A
    S = QS.tolist()

    def join_columns(gid: int) -> JoinColumns:
        """The operator columns of join group ``gid``, rule order within
        each logical join: ``[nlj] [hash] [merge] [index-nl ...]``."""
        lo, hi = expr_range[gid]
        rows = rows_by_expr[lo:hi].tolist()
        counts: list = []
        starts = [0]
        for left, right, lkid, _rkid, n_inlj, q_left, q_right in rows:
            a_left = A[left]
            plain = a_left * A[right]
            if lkid < 0:
                counts += [plain] * plain_cross
            else:
                counts += [plain] * plain_keys
                if merge:
                    counts.append(S[q_left] * S[q_right])
                if n_inlj:  # ``matches`` copies of A(outer) after the merge
                    counts += [a_left] * n_inlj
            starts.append(len(counts))
        left, right, lkid, rkid, *_ = map(list, zip(*rows))
        return JoinColumns(left, right, lkid, rkid, starts, counts)

    state.join_columns = join_columns
    state.sord = _SordView(KS, req_packed, QS, gid_by_mask)
    bounds = np.zeros(G + 1, np.int64)
    np.cumsum(nreq_by_gid, out=bounds[1:])
    state.required = _PerGroupView(req_kids[by_first], bounds, gid_by_mask)
    state.sort_counts = (
        _PerGroupView(SC[by_first], bounds, gid_by_mask) if enforcers else {}
    )


class _SordView:
    """Lazy ``(mask, kid) -> S(g, q)`` mapping over the query-slot arrays."""

    def __init__(self, KS, req_packed, QS, gid_by_mask):
        self._KS = KS
        self._req_packed = req_packed
        self._QS = QS
        self._gid_by_mask = gid_by_mask

    def __getitem__(self, key):
        mask, kid = key
        if kid >= self._KS - 2:  # overflow kid: cannot be a slot
            raise KeyError(key)
        packed = self._gid_by_mask[mask] * self._KS + kid
        pos = np.searchsorted(self._req_packed, packed)
        if pos >= len(self._req_packed) or self._req_packed[pos] != packed:
            raise KeyError(key)
        return self._QS[pos]


class _PerGroupView:
    """``mask -> list`` over a group-major column: group ``g``'s entries
    (its required kids, or its sorts' counts, in first-registration
    order) are ``column[bounds[g]:bounds[g + 1]]``."""

    def __init__(self, column, bounds, gid_by_mask):
        self._column = column
        self._bounds = bounds.tolist()
        self._gid_by_mask = gid_by_mask

    def get(self, mask, default=None):
        gid = self._gid_by_mask[mask]
        bounds = self._bounds
        return self._column[bounds[gid] : bounds[gid + 1]].tolist() or default
