"""The two derivations of the physical description, before the pair record.

The exact emitter (``_emit_rows_vectorized`` in
:mod:`repro.memo.columnar`) and the count pass
(:func:`repro.planspace.implicit.turbo.turbo_rels_pass`) once each
derived the ordered-pair stream of a logical store on their own: both
orientations of every split with each seeded initial join rolled to the
front of its group by ``np.roll``, the per-gid FROM/TO unions and cut
words, a ``cut_key_table`` call, ``index_lookup_matches`` and the
first-occurrence merge-requirement registry.  Both now read one
:func:`repro.memo.columnar.build_pair_record`; their front halves moved
here verbatim, as functions that return their intermediate columns, so
``tests/memo/test_pair_record.py`` can diff the record against each.

Kid numbers are not comparable between the three (each interns its own
sequence set: the emitter only keyed cuts, the count pass every cut, the
empty key included); their byte strings are.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.logical import LogicalGet, LogicalJoin
from repro.kernel.vector import (
    cut_key_table,
    int_words,
    prefix_intervals,
    sorted_unique,
    union_words_by_mask,
)
from repro.memo.columnar import _EMPTY, _LEAF, _TOWER, _VEC, ColumnarUnsupported
from repro.optimizer.rules import (
    PhysicalOperators,
    index_lookup_matches,
    join_rule_arity,
    scan_implementations,
)

__all__ = ["count_front_half", "emitter_front_half"]


def emitter_front_half(
    store, logical_store, keyed_kinds, keyed_tags, cross_tags, scope
):
    """The emitter's front half: classification, ordered pairs, cut keys,
    index lookups and the merge registry, up to row expansion.  Preloads
    ``store``'s key table and sets its merge state ids as the emitter
    did."""
    memo = store.memo
    groups = memo.groups
    edges = store.edges
    E = edges.edge_count
    checkpoint = scope.checkpoint if scope is not None else None

    # One classification pass in gid order.
    ranges = logical_store._range_by_gid if logical_store is not None else {}
    plan: list[tuple[int, int, int]] = []  # (kind, logical_count, payload)
    join_gids: list[int] = []
    join_ranges: list[tuple[int, int]] = []
    for group in groups:
        gid = group.gid
        rng = ranges.get(gid)
        if rng is not None:
            n_logical = logical_store.logical_join_count(gid)
            if n_logical:
                plan.append((_VEC, n_logical, -1))
                join_gids.append(gid)
                join_ranges.append(rng)
            else:
                plan.append((_EMPTY, n_logical, -1))
            continue
        exprs = group.logical_exprs()
        n_logical = len(group._exprs)
        if not exprs:
            plan.append((_EMPTY, n_logical, -1))
            continue
        first = exprs[0].op
        if type(first) is LogicalJoin:
            raise ColumnarUnsupported(
                f"join group {gid} was explored one expression at a time; "
                "the columnar logical store does not hold it"
            )
        if isinstance(first, LogicalGet):
            plan.append((_LEAF, n_logical, -1))
        else:
            plan.append((_TOWER, n_logical, exprs[0].children[0]))

    # Every other order the final walk and the requirement tail intern,
    # in their interning order (column byte ids are assigned on first
    # sight), so the key table holds them all.
    extra_seqs: list[bytes] = []
    operators = store.operators = PhysicalOperators(
        store.graph, store.catalog, store.config, store._keys
    )
    for (kind, _n, _payload), group in zip(plan, groups):
        if kind == _LEAF or kind == _TOWER:
            first = group.logical_exprs()[0].op
            for op in operators.group(group.gid, first):
                order = op.delivered_order()
                if order:
                    extra_seqs.append(edges.seq_bytes(order))
    if store.root_order:
        extra_seqs.append(edges.seq_bytes(store.root_order))

    # ------------------------------------------------------------------
    # ordered-pair stream: both orientations of every split interleaved
    # in bucket order, gathered group-major, each setup-seeded initial
    # orientation rolled to the front of its block — positionally
    # identical to ColumnarLogicalStore.ordered_pairs per group.
    # ------------------------------------------------------------------
    if join_ranges:
        split_idx = np.concatenate(
            [np.arange(s, e, dtype=np.int64) for s, e in join_ranges]
        )
        gl = np.frombuffer(logical_store.sl, dtype=np.int32)[split_idx]
        gr = np.frombuffer(logical_store.sr, dtype=np.int32)[split_idx]
    else:
        gl = gr = np.zeros(0, np.int64)
    P = 2 * len(gl)
    pl = np.empty(P, np.int64)
    pr = np.empty(P, np.int64)
    pl[0::2] = gl
    pr[0::2] = gr
    pl[1::2] = gr
    pr[1::2] = gl
    pair_start = 2 * np.cumsum([0] + [e - s for s, e in join_ranges], dtype=np.int64)
    if join_gids:
        pos_of_gid = {gid: i for i, gid in enumerate(join_gids)}
        for gid, (il, ir) in logical_store.initial_by_gid.items():
            i = pos_of_gid.get(gid)
            if i is None:
                continue
            s = int(pair_start[i])
            e = int(pair_start[i + 1])
            hits = np.nonzero((pl[s:e] == il) & (pr[s:e] == ir))[0]
            if not len(hits):  # pragma: no cover - the store builders check
                raise ColumnarUnsupported(
                    f"initial join of group {gid} missing from its splits"
                )
            j = int(hits[0])
            if j:
                pl[s : s + j + 1] = np.roll(pl[s : s + j + 1], 1)
                pr[s : s + j + 1] = np.roll(pr[s : s + j + 1], 1)
    if checkpoint is not None:
        checkpoint("implement.columnar", P)

    # ------------------------------------------------------------------
    # cut bitmasks: per-gid FROM/TO unions over the per-alias oriented
    # edge masks, packed into uint64 word rows
    # ------------------------------------------------------------------
    n_alias = edges.universe.size
    W = max(1, (E + 63) // 64)
    from_words = int_words(edges.from_bits, W)
    to_words = int_words(edges.to_bits, W)
    mask_arr = np.fromiter(
        (group.mask or 0 for group in groups), np.int64, len(groups)
    )
    from_by_gid = union_words_by_mask(from_words, mask_arr, n_alias)
    to_by_gid = union_words_by_mask(to_words, mask_arr, n_alias)
    cut_words = from_by_gid[pl] & to_by_gid[pr]
    keyed = (cut_words != 0).any(axis=1)

    # ------------------------------------------------------------------
    # kids: one lex-ranked table over the keyed cuts and every other
    # order the walk interns (row = kid = lex rank), adopted by the
    # store's key table — a vector build has no overflow kids
    # ------------------------------------------------------------------
    n_keyed = len(keyed_tags)
    n_cross = len(cross_tags)
    kc = int(keyed.sum())
    lk_pair = np.full(P, -1, np.int64)
    rk_pair = np.full(P, -1, np.int64)
    K = 0
    if kc or extra_seqs:
        kid_mat, kid_lengths, left_kids, right_kids, extra_kids, _ = cut_key_table(
            cut_words[keyed],
            np.frombuffer(edges.left_col, dtype=np.uint8),
            np.frombuffer(edges.right_col, dtype=np.uint8),
            extra_seqs,
            on_block=(
                (lambda: checkpoint("implement.columnar", 0))
                if checkpoint is not None
                else None
            ),
        )
        store._keys.preload(kid_mat, kid_lengths, extra_seqs, extra_kids)
        lk_pair[keyed] = left_kids
        rk_pair[keyed] = right_kids
        K = len(kid_lengths)
    if checkpoint is not None:
        checkpoint("implement.columnar", kc)

    # index-lookup joins per ordered pair (the inner side is the right
    # one), after its join-rule tags; ``None`` when the rule is off
    inlj = None
    if store.config.enable_index_nl_join and kc:
        inlj = index_lookup_matches(
            store.catalog,
            store._keys,
            lambda gid: groups[gid].logical_exprs()[0].op.table,
            pr,
            rk_pair,
            keyed,
            mask_arr,
        )

    # ------------------------------------------------------------------
    # merge-requirement stream: (gid, kid) interleaved left/right per
    # keyed pair in emission order, deduplicated to first occurrences by
    # one sort — the first occurrence of each code is the least stream
    # position in its run, and a state id is the count of first
    # occurrences before it
    # ------------------------------------------------------------------
    if "merge" in keyed_kinds and kc:
        KS = K + 1
        code_type = np.uint32 if len(groups) * KS < 1 << 32 else np.int64
        codes = np.empty(2 * kc, code_type)
        codes[0::2] = pl[keyed] * KS + lk_pair[keyed]
        codes[1::2] = pr[keyed] * KS + rk_pair[keyed]
        order = codes.argsort()
        run = np.empty(2 * kc, dtype=bool)
        run[0] = True
        sorted_codes = codes[order]
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=run[1:])
        starts = np.flatnonzero(run)
        first = np.minimum.reduceat(order, starts)
        is_first = np.zeros(2 * kc, dtype=bool)
        is_first[first] = True
        sid_of_run = (np.cumsum(is_first) - 1)[first]
        # Fused implement→DP handoff: each merge row's child states as
        # dense state ids (positions in the first-occurrence stream),
        # one pair per keyed ordered pair in emission order.  The
        # best-plan DP consumes these directly instead of re-deriving
        # them by binary search over the requirement codes.
        sid_stream = np.empty(2 * kc, np.int64)
        sid_stream[order] = sid_of_run[np.cumsum(run) - 1]
        store._merge_sid0 = sid_stream[0::2].copy()
        store._merge_sid1 = sid_stream[1::2].copy()
        uniq_codes = codes[is_first].astype(np.int64)
        req_gid = uniq_codes // KS
        req_kid = uniq_codes % KS
    else:
        req_gid = np.zeros(0, np.int64)
        req_kid = np.zeros(0, np.int64)
    return {
        "plan": plan,
        "join_gids": join_gids,
        "pair_start": pair_start,
        "pl": pl,
        "pr": pr,
        "keyed": keyed,
        "lkid": lk_pair,
        "rkid": rk_pair,
        "inlj": inlj,
        "req_gid": req_gid,
        "req_kid": req_kid,
    }


def count_front_half(state, extra_pairs, tower_seqs):
    """The count pass's front half — flattened splits, cut keys, index
    lookups, the requirement registry and slot universes — and its export
    of one row per logical join, seeded joins rolled to the front.
    Preloads ``state.keys`` and sets ``state.kid_hi`` as the pass did."""
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
    kid_mat, kid_lengths, left_kids, right_kids, loose_kids, kid_words = (
        cut_key_table(
            ebits,
            np.frombuffer(edges.left_col, dtype=np.uint8),
            np.frombuffer(edges.right_col, dtype=np.uint8),
            loose_seqs,
            on_block=poll,
        )
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
    hi_rank = prefix_intervals(kid_words, kid_lengths)
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
    return {
        "Ls": Ls,
        "Rs": Rs,
        "has_keys": has_keys,
        "matches": matches,
        "KS": KS,
        "req_packed": req_packed,
        "stream": stream,
        "rows_by_expr": rows_by_expr,
        "expr_range": expr_range,
    }
