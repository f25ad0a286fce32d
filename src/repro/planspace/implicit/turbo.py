"""The relation-group count pass: one vectorized layer DP.

Every relation-set group's aggregates (``A``, ``nonenf``, ``sord``, the
ordered requirement registry, sort counts, the virtual operator census)
come out of one bottom-up pass per subset-size layer — the recurrence
:mod:`.counting` describes, with the per-split work done as columnar
array operations.  The joins' physical description and the kid universe
are the exact emitter's: :func:`~repro.memo.columnar.build_pair_record`
derives, once, every ordered pair of the layout's logical store in
local-id order, its keyed flag and cut kids (one cut-key table over the
cut keys and every other order the memo names — leaf and tower
deliveries, the tower's child requirements, ORDER BY — preloaded into
``state.keys``), its index-lookup matches, the first-occurrence
requirement registry with each keyed pair's state ids, the kid
intervals ``kid_hi``, and the space's operator cache holding every
leaf's and tower group's operators (``state.operators``; the leaf scans
counted here are its lists).  The pass adds three things:

* slot universes: ``(gid, kid)`` requirement and delivery slots packed
  into group-major int64 keys, so order queries become prefix-sum
  differences over each group's slot segment.  A kid is its
  byte-lexicographic rank, so the extensions of kid ``q`` are the
  contiguous rank interval ``[q, kid_hi[q])``;
* the bigint layer DP, per split — a split's two pairs share the
  ``N(l) * N(r)`` product: an index-lookup join contributes
  ``matches × A(outer)`` per keyed orientation whose inner side is one
  relation; without redundant sorts a layer answers its queries once
  over the non-enforcer deliveries (each ``Sort`` counts the
  alternatives not already ordered its way) and once more after its
  sorts are delivered.  The recurrences themselves (counts overflow
  ``float64`` and ``int64`` by hundreds of digits) run on
  ``object``-dtype arrays — numpy's C loops over arbitrary-precision
  Python ints;
* the export.  The state gets mask-keyed ``A``/``nonenf`` dicts and lazy
  array-backed views for the rest, so a count-only run pays for no
  per-requirement Python objects.  The record's pairs, with their query
  slots, are laid out as one int64 row per logical join and stay alive
  behind ``state.join_columns``: the unranking tables read a group's
  block of rows as lists.  The record's ``kid_hi`` stays on the state
  too (``state.kid_hi``): the tower and the tables decide order
  satisfaction with it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.kernel.vector import sorted_unique
from repro.memo.columnar import build_pair_record
from repro.optimizer.rules import join_rule_arity

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


def turbo_rels_pass(state) -> None:
    """Fill ``state``'s relation-group aggregates, and its kid universe:
    the pair record's key table, kid intervals (``state.kid_hi``), root
    kid and the tower groups' requirements (``state.tower_required``),
    and adopt the record's operator cache (``state.operators``).
    The record's registry tail — stream-aggregate child orders, then
    ORDER BY — splits by target: a relation-set group's requirements
    register after all merge requirements, like the materializer's
    enforcer pass; a tower group's go to the tower.
    """
    layout = state.layout
    config = state.config
    scope = state.scope
    checkpoint = scope.checkpoint if scope is not None else None

    def poll(units: int = 0) -> None:
        # between the whole-universe sorts below: each is a large share
        # of a big query's pass, so none runs unpolled after another
        if checkpoint is not None:
            checkpoint("implicit.count", units)

    plain_keys, merge = join_rule_arity(config, True)
    plain_cross, _ = join_rule_arity(config, False)
    enforcers = config.enable_sort_enforcers
    gid_by_mask = layout.gid_by_mask
    G = len(layout.groups)
    n_alias = layout.universe.size
    mask_lut = np.fromiter(
        (g.mask if g.mask is not None else 0 for g in layout.groups),
        np.int64,
        count=G,
    )

    record = build_pair_record(
        layout.memo,
        layout.store,
        state.edges,
        state.keys,
        config,
        state.catalog,
        layout.root_order,
        poll,
    )
    P = len(record.pl)
    state.operators = record.operators
    state.kid_hi = record.kid_hi
    state.root_kid = record.root_kid
    KS = len(record.kid_hi) + 2

    # leaf scans: one delivery slot per ordered access path
    leaf_packed: list[int] = []
    leaf_nonenf: dict[int, int] = {}
    for mask in layout.subset_masks:
        if mask & (mask - 1):
            break  # universes are size-sorted: leaves come first
        gid = gid_by_mask[mask]
        scans = record.operators.group(gid)
        leaf_nonenf[gid] = len(scans)
        state.physical_count += len(scans)
        for scan in scans:
            order = scan.delivered_order()
            if order:
                leaf_packed.append(gid * KS + state.keys.kid_of_columns(order))

    # the registry: relation-set groups' requirements are query slots,
    # tower groups' are the tower's (first-occurrence order either way)
    on_tower = np.zeros(G, bool)
    on_tower[layout.tower_gids] = True
    on_tower = on_tower[record.req_gid]
    for gid, kid in zip(
        record.req_gid[on_tower].tolist(), record.req_kid[on_tower].tolist()
    ):
        state.tower_required.setdefault(gid, {}).setdefault(kid)
    poll()

    # The DP runs per split: both orientations share the N(l) * N(r)
    # product.  ``lr``/``rl`` are a split's two pairs in the record.
    lr, rl = record.position[0::2], record.position[1::2]
    keyed = record.keyed
    Ls, Rs, has_keys = record.sl, record.sr, keyed[lr]
    pair_gids = np.repeat(
        np.array(record.join_gids, np.int64), np.diff(record.pair_start)
    )
    Ss = pair_gids[lr]
    matches = np.zeros(P, np.int64) if record.inlj is None else record.inlj
    m_lr, m_rl = matches[lr], matches[rl]

    # ------------------------------------------------------------------
    # slot universes: (gid, kid) requirement and delivery slots, packed
    # ------------------------------------------------------------------
    # registrations in first-occurrence order: the merge registry, then
    # the relation-set groups' tail
    reg_stream = record.req_gid[~on_tower] * KS + record.req_kid[~on_tower]
    req_packed = sorted_unique(reg_stream)
    NQ = len(req_packed)
    req_gids = req_packed // KS
    req_kids = req_packed % KS
    nreq_by_gid = np.bincount(req_gids, minlength=G)
    stream = np.searchsorted(req_packed, reg_stream)
    first = np.empty(NQ, np.int64)  # per slot: its first registration
    first[stream[::-1]] = np.arange(len(stream) - 1, -1, -1)
    # slots are group-major; within each group, first registered first
    by_first = np.argsort(req_gids * len(stream) + first)

    # per pair: the query slots of S(left, lkid) and S(right, rkid) (0
    # where keyless or without merge joins: never read)
    q_left = np.zeros(P, np.int64)
    q_right = np.zeros(P, np.int64)
    if merge:
        q_left[keyed] = stream[record.sid0]
        q_right[keyed] = stream[record.sid1]

    # delivered slots: leaf deliveries, merge deliveries (a merge join
    # delivers its left key in its own group), sort deliveries
    delivered = pair_gids * KS + record.lkid
    d_parts = [np.array(leaf_packed, np.int64)]
    if merge:
        d_parts.append(delivered[keyed])
    if enforcers:
        d_parts.append(req_packed)
    D_packed = sorted_unique(np.concatenate(d_parts))
    poll()
    ND = len(D_packed)
    DS = np.empty(ND, dtype=object)
    DS[:] = 0
    d_slot = np.searchsorted(D_packed, delivered)

    # query ranges in D coordinates (a group's slots are contiguous and
    # kid-rank ordered, because the packed key is gid-major, rank-minor);
    # with enforcers every requirement is itself a delivered slot
    q_lo_D = req_slot_in_D = np.searchsorted(D_packed, req_packed)
    q_hi_D = np.searchsorted(D_packed, req_gids * KS + record.kid_hi[req_kids])
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
    if leaf_packed:
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
            with_keys = np.flatnonzero(hk)
            if len(with_keys):
                p_lr, p_rl = lr[sel[with_keys]], rl[sel[with_keys]]
                mc_lr = QS[q_left[p_lr]] * QS[q_right[p_lr]]
                mc_rl = QS[q_left[p_rl]] * QS[q_right[p_rl]]
                contrib[with_keys] += mc_lr + mc_rl
                np.add.at(DS, d_slot[p_lr], mc_lr)
                np.add.at(DS, d_slot[p_rl], mc_rl)
                state.physical_count += 2 * len(with_keys)
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

    # The unranking tables' columns: the record's pairs, one row per
    # logical join in local-id order.  A group reads its block of rows as
    # lists with one ``tolist`` (a request touches a tenth of a dense
    # layout's rows, and exporting them all as Python ints costs more
    # than every group it serves); its bigint operator counts are
    # multiplied out by a plain loop over that block, so no ``object``
    # array is retained beyond the DP's own.
    rows_by_expr = np.stack(  # left/right mask, left/right kid (-1: no
        # keys), index lookups, the QS slots of S(left, lkid), S(right, rkid)
        [
            mask_lut[record.pl],
            mask_lut[record.pr],
            record.lkid,
            record.rkid,
            matches,
            q_left,
            q_right,
        ],
        axis=1,
    )
    pair_bounds = record.pair_start.tolist()
    expr_range = dict(zip(record.join_gids, zip(pair_bounds, pair_bounds[1:])))
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
