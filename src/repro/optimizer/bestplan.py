"""Best-plan extraction: dynamic programming over (group, required order).

"The optimal query plan is the one rooted in the most cost effective
operator in the root group.  To extract this plan, we follow the
references to the children's groups and select the most cost effective
operator of each group, observing compatibility of physical properties."
(Section 2.)

The DP state is a group plus the sort order required of it.  For each
state we take the cheapest of (a) any non-enforcer operator whose
delivered order satisfies the requirement, with children optimized under
the operator's own child requirements, and (b) when an order is required,
the group's Sort enforcer over the group optimized order-free.  Because
operator costs depend only on group cardinalities, this DP finds the true
global minimum over the entire plan space — a property the test suite
checks by exhaustive enumeration on small queries.

:class:`ColumnarBestPlanSearch` is the one engine: the exact optimizer,
the heuristic tier, cost-bound pruning and the true-cardinality ledger
all read this DP.  The recursive object search it replaced is the test
oracle (``tests/optimizer/reference_bestplan.py``).
"""

from __future__ import annotations

import numpy as np

from repro.algebra.properties import SortOrder
from repro.errors import OptimizerError
from repro.kernel.vector import range_min_pairs
from repro.memo.columnar import (
    TAG_HASH,
    TAG_INDEX_SCAN,
    TAG_INLJ,
    TAG_MERGE,
    TAG_NLJ,
    TAG_STREAMAGG,
    TAG_TABLE_SCAN,
    ColumnarPhysicalStore,
)
from repro.optimizer.cost import CARDINALITY_FORMULAS, CostModel
from repro.optimizer.plan import PlanNode
from repro.resilience.faults import fault_point

__all__ = ["ColumnarBestPlanSearch"]

_INFINITY = float("inf")

#: binary-join row tag -> its kind in ``CARDINALITY_FORMULAS``
_JOIN_KINDS = {TAG_NLJ: "nlj", TAG_HASH: "hash", TAG_MERGE: "merge"}


#: placeholder for state winners the vectorized layers never resolved —
#: assembly recomputes them lazily, on the winning path only
_UNRESOLVED = object()


class ColumnarBestPlanSearch:
    """Layered best-plan DP over the struct-of-arrays physical store.

    A recursive search over ``GroupExpr`` objects (the test oracle,
    ``tests/optimizer/reference_bestplan.py``) and this sweep compute
    the same function — the cheapest plan per ``(group, required sort
    order)`` state — but the columnar store makes every state's
    requirement known *up front* (the requirement set collected during
    batched implementation is exactly the set of child orders any
    candidate ever demands, plus the root ORDER BY).  So instead of
    recursing, the search sweeps groups bottom-up in layers — leaves,
    then join groups by relation-set popcount (children of a join
    strictly precede it), then the unary tower — and resolves each
    group's order-free optimum and all its ordered states from the
    arrays.  Join layers are vectorized (candidate minima as array
    expressions over the whole layer, local costs as one call per join
    kind of the cost model's ``CARDINALITY_FORMULAS`` over the layer's
    cardinality arrays); leaves and the unary tower walk their few rows
    one by one, pricing through the same table and ``CostModel``.

    Order satisfaction is the pair record's one rule: kids are
    byte-lexicographic ranks of every order the memo names, and a row
    delivering kid ``d`` (or a ``Sort`` of it) serves a requirement
    ``q`` iff ``q <= d < store.kid_hi[q]`` — an interval for a whole
    join layer's states at once, two integer comparisons per row for
    leaves, the tower and plan assembly.

    Tie-breaking replicates the oracle bit for bit: candidates are
    considered in insertion (local-id) order with strict-``<``
    improvement, ordered states consult only order-delivering candidates
    plus the group's first satisfying Sort enforcer, and per-candidate
    totals are accumulated in the same ``local + child0 + child1``
    association — so the chosen plan, its local ids, and its cost are
    byte-identical to the oracle's (asserted by the columnar property
    suite).

    After :meth:`run` the resolved tables answer more than the root:
    :meth:`group_plan` is any group's cheapest subplan (the
    true-cardinality ledger), and :meth:`group_cost`,
    :meth:`ordered_state_costs`, :meth:`row_total` and
    :meth:`sort_total` are what cost-bound pruning judges survival by —
    the DP's own sums, so a state's winner costs exactly its state.
    """

    def __init__(
        self,
        store: ColumnarPhysicalStore,
        cost_model: CostModel,
        scope=None,
        prune_dominated: bool = True,
    ):
        self.store = store
        self.memo = store.memo
        self.cost_model = cost_model
        self.scope = scope
        self.prune_dominated = prune_dominated
        groups = self.memo.groups
        G = len(groups)
        self._card = card = [0.0] * G
        for group in groups:
            if group.cardinality is None:
                raise OptimizerError(
                    f"group {group.gid} has no cardinality; "
                    "run annotate_cardinalities first"
                )
            card[group.gid] = group.cardinality

        self._best0 = [_INFINITY] * G
        self._best0_row = [-1] * G
        self._enforcers = store.config.enable_sort_enforcers

        #: state table: one slot per collected (group, required kid),
        #: as int64 gid/kid columns (lookup = binary search over packed
        #: codes).
        S = store.requirement_count()
        rg, rk = store.requirement_arrays()
        self._req_gid_arr = rg
        self._req_kid_arr = rk
        codes = (rg << np.int64(32)) | rk
        self._state_order = np.argsort(codes)
        self._sorted_state_codes = codes[self._state_order]
        self._state_cost = np.full(S, _INFINITY, dtype=np.float64)
        #: winner per resolved state: row index, or ("sort", kid), or
        #: None (infeasible).  Sparse: the vectorized layers resolve
        #: costs for every state but winners only lazily at assembly.
        self._state_winner: dict = {}
        self.stats = {
            "states": S,
            "pruned_empty": 0,
            "pruned_dedup": 0,
            "pruned": 0,
        }

        #: group layers: leaves and towers run scalar; join groups run
        #: vectorized, one popcount layer at a time
        self._leaf_gids: list[int] = []
        self._tower_gids: list[int] = []
        join_layers: dict[int, list[int]] = {}
        for group in groups:
            if group.key[0] == "rels":
                if group.mask & (group.mask - 1):
                    join_layers.setdefault(group.mask.bit_count(), []).append(
                        group.gid
                    )
                else:
                    self._leaf_gids.append(group.gid)
            else:
                self._tower_gids.append(group.gid)
        self._join_layers = [join_layers[pc] for pc in sorted(join_layers)]

        #: (sid, kid) lists for every scalar-processed (leaf or tower)
        #: group, collected in one pass over the requirement columns (a
        #: scan per group would cost O(S) each)
        scalar_gids = self._leaf_gids + self._tower_gids
        is_scalar = np.zeros(G, dtype=bool)
        if scalar_gids:
            is_scalar[np.asarray(scalar_gids, dtype=np.int64)] = True
        reqs: dict[int, list] = {}
        if S:
            for s in np.flatnonzero(is_scalar[rg]).tolist():
                reqs.setdefault(int(rg[s]), []).append((s, int(rk[s])))
        self._scalar_reqs = reqs

    # ------------------------------------------------------------------
    def run(self) -> "ColumnarBestPlanSearch":
        checkpoint = self.scope.checkpoint if self.scope is not None else None
        if checkpoint is not None:
            checkpoint("bestplan.layer", len(self._leaf_gids))
        for gid in self._leaf_gids:
            self._process_group_scalar(gid)
        self._run_join_layers()
        if checkpoint is not None:
            checkpoint("bestplan.layer", len(self._tower_gids))
        for gid in self._tower_gids:
            self._process_group_scalar(gid)
        self.stats["pruned"] = (
            self.stats["pruned_empty"] + self.stats["pruned_dedup"]
        )
        return self

    # ------------------------------------------------------------------
    # state lookup (binary search over the packed state codes)
    # ------------------------------------------------------------------
    def _sid_of(self, gid: int, kid: int) -> int:
        code = (gid << 32) | kid
        i = int(self._sorted_state_codes.searchsorted(code))
        if i >= len(self._sorted_state_codes) or int(
            self._sorted_state_codes[i]
        ) != code:
            raise KeyError((gid, kid))
        return int(self._state_order[i])

    # ------------------------------------------------------------------
    # scalar machinery (leaves, towers, and winning-path assembly)
    # ------------------------------------------------------------------
    def _local_cost(self, row: int) -> float:
        """One row's operator-local cost: binary joins through the cost
        model's cardinality-only formulas, every other row through the
        cost model itself (scans, unary operators and index-lookup
        joins read catalog or operator state)."""
        store = self.store
        tag = store.tag[row]
        card = self._card
        out = card[store.gid[row]]
        kind = _JOIN_KINDS.get(tag)
        if kind is not None:
            return CARDINALITY_FORMULAS[kind](
                self.cost_model.params, out, card[store.c0[row]], card[store.c1[row]]
            )
        op = store.row_op(row)
        if tag in (TAG_TABLE_SCAN, TAG_INDEX_SCAN):
            child_rows: tuple = ()
        else:
            child_rows = (card[store.c0[row]],)
        return self.cost_model.operator_cost(op, out, child_rows)

    def _sort_local(self, gid: int) -> float:
        rows = self._card[gid]
        return CARDINALITY_FORMULAS["sort"](self.cost_model.params, rows, rows)

    def sort_total(self, gid: int) -> float:
        """Rooted cost of any of the group's Sort enforcers (they price
        alike): the sort over the group's order-free optimum."""
        return self._sort_local(gid) + self._best0[gid]

    def group_cost(self, gid: int) -> float:
        """The group's order-free optimum (``inf`` when infeasible)."""
        return self._best0[gid]

    def ordered_state_costs(self) -> dict[int, list[tuple[int, float]]]:
        """gid -> ``(required kid, resolved cost)`` for every feasible
        ordered state, in requirement first-occurrence order."""
        by_gid: dict[int, list[tuple[int, float]]] = {}
        for gid, kid, cost in zip(
            self._req_gid_arr.tolist(),
            self._req_kid_arr.tolist(),
            self._state_cost.tolist(),
        ):
            if cost < _INFINITY:
                by_gid.setdefault(gid, []).append((kid, cost))
        return by_gid

    def row_total(self, row: int) -> float:
        """One candidate's rooted cost: local cost plus the children's
        best state costs, accumulated left to right — the float
        association the vectorized layers use, so a group's winning row
        totals exactly the group's resolved cost."""
        store = self.store
        tag = store.tag[row]
        total = self._local_cost(row)
        if tag in (TAG_NLJ, TAG_HASH):
            total += self._best0[store.c0[row]]
            total += self._best0[store.c1[row]]
        elif tag == TAG_MERGE:
            cost = self._state_cost
            total += cost[self._sid_of(store.c0[row], store.a[row])]
            total += cost[self._sid_of(store.c1[row], store.b[row])]
        elif tag in (TAG_TABLE_SCAN, TAG_INDEX_SCAN):
            pass
        elif tag == TAG_STREAMAGG and store.b[row] >= 0:
            total += self._state_cost[
                self._sid_of(store.c0[row], store.b[row])
            ]
        else:
            total += self._best0[store.c0[row]]
        return total

    def delivered_kid(self, row: int) -> int:
        """The sort-order id a row delivers, or -1 for none."""
        tag = self.store.tag[row]
        if tag == TAG_MERGE:
            return self.store.a[row]
        if tag in (TAG_INDEX_SCAN, TAG_STREAMAGG):
            return self.store.b[row]
        return -1

    def _process_group_scalar(self, gid: int) -> None:
        store = self.store
        kid_hi = store.kid_hi
        start, end = store.group_rows(gid)
        best = _INFINITY
        best_row = -1
        ordered: list[tuple[int, int, float]] = []
        for row in range(start, end):
            total = self.row_total(row)
            dkid = self.delivered_kid(row)
            if dkid >= 0:
                ordered.append((dkid, row, total))
            if total < best:
                best = total
                best_row = row
        self._best0[gid] = best
        self._best0_row[gid] = best_row
        reqs = self._scalar_reqs.get(gid)
        if reqs:
            for sid, rkid in reqs:
                hi = int(kid_hi[rkid])
                rbest = _INFINITY
                rrow = -1
                for dkid, row, total in ordered:
                    if rkid <= dkid < hi and total < rbest:
                        rbest = total
                        rrow = row
                self._resolve_state(gid, sid, rkid, rbest, rrow)

    def _resolve_state(
        self, gid: int, sid: int, rkid: int, cand_best: float, cand_row: int
    ) -> None:
        """Finish one ordered state: compare the best order-delivering
        candidate against the group's Sort enforcer.

        A state exists only for collected requirements, and the enforcer
        pass creates one Sort per requirement — so whenever the group has
        sorts at all, a satisfying one exists (at least the requirement's
        own), and every sort of a group prices identically (sort cost
        depends only on group cardinality).  Which satisfying sort wins
        (the first, as in the oracle) only matters for plan
        identity, so it is resolved lazily during assembly.
        """
        winner = cand_row if cand_row >= 0 else None
        best = cand_best
        if self._enforcers:
            inner = self._best0[gid]
            if inner < _INFINITY:
                total = self._sort_local(gid) + inner
                if winner is None or total < best:
                    best = total
                    winner = ("sort", rkid)
        self._state_cost[sid] = best
        self._state_winner[sid] = winner

    # ------------------------------------------------------------------
    # the vectorized join layers
    # ------------------------------------------------------------------
    def _run_join_layers(self) -> None:
        store = self.store
        intc = np.intc
        tag = np.frombuffer(store.tag, dtype=intc)
        gid_ = np.frombuffer(store.gid, dtype=intc)
        c0 = np.frombuffer(store.c0, dtype=intc)
        c1 = np.frombuffer(store.c1, dtype=intc)
        a = np.frombuffer(store.a, dtype=intc)
        card = np.asarray(self._card, dtype=np.float64)
        p = self.cost_model.params
        inf = _INFINITY

        # Operator-local costs, whole memo at once: one masked call of
        # the cost model's formula per join kind.
        local = np.zeros(len(tag), dtype=np.float64)
        for join_tag, kind in _JOIN_KINDS.items():
            m = tag == join_tag
            local[m] = CARDINALITY_FORMULAS[kind](
                p, card[gid_[m]], card[c0[m]], card[c1[m]]
            )
        for row in np.nonzero(tag == TAG_INLJ)[0]:
            local[row] = self._local_cost(int(row))

        # Merge rows' child states as dense state ids, handed over by the
        # build: merge rows appear one per keyed pair in pair order, so
        # the build's state-id stream aligns with row order.
        S = store.requirement_count()
        state_cost = self._state_cost
        mpos = np.nonzero(tag == TAG_MERGE)[0]
        if S and mpos.size:
            sid0_row = np.full(len(tag), -1, dtype=np.int64)
            sid1_row = np.full(len(tag), -1, dtype=np.int64)
            sid0_row[mpos] = store._merge_sid0
            sid1_row[mpos] = store._merge_sid1
        else:
            sid0_row = sid1_row = np.full(len(tag), -1, dtype=np.int64)

        # Requirement satisfaction as kid intervals: delivered satisfies
        # required iff its kid falls in ``[kid, kid_hi[kid])``, the pair
        # record's extension interval — for every state at once.
        req_gid_arr = self._req_gid_arr
        req_lo = self._req_kid_arr
        req_hi = store.kid_hi[req_lo]
        K1 = len(store.kid_hi) + 1

        # The sort formula per group (it calls math.log2, which np.log2
        # can miss by an ulp), vectorized lookup per state.
        if self._enforcers:
            sort_cost = CARDINALITY_FORMULAS["sort"]
            sort_local_g = np.fromiter(
                (sort_cost(p, rows, rows) for rows in self._card),
                dtype=np.float64,
                count=len(card),
            )

        best0 = np.full(len(card), inf, dtype=np.float64)
        for gid in self._leaf_gids:  # already processed scalar
            best0[gid] = self._best0[gid]

        # Layer membership per state, so each layer resolves all its
        # ordered states in one vectorized pass.
        layer_of_gid = np.full(len(card), -1, dtype=np.int64)
        for li, layer in enumerate(self._join_layers):
            layer_of_gid[np.asarray(layer, dtype=np.int64)] = li
        state_layer = (
            layer_of_gid[req_gid_arr] if S else np.zeros(0, np.int64)
        )

        group_start = store.group_start
        prune = self.prune_dominated
        stats = self.stats
        checkpoint = self.scope.checkpoint if self.scope is not None else None
        for li, layer in enumerate(self._join_layers):
            fault_point("bestplan.layer", self)
            if checkpoint is not None:
                checkpoint("bestplan.layer", len(layer))
            segments = [
                (gid, group_start[gid], group_start[gid + 1])
                for gid in layer
                if group_start[gid + 1] > group_start[gid]
            ]
            if not segments:
                continue
            rows = np.concatenate(
                [np.arange(s, e, dtype=np.int64) for _g, s, e in segments]
            )
            t = tag[rows]
            tot = local[rows].copy()
            m = (t == TAG_NLJ) | (t == TAG_HASH)
            idx = rows[m]
            tot[m] += best0[c0[idx]]
            tot[m] += best0[c1[idx]]
            m = t == TAG_MERGE
            idx = rows[m]
            tot[m] += state_cost[sid0_row[idx]]
            tot[m] += state_cost[sid1_row[idx]]
            m = t == TAG_INLJ
            if m.any():
                tot[m] += best0[c0[rows[m]]]

            seg_lens = np.array([e - s for _g, s, e in segments])
            seg_starts = np.zeros(len(segments), dtype=np.int64)
            np.cumsum(seg_lens[:-1], out=seg_starts[1:])
            mins = np.minimum.reduceat(tot, seg_starts)
            pos = np.arange(len(tot), dtype=np.int64)
            cand = np.where(tot == np.repeat(mins, seg_lens), pos, len(tot))
            winners = np.minimum.reduceat(cand, seg_starts)
            layer_gids = np.array([g for g, _s, _e in segments])
            best0[layer_gids] = mins
            for i, (gid, s, e) in enumerate(segments):
                seg_min = mins[i]
                if seg_min < inf:
                    self._best0[gid] = float(seg_min)
                    self._best0_row[gid] = int(rows[winners[i]])

            # All of this layer's ordered states at once.  Per state the
            # satisfying candidates occupy one contiguous run of the
            # layer's merge rows sorted by (group, delivered lex rank);
            # two searchsorted calls bound the run and a segmented range
            # minimum resolves it.  Winners stay lazy: assembly
            # recomputes the winning row for the handful of states on
            # the chosen plan's path.
            lsids = np.nonzero(state_layer == li)[0]
            if not lsids.size:
                continue
            mmask = t == TAG_MERGE
            mrows = rows[mmask]
            sgid = req_gid_arr[lsids]
            if mrows.size:
                ckey = gid_[mrows].astype(np.int64) * K1 + a[mrows]
                lo_key = sgid * K1 + req_lo[lsids]
                hi_key = sgid * K1 + req_hi[lsids]
                if len(card) * K1 < 1 << 32:
                    # (gid, kid) packs into 32 bits for every space
                    # the EdgeCatalog admits; uint32 quicksort runs
                    # ~1.6x faster than int64.
                    ckey = ckey.astype(np.uint32)
                    lo_key = lo_key.astype(np.uint32)
                    hi_key = hi_key.astype(np.uint32)
                corder = np.argsort(ckey)
                sorted_ckey = ckey[corder]
                sorted_tot = tot[mmask][corder]
                i0 = sorted_ckey.searchsorted(lo_key)
                i1 = sorted_ckey.searchsorted(hi_key)
            else:
                sorted_tot = np.zeros(0, dtype=np.float64)
                i0 = i1 = np.zeros(len(lsids), dtype=np.int64)
            if prune:
                # Dominated-state pruning: states with no satisfying
                # candidate resolve straight to the enforcer bound, and
                # states sharing one candidate interval share its
                # minimum — dedup before the range scan.
                M = len(sorted_tot) + 1
                packed = i0 * M + i1
                uniq, inv = np.unique(packed, return_inverse=True)
                cand_min = range_min_pairs(
                    sorted_tot, uniq // M, uniq % M
                )[inv]
                stats["pruned_empty"] += int((i0 >= i1).sum())
                stats["pruned_dedup"] += int(len(packed) - len(uniq))
            else:
                cand_min = range_min_pairs(sorted_tot, i0, i1)
            if self._enforcers:
                inner_best = best0[sgid]
                bound = sort_local_g[sgid] + inner_best
                take = (inner_best < inf) & (
                    (cand_min == inf) | (bound < cand_min)
                )
                resolved = np.where(take, bound, cand_min)
            else:
                resolved = cand_min
            state_cost[lsids] = resolved

    # ------------------------------------------------------------------
    # plan assembly (winning path only)
    # ------------------------------------------------------------------
    def best_plan(self, required_order: SortOrder = ()) -> tuple[PlanNode, float]:
        memo = self.memo
        if memo.root_group_id is None:
            raise OptimizerError("memo has no root group")
        root = memo.root_group_id
        required = tuple(required_order)
        if required:
            if required != self.store.root_order:
                raise OptimizerError(
                    "columnar best-plan search was built for root order "
                    f"{self.store.root_order!r}, not {required!r}"
                )
            sid = self._sid_of(root, self.store.root_kid)
            cost = self._state_cost[sid]
            if cost >= _INFINITY:
                raise OptimizerError(
                    "no physical plan satisfies the root requirement "
                    "(are implementations/enforcers enabled?)"
                )
            return self._assemble(root, self.store.root_kid), float(cost)
        cost = self._best0[root]
        if cost >= _INFINITY:
            raise OptimizerError(
                "no physical plan satisfies the root requirement "
                "(are implementations/enforcers enabled?)"
            )
        return self._assemble(root, None), float(cost)

    def group_plan(self, gid: int) -> PlanNode | None:
        """The cheapest order-free plan rooted in group ``gid`` (``None``
        when the group has no feasible plan)."""
        if self._best0_row[gid] < 0:
            return None
        return self._assemble(gid, None)

    def _lazy_winner(self, gid: int, sid: int, rkid: int):
        """Recompute one state's winner from the resolved DP tables —
        the vectorized layers only record state *costs*; the winning
        candidate row (or enforcer) is re-derived here with the scalar
        pass's exact comparison order, for winning-path states only."""
        store = self.store
        hi = int(store.kid_hi[rkid])
        start, end = store.group_rows(gid)
        rbest = _INFINITY
        rrow = -1
        for row in range(start, end):
            if rkid <= self.delivered_kid(row) < hi:
                total = self.row_total(row)
                if total < rbest:
                    rbest = total
                    rrow = row
        winner = rrow if rrow >= 0 else None
        if self._enforcers:
            inner = self._best0[gid]
            if inner < _INFINITY:
                total = self._sort_local(gid) + inner
                if winner is None or total < rbest:
                    winner = ("sort", rkid)
        self._state_winner[sid] = winner
        return winner

    def _assemble(self, gid: int, rkid: int | None) -> PlanNode:
        store = self.store
        if rkid is None:
            row = self._best0_row[gid]
            if row < 0:  # pragma: no cover - guarded by cost checks
                raise OptimizerError(f"group {gid} has no feasible plan")
            return self._plan_from_row(row)
        sid = self._sid_of(gid, rkid)
        winner = self._state_winner.get(sid, _UNRESOLVED)
        if winner is _UNRESOLVED:
            winner = self._lazy_winner(gid, sid, rkid)
        if winner is None:  # pragma: no cover - guarded by cost checks
            raise OptimizerError(f"group {gid} has no feasible ordered plan")
        if isinstance(winner, tuple):
            _tag, winner_rkid = winner
            # First satisfying sort in insertion order, as the oracle
            # picks — resolved here, on the winning path only.
            hi = int(store.kid_hi[winner_rkid])
            position, skid = next(
                (p, k)
                for p, k in enumerate(store.group_sorts(gid))
                if winner_rkid <= k < hi
            )
            inner = self._assemble(gid, None)
            return PlanNode(
                op=store.operators.sort(skid),
                children=(inner,),
                group_id=gid,
                local_id=store.sort_local_id(gid, position),
                cardinality=self._card[gid],
            )
        return self._plan_from_row(winner)

    def _plan_from_row(self, row: int) -> PlanNode:
        store = self.store
        tag = store.tag[row]
        gid = store.gid[row]
        if tag == TAG_MERGE:
            slots = (
                (store.c0[row], store.a[row]),
                (store.c1[row], store.b[row]),
            )
        elif tag in (TAG_NLJ, TAG_HASH):
            slots = ((store.c0[row], None), (store.c1[row], None))
        elif tag in (TAG_TABLE_SCAN, TAG_INDEX_SCAN):
            slots = ()
        elif tag == TAG_STREAMAGG and store.b[row] >= 0:
            slots = ((store.c0[row], store.b[row]),)
        else:
            slots = ((store.c0[row], None),)
        children = tuple(self._assemble(cg, kid) for cg, kid in slots)
        return PlanNode(
            op=store.row_op(row),
            children=children,
            group_id=gid,
            local_id=store.row_local_id(row),
            cardinality=self._card[gid],
        )
