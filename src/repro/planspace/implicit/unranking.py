"""Rank <-> plan bijection over the implicit tables.

The recurrences are the paper's (Section 3.3), identical to
:class:`repro.planspace.unranking.Unranker` — only the candidate lists
are implicit: instead of materialized link arrays they are position
selections over a group's count column (:class:`~.tables.TableSet`).
Operator selection bisects the list's prefix sums and indexes the
selected *position*; only that position becomes a row object, whose
``B_v`` products split the local rank and whose slots name the child
lists to recurse into.  ``rank`` inverts it by arithmetic: a node's
position is ``local_id - base``.  One unranking therefore touches
O(depth) group tables and constructs exactly the plan's rows and
operators — never a group's, let alone the physical memo.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.tables import CandidateList, TableSet

__all__ = ["ImplicitUnranker"]


class ImplicitUnranker:
    """Bijection between ranks ``0..N-1`` and plans, without a memo."""

    def __init__(self, state: CountState):
        self.state = state
        self.tables = TableSet(state)
        self.total = state.total

    def _root_candidates(self) -> CandidateList:
        return self.tables.candidates(
            self.state.layout.root_gid, self.state.root_kid
        )

    # ------------------------------------------------------------------
    def unrank(self, rank: int) -> PlanNode:
        """The plan with number ``rank``."""
        if not 0 <= rank < self.total:
            raise RankOutOfRangeError(rank, self.total)
        return self._unrank_among(self._root_candidates(), rank)

    def _unrank_among(self, candidates: CandidateList, rank: int) -> PlanNode:
        cumulative = candidates.cumulative
        # bisect over the exclusive prefix sums = the paper's linear
        # prefix-sum scan, sublinear in wide groups
        pos = bisect_right(cumulative, rank) - 1
        if pos >= len(candidates.positions):  # pragma: no cover - guarded by total
            raise PlanSpaceError(
                f"rank {rank} exceeds the {cumulative[-1]} plans of this list"
            )
        table = candidates.table
        row = table.row(candidates.positions[pos])
        local = rank - cumulative[pos]
        tables = self.tables
        # R_v / s_v mixed-radix split, highest slot first (B_v(0) = 1
        # leaves the whole remainder to slot 0)
        slots, prefix = row.slots, row.prefix
        children = [None] * len(slots)
        for i in range(len(slots) - 1, -1, -1):
            sub_rank, local = divmod(local, prefix[i])
            child_gid, requirement = slots[i]
            children[i] = self._unrank_among(
                tables.candidates(child_gid, requirement), sub_rank
            )
        gid = table.gid
        return PlanNode(
            op=tables.operator(gid, row),
            children=tuple(children),
            group_id=gid,
            local_id=row.local_id,
            cardinality=tables.cardinality(gid),
        )

    # ------------------------------------------------------------------
    def rank(self, plan: PlanNode) -> int:
        """The number of ``plan`` within the space (inverse of unrank)."""
        return self._rank_among(self._root_candidates(), plan)

    def _rank_among(self, candidates: CandidateList, plan: PlanNode) -> int:
        pos = -1
        if candidates.gid == plan.group_id:
            pos = candidates.find(plan.local_id)
        if pos < 0:
            raise PlanSpaceError(
                f"operator {plan.expr_id} is not a valid candidate here "
                "(plan does not belong to this space)"
            )
        row = candidates.table.row(candidates.positions[pos])
        skipped = candidates.cumulative[pos]
        local = 0
        for i, (child_gid, requirement) in enumerate(row.slots):
            sub_rank = self._rank_among(
                self.tables.candidates(child_gid, requirement), plan.children[i]
            )
            local += sub_rank * row.prefix[i]
        if local >= row.count:
            raise PlanSpaceError(
                f"inconsistent plan: local rank {local} out of range for "
                f"operator {candidates.gid}.{row.local_id}"
            )
        return skipped + local
