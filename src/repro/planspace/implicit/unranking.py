"""Rank <-> plan bijection over the implicit tables.

The recurrences are the paper's (Section 3.3), identical to the
materialized oracle's ``Unranker`` — only the candidate lists are
implicit: instead of materialized link arrays they are position
selections over a group's count column (:class:`~.tables.TableSet`).
Operator selection bisects the list's prefix sums and indexes the
selected *position*; only that position becomes a row object, whose
``B_v`` products split the local rank and whose slots name the child
lists to descend into.  ``rank`` inverts it by arithmetic: a node's
position is ``local_id - base``.  One unranking therefore touches
O(depth) group tables and constructs exactly the plan's rows and
operators — never a group's, let alone the physical memo.

The descent exists once, :meth:`ImplicitUnranker.descend`: a loop over
an explicit stack that lists the plan's rows.  :meth:`~ImplicitUnranker.unrank`
assembles a :class:`PlanNode` tree from that list; the sampled
optimizer's fragment pool prices and pools the rows without assembling
anything; :meth:`~ImplicitUnranker.unrank_with_trace` derives the
paper's appendix walkthrough from it — per operator its rank, local
rank, ``R_v(i)`` and ``s_v(i)`` — for ``repro unrank --trace``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.tables import CandidateList, Row, TableSet

__all__ = ["ImplicitUnranker", "TraceStep", "UnrankTrace"]


@dataclass
class TraceStep:
    """One step of an unranking, for walkthrough output (paper appendix)."""

    operator_id: str
    rank: int
    local_rank: int
    remainders: tuple[int, ...]  # R_v(1) .. R_v(n)
    sub_ranks: tuple[int, ...]  # s_v(1) .. s_v(n)

    def render(self) -> str:
        lines = [
            f"unranked rank {self.rank} -> operator {self.operator_id} "
            f"(local rank {self.local_rank})"
        ]
        n = len(self.sub_ranks)
        for i in range(n, 0, -1):
            lines.append(f"  R({i}) = {self.remainders[i - 1]}")
        for i in range(n, 0, -1):
            lines.append(f"  s({i}) = {self.sub_ranks[i - 1]}")
        return "\n".join(lines)


@dataclass
class UnrankTrace:
    """The full trace of one unranking."""

    rank: int
    steps: list[TraceStep] = field(default_factory=list)

    def operator_ids(self) -> list[str]:
        return [step.operator_id for step in self.steps]

    def render(self) -> str:
        return "\n".join(step.render() for step in self.steps)


class ImplicitUnranker:
    """Bijection between ranks ``0..N-1`` and plans, without a memo."""

    def __init__(self, state: CountState):
        self.state = state
        self.tables = TableSet(state)
        self.total = state.total
        #: the root's context: ``(root gid, root requirement)``
        self.root_ctx = (state.layout.root_gid, state.root_kid)

    # ------------------------------------------------------------------
    def descend(self, rank: int) -> list[tuple[tuple, Row, int]]:
        """The rows of plan ``rank`` as ``(context, row, rank within the
        context's list)``, in pre-order with the *last* slot first.

        A context is ``(gid, requirement)``: the root's, then the
        ``row.slots`` entry a row was selected for.  This is the one
        descent every unranking walks: :meth:`unrank` assembles its plan
        from it, and the sampled optimizer's fragment pool records and
        prices its rows without assembling anything.
        """
        if not 0 <= rank < self.total:
            raise RankOutOfRangeError(rank, self.total)
        candidates = self.tables.candidates
        walk = []
        stack = [(self.root_ctx, rank)]
        while stack:
            ctx, rank = stack.pop()
            found = candidates(*ctx)
            cumulative = found.cumulative
            # bisect over the exclusive prefix sums = the paper's linear
            # prefix-sum scan, sublinear in wide groups
            pos = bisect_right(cumulative, rank) - 1
            row = found.table.row(found.positions[pos])
            walk.append((ctx, row, rank))
            # R_v / s_v mixed-radix split of the local rank over the row's
            # (at most two) slots: B_v(0) = 1 leaves the remainder to
            # slot 0; slot 1 is pushed last, so it is walked first
            slots = row.slots
            if slots:
                local = rank - cumulative[pos]
                if len(slots) == 1:
                    stack.append((slots[0], local))
                else:
                    high, low = divmod(local, row.prefix[1])
                    stack.append((slots[0], low))
                    stack.append((slots[1], high))
        return walk

    def unrank(self, rank: int) -> PlanNode:
        """The plan with number ``rank``."""
        return self._assemble(self.descend(rank))

    def _assemble(self, walk: list[tuple[tuple, Row, int]]) -> PlanNode:
        """The plan whose :meth:`descend` walk is ``walk``.  Backwards, a
        last-slot-first pre-order is a first-slot-first post-order: each
        node's children are the top of the stack of finished subtrees."""
        tables = self.tables
        operator, cardinality = tables.operator, tables.cardinality
        done: list[PlanNode] = []
        pop = done.pop
        for (gid, _), row, _ in reversed(walk):
            n = len(row.slots)
            if not n:
                children = ()
            elif n == 1:
                children = (pop(),)
            else:
                second = pop()
                children = (pop(), second)
            done.append(
                PlanNode(
                    op=operator(gid, row),
                    children=children,
                    group_id=gid,
                    local_id=row.local_id,
                    cardinality=cardinality(gid),
                )
            )
        return done[0]

    # ------------------------------------------------------------------
    def unrank_with_trace(self, rank: int) -> tuple[PlanNode, UnrankTrace]:
        """Plan ``rank`` plus the R/s trace of every operator on it, in
        pre-order (the paper's appendix walkthrough)."""
        walk = self.descend(rank)
        plan = self._assemble(walk)
        # the walk lists the plan's nodes last slot first; the
        # walkthrough reads them first slot first
        nodes = []
        stack = [plan]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        step_of = {
            id(node): self._trace_step(*entry) for node, entry in zip(nodes, walk)
        }
        steps = [step_of[id(node)] for node in plan.iter_nodes()]
        return plan, UnrankTrace(rank=rank, steps=steps)

    def _trace_step(self, ctx: tuple, row: Row, rank: int) -> TraceStep:
        candidates = self.tables.candidates(*ctx)
        local = rank - candidates.cumulative[candidates.find(row.local_id)]
        # R_v(|v|) = r_l, R_v(i) = R_v(i+1) mod B_v(i) and
        # s_v(i) = floor(R_v(i) / B_v(i-1)), 0-based: prefix[i] = B_v(i)
        # and prefix[0] = B_v(0) = 1 makes s_v(1) = R_v(1)
        prefix = row.prefix
        n = len(prefix)
        remainders = [local] * n
        for i in range(n - 1, 0, -1):
            remainders[i - 1] = remainders[i] % prefix[i]
        return TraceStep(
            operator_id=f"{ctx[0]}.{row.local_id}",
            rank=rank,
            local_rank=local,
            remainders=tuple(remainders),
            sub_ranks=tuple(r // b for r, b in zip(remainders, prefix)),
        )

    # ------------------------------------------------------------------
    def rank(self, plan: PlanNode) -> int:
        """The number of ``plan`` within the space (inverse of unrank)."""
        return self._rank_among(self.tables.candidates(*self.root_ctx), plan)

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
