"""Section 3.3 — unranking (number -> plan) and its inverse, ranking.

Unranking a pair ``(r, candidates)``:

1. Choose the root operator by prefix sums: the first operator covers
   ranks ``0 .. N(v1)-1``, the second ``N(v1) .. N(v1)+N(v2)-1``, and so
   on.  The *local rank* is ``r`` minus the skipped prefix.
2. Split the local rank ``r_l`` into per-child sub-ranks with the paper's
   mixed-radix recurrences::

       R_v(i) = r_l                       if i = |v|
              = R_v(i+1) mod B_v(i)       otherwise
       s_v(i) = R_v(1)                    if i = 1
              = floor(R_v(i) / B_v(i-1))  otherwise

3. Recurse on ``(s_v(i), alternatives_i)`` for each child slot.

Ranking is the exact inverse: the local rank reassembles as
``r_l = sum_i s_v(i) * B_v(i-1)`` and the operator's prefix sum is added
back at each level.

Unranking is O(m) in the number of operators of the produced plan, as the
paper states; both directions are implemented without recursion limits
concerns (plan depth is bounded by the number of memo groups).
"""

from __future__ import annotations

from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.unranking import TraceStep, UnrankTrace
from tests.planspace.materialized.counting import annotate_counts
from tests.planspace.materialized.links import LinkedOperator, LinkedSpace

__all__ = ["Unranker", "UnrankTrace", "TraceStep", "require_group_cardinality"]


def require_group_cardinality(group) -> float:
    """The group's annotated cardinality — never a silent placeholder.

    Plans produced by either engine must carry real row estimates: the
    cost model prices every node from them, and the implicit engine
    always computes them.  A memo that reaches unranking without
    cardinality annotations is a pipeline bug (the optimizer annotates;
    hand-built memos must set ``group.cardinality``), so it fails loudly
    instead of silently costing every plan as if it produced no rows.
    """
    cardinality = group.cardinality
    if cardinality is None:
        raise PlanSpaceError(
            f"group {group.gid} has no cardinality annotation; run "
            "annotate_cardinalities (the optimizer does) or set "
            "group.cardinality before extracting plans — plans must carry "
            "real row estimates for costing"
        )
    return cardinality


class Unranker:
    """Bijection between ranks ``0..N-1`` and plans of a linked space."""

    def __init__(self, space: LinkedSpace):
        self.space = space
        if space.total is None:
            annotate_counts(space)

    @property
    def total(self) -> int:
        assert self.space.total is not None
        return self.space.total

    # ------------------------------------------------------------------
    # unranking
    # ------------------------------------------------------------------
    def unrank(self, rank: int, trace: UnrankTrace | None = None) -> PlanNode:
        """The plan with number ``rank``."""
        if not 0 <= rank < self.total:
            raise RankOutOfRangeError(rank, self.total)
        return self._unrank_among(self.space.roots, rank, trace)

    def unrank_with_trace(self, rank: int) -> tuple[PlanNode, UnrankTrace]:
        trace = UnrankTrace(rank=rank)
        plan = self.unrank(rank, trace)
        return plan, trace

    def _unrank_among(
        self,
        candidates: tuple[LinkedOperator, ...],
        rank: int,
        trace: UnrankTrace | None,
    ) -> PlanNode:
        node, local = self._select_operator(candidates, rank)
        remainders, sub_ranks = self._split_local_rank(node, local)
        if trace is not None:
            trace.steps.append(
                TraceStep(
                    operator_id=node.id_str,
                    rank=rank,
                    local_rank=local,
                    remainders=remainders,
                    sub_ranks=sub_ranks,
                )
            )
        children = tuple(
            self._unrank_among(node.alternatives[i], sub_ranks[i], trace)
            for i in range(node.arity)
        )
        group = self.space.memo.group(node.expr.group_id)
        return PlanNode(
            op=node.expr.op,
            children=children,
            group_id=node.expr.group_id,
            local_id=node.expr.local_id,
            cardinality=require_group_cardinality(group),
        )

    @staticmethod
    def _select_operator(
        candidates: tuple[LinkedOperator, ...], rank: int
    ) -> tuple[LinkedOperator, int]:
        """Step 1: pick the operator by prefix sums; return its local rank."""
        skipped = 0
        for node in candidates:
            assert node.count is not None
            if rank < skipped + node.count:
                return node, rank - skipped
            skipped += node.count
        raise PlanSpaceError(
            f"rank {rank} exceeds the {skipped} plans of this candidate list"
        )

    @staticmethod
    def _split_local_rank(
        node: LinkedOperator, local: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Step 2: the paper's R_v / s_v recurrences (mixed-radix digits)."""
        n = node.arity
        if n == 0:
            return (), ()
        remainders = [0] * n
        remainders[n - 1] = local
        for i in range(n - 1, 0, -1):
            # R_v(i) = R_v(i+1) mod B_v(i)   [prefix_products[i] == B_v(i)]
            remainders[i - 1] = remainders[i] % node.prefix_products[i]
        sub_ranks = [0] * n
        sub_ranks[0] = remainders[0]
        for i in range(2, n + 1):
            # s_v(i) = floor(R_v(i) / B_v(i-1))
            sub_ranks[i - 1] = remainders[i - 1] // node.prefix_products[i - 1]
        return tuple(remainders), tuple(sub_ranks)

    # ------------------------------------------------------------------
    # ranking (the inverse)
    # ------------------------------------------------------------------
    def rank(self, plan: PlanNode) -> int:
        """The number of ``plan`` within the space (inverse of unrank)."""
        return self._rank_among(self.space.roots, plan)

    def _rank_among(
        self, candidates: tuple[LinkedOperator, ...], plan: PlanNode
    ) -> int:
        skipped = 0
        node: LinkedOperator | None = None
        for candidate in candidates:
            if (
                candidate.expr.group_id == plan.group_id
                and candidate.expr.local_id == plan.local_id
            ):
                node = candidate
                break
            assert candidate.count is not None
            skipped += candidate.count
        if node is None:
            raise PlanSpaceError(
                f"operator {plan.expr_id} is not a valid candidate here "
                "(plan does not belong to this space)"
            )
        local = 0
        for i in range(node.arity):
            sub_rank = self._rank_among(node.alternatives[i], plan.children[i])
            # r_l = sum_i s_v(i) * B_v(i-1)
            local += sub_rank * node.prefix_products[i]
        if node.count is not None and local >= node.count:
            raise PlanSpaceError(
                f"inconsistent plan: local rank {local} out of range for "
                f"operator {node.id_str}"
            )
        return skipped + local
