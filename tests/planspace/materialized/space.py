"""The user-facing plan-space facade.

Ties the preparatory link step, counting, unranking/ranking, sampling and
enumeration together behind one object::

    result = Optimizer(catalog).optimize_sql("SELECT ...")
    space = PlanSpace.from_result(result)
    space.count()                 # N — exact, arbitrary precision
    plan = space.unrank(13)       # the paper's appendix operation
    space.rank(plan)              # 13
    plans = space.sample(10_000, seed=42)   # uniform
    for rank, plan in space.enumerate():    # exhaustive
        ...
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.algebra.properties import SortOrder
from repro.memo.memo import Memo
from repro.optimizer.optimizer import OptimizationResult
from repro.optimizer.plan import PlanNode
from tests.planspace.materialized.counting import annotate_counts
from tests.planspace.materialized.enumeration import enumerate_plans
from tests.planspace.materialized.links import LinkedSpace, materialize_links
from tests.planspace.materialized.sampling import UniformPlanSampler
from tests.planspace.materialized.unranking import Unranker, UnrankTrace

__all__ = ["PlanSpace"]


class PlanSpace:
    """Counting, enumeration, ranking/unranking and uniform sampling over
    the plan space encoded by an optimized memo."""

    def __init__(self, linked: LinkedSpace):
        self.linked = linked
        annotate_counts(linked)
        self.unranker = Unranker(linked)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_memo(
        cls,
        memo: Memo,
        root_required: SortOrder = (),
        include_redundant_sorts: bool = True,
    ) -> "PlanSpace":
        linked = materialize_links(
            memo,
            root_required=root_required,
            include_redundant_sorts=include_redundant_sorts,
        )
        return cls(linked)

    @classmethod
    def from_result(
        cls,
        result: OptimizationResult,
        include_redundant_sorts: bool = True,
    ) -> "PlanSpace":
        """Build the space for an optimizer run (honouring its ORDER BY)."""
        return cls.from_memo(
            result.memo,
            root_required=result.root_order,
            include_redundant_sorts=include_redundant_sorts,
        )

    # ------------------------------------------------------------------
    # the paper's primitives
    # ------------------------------------------------------------------
    def count(self) -> int:
        """``N``: the exact number of execution plans in the space."""
        assert self.linked.total is not None
        return self.linked.total

    def unrank(self, rank: int) -> PlanNode:
        """Plan number ``rank`` (0-based)."""
        return self.unranker.unrank(rank)

    def unrank_with_trace(self, rank: int) -> tuple[PlanNode, UnrankTrace]:
        """Unrank with a step-by-step trace (paper appendix walkthrough)."""
        return self.unranker.unrank_with_trace(rank)

    def rank(self, plan: PlanNode) -> int:
        """The number of ``plan``; inverse of :meth:`unrank`."""
        return self.unranker.rank(plan)

    def sample(
        self, n: int, seed: int | random.Random = 0, unique: bool = False
    ) -> list[PlanNode]:
        """``n`` uniform random plans."""
        return self.sampler(seed).sample(n, unique=unique)

    def sample_ranks(
        self, n: int, seed: int | random.Random = 0, unique: bool = False
    ) -> list[int]:
        return self.sampler(seed).sample_ranks(n, unique=unique)

    def sampler(self, seed: int | random.Random = 0) -> UniformPlanSampler:
        return UniformPlanSampler(self.linked, seed=seed)

    def enumerate(
        self, start: int = 0, stop: int | None = None, step: int = 1
    ) -> Iterator[tuple[int, PlanNode]]:
        """Lazily yield ``(rank, plan)`` for the requested rank range."""
        return enumerate_plans(self.linked, start=start, stop=stop, step=step)

    def all_plans(self, limit: int | None = None) -> list[PlanNode]:
        """Materialize the whole space (or its first ``limit`` plans)."""
        stop = None if limit is None else min(limit, self.count())
        return [plan for _, plan in self.enumerate(stop=stop)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def operator_counts(self) -> dict[str, int]:
        """``N(v)`` per operator id — the annotations of the paper's Fig. 3."""
        return {
            node.id_str: node.count
            for node in self.linked.operators.values()
            if node.count is not None
        }

    def describe(self) -> str:
        memo = self.linked.memo
        lines = [
            f"plan space over {len(memo.groups)} groups, "
            f"{memo.physical_expression_count()} physical operators",
            f"root group: {memo.root_group_id}, "
            f"root requirement: {self.linked.root_required or '(none)'}",
            f"total plans N = {self.count():,}",
        ]
        return "\n".join(lines)

    def __len__(self) -> int:
        """len() gives N when it fits a machine word; use count() otherwise."""
        return self.count()
