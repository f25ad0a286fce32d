"""Uniform sampling of plans (and a deliberately biased baseline).

"Once an unranking mechanism is available, uniform sampling of elements
in the space reduces to random generation of numbers in the range
0, ..., N-1."  (Section 1.)

:class:`~repro.planspace.sampling.RankSampler` is the shared sampling
contract: every sampler — materialized (:class:`UniformPlanSampler`) or
implicit (:class:`repro.planspace.implicit.sampling.ImplicitPlanSampler`)
— draws ranks through exactly that code, so the same seed over the same space
yields the same rank stream no matter which engine unranks it (the RNG
contract of :mod:`repro.util.rng`).

``naive_walk_sample`` implements the obvious-but-wrong alternative the
paper's approach supersedes: walk the memo top-down choosing uniformly
among qualifying operators at every step.  That walk favours plans in
sparsely-populated regions of the space (each plan's probability is the
product of its local choice probabilities, not ``1/N``); experiment E10
quantifies the bias with a chi-square test.
"""

from __future__ import annotations

import random

from repro.optimizer.plan import PlanNode
from repro.planspace.sampling import RankSampler
from tests.planspace.materialized.links import LinkedOperator, LinkedSpace
from repro.util.rng import make_rng
from tests.planspace.materialized.unranking import Unranker, require_group_cardinality

__all__ = ["UniformPlanSampler", "naive_walk_sample"]


class UniformPlanSampler(RankSampler):
    """Uniform sampling over a materialized (linked) space."""

    def __init__(self, space: LinkedSpace, seed: int | random.Random = 0):
        super().__init__(seed)
        self.unranker = Unranker(space)

    @property
    def total(self) -> int:
        return self.unranker.total

    def unrank(self, rank: int) -> PlanNode:
        return self.unranker.unrank(rank)


def naive_walk_sample(
    space: LinkedSpace, n: int, seed: int | random.Random = 0
) -> list[PlanNode]:
    """The biased baseline: uniform local choices instead of uniform plans."""
    rng = make_rng(seed)
    unranker = Unranker(space)  # ensures counts exist for cardinality lookups

    def walk(candidates: tuple[LinkedOperator, ...]) -> PlanNode:
        viable = [c for c in candidates if c.count]
        node = rng.choice(viable)
        children = tuple(walk(node.alternatives[i]) for i in range(node.arity))
        group = space.memo.group(node.expr.group_id)
        return PlanNode(
            op=node.expr.op,
            children=children,
            group_id=node.expr.group_id,
            local_id=node.expr.local_id,
            cardinality=require_group_cardinality(group),
        )

    del unranker  # counts are now annotated on the space
    return [walk(space.roots) for _ in range(n)]
