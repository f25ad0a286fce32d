"""The sampled optimizer's drawn-plan path before the one-walk pool: the
oracle the walk (``FragmentPool.add_ranks``) is diffed against.

Each drawn rank was unranked into a ``PlanNode`` tree (an operator per
node), the batch was priced by ``CostModel.plan_costs``, and every plan
was walked a third time by ``FragmentPool.add_plan``.
``ReferencePlanCoster.cost_ranks`` is ``SampledPlanCoster.cost_ranks``
as it was, verbatim; ``ReferencePool.add_ranks`` is the loop body of
``SampledOptimizer._optimize`` (and of ``sampled_distribution``) that
called it.  Patch both into :mod:`repro.sampledopt.search` and a whole
optimize call runs the old loop.
"""

from __future__ import annotations

from repro.optimizer.plan import PlanNode
from repro.sampledopt.costing import SampledPlanCoster
from repro.sampledopt.search import FragmentPool

__all__ = ["ReferencePlanCoster", "ReferencePool"]


class ReferencePlanCoster(SampledPlanCoster):
    def cost_ranks(self, ranks: list[int]) -> tuple[list[PlanNode], list[float]]:
        """Unrank and price ``ranks``; returns (plans, costs) in order."""
        unrank = self.space.unrank
        plans = [unrank(rank) for rank in ranks]
        return plans, self.cost_batch(plans)


class ReferencePool(FragmentPool):
    """A pool over a :class:`ReferencePlanCoster`."""

    def add_ranks(self, ranks: list[int]) -> list[float]:
        plans, costs = self.coster.cost_ranks(ranks)
        for plan in plans:
            self.add_plan(plan)
        return costs
