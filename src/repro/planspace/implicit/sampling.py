"""Uniform sampling over the implicit space.

Thin binding of the shared :class:`~repro.planspace.sampling.RankSampler`
contract to the implicit unranker: identical seed, identical space ⇒
identical ranks as the materialized oracle's sampler — the property
suite asserts the streams match rank for rank.
"""

from __future__ import annotations

import random

from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.unranking import ImplicitUnranker
from repro.planspace.sampling import RankSampler

__all__ = ["ImplicitPlanSampler"]


class ImplicitPlanSampler(RankSampler):
    """Uniform random plans from an implicit space."""

    def __init__(self, unranker: ImplicitUnranker, seed: int | random.Random = 0):
        super().__init__(seed)
        self.unranker = unranker

    @property
    def total(self) -> int:
        return self.unranker.total

    def unrank(self, rank: int) -> PlanNode:
        return self.unranker.unrank(rank)
