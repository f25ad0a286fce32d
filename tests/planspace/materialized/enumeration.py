"""Exhaustive generation of the plan space.

"When the space of alternatives becomes too large for exhaustive testing,
which can occur even with a handful of joins, uniform random sampling
provides a mechanism for unbiased testing" — but for small spaces the
paper's Section 4 enumerates everything.  This module provides lazy
iteration over ranks ``0..N-1`` (optionally a sub-range or a stride).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import RankOutOfRangeError
from repro.optimizer.plan import PlanNode
from tests.planspace.materialized.links import LinkedSpace
from tests.planspace.materialized.unranking import Unranker

__all__ = ["enumerate_plans"]


def enumerate_plans(
    space: LinkedSpace,
    start: int = 0,
    stop: int | None = None,
    step: int = 1,
) -> Iterator[tuple[int, PlanNode]]:
    """Yield ``(rank, plan)`` pairs for ranks ``start, start+step, ...``.

    ``stop`` defaults to the space total ``N``.  The iterator is lazy:
    enumerating the first plans of an astronomically large space costs
    only as much as the plans actually consumed.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    unranker = Unranker(space)
    total = unranker.total
    if stop is None:
        stop = total
    if stop > total:
        raise RankOutOfRangeError(stop - 1, total)
    if start < 0:
        raise RankOutOfRangeError(start, total)
    for rank in range(start, stop, step):
        yield rank, unranker.unrank(rank)
