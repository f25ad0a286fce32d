"""The rank-sampling contract.

"Once an unranking mechanism is available, uniform sampling of elements
in the space reduces to random generation of numbers in the range
0, ..., N-1."  (Section 1.)

:class:`RankSampler` is the shared sampling contract: every sampler —
the implicit engine's
(:class:`repro.planspace.implicit.sampling.ImplicitPlanSampler`) and the
materialized oracle's under ``tests/`` — draws ranks through exactly this
code, so the same seed over the same space yields the same rank stream no
matter which engine unranks it (the RNG contract of
:mod:`repro.util.rng`).
"""

from __future__ import annotations

import random

from repro.optimizer.plan import PlanNode
from repro.util.rng import make_rng

__all__ = ["RankSampler"]


class RankSampler:
    """Uniform random plans via random ranks + unranking.

    Subclasses provide ``total`` and ``unrank``; the rank-drawing logic
    lives here once so engines cannot drift apart.  All draws go through
    ``rng.randrange(total)`` (or ``rng.sample`` for dense unique draws) —
    change nothing here without versioning the RNG contract.
    """

    def __init__(self, seed: int | random.Random = 0):
        self.rng = make_rng(seed)

    @property
    def total(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def unrank(self, rank: int) -> PlanNode:  # pragma: no cover - abstract
        raise NotImplementedError

    def sample_rank(self) -> int:
        return self.rng.randrange(self.total)

    def sample_ranks(self, n: int, unique: bool = False) -> list[int]:
        """``n`` uniform ranks; ``unique=True`` samples without replacement
        (requires ``n <= N``).  A negative ``n`` is refused, never read as
        an empty sample."""
        if n < 0:
            raise ValueError(f"sample size must be non-negative, got {n}")
        if not unique:
            return [self.sample_rank() for _ in range(n)]
        if n > self.total:
            raise ValueError(
                f"cannot draw {n} distinct plans from a space of {self.total}"
            )
        if n * 4 >= self.total:
            # Dense draw: sample from the explicit range.
            return self.rng.sample(range(self.total), n)
        seen: set[int] = set()
        while len(seen) < n:
            seen.add(self.sample_rank())
        return sorted(seen)

    def sample(self, n: int, unique: bool = False) -> list[PlanNode]:
        return [self.unrank(r) for r in self.sample_ranks(n, unique)]

    def sample_one(self) -> PlanNode:
        return self.unrank(self.sample_rank())
