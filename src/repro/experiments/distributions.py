"""Cost distributions over uniformly sampled plans (paper Section 5).

"Each experiment consists of a random sample of 10,000 plans from the
space.  All costs are normalized to the optimum plan found by the
optimizer, which has cost 1.0."

:func:`sample_cost_distribution` runs the full pipeline for one query —
optimize, open the plan space, draw a uniform sample, price it on the
sampled optimizer's walk (:func:`repro.sampledopt.sampled_distribution`,
the one Section 5 pricing path), scale by the optimum — and returns a
:class:`CostDistribution` with the summary statistics the paper's
Table 1 reports plus everything Figure 4 needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
)
from repro.planspace.implicit import ImplicitPlanSpace

__all__ = ["CostDistribution", "sample_cost_distribution", "distribution_from_result"]


@dataclass
class CostDistribution:
    """Scaled-cost sample for one query/one search space."""

    query_name: str
    allow_cross_products: bool
    total_plans: int
    best_cost: float
    scaled_costs: list[float] = field(default_factory=list)
    seed: int = 0

    # ------------------------------------------------------------------
    @property
    def sample_size(self) -> int:
        return len(self.scaled_costs)

    def minimum(self) -> float:
        return min(self.scaled_costs)

    def mean(self) -> float:
        return sum(self.scaled_costs) / len(self.scaled_costs)

    def maximum(self) -> float:
        return max(self.scaled_costs)

    def median(self) -> float:
        ordered = sorted(self.scaled_costs)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def fraction_within(self, factor: float) -> float:
        """Fraction of sampled plans with cost <= ``factor`` x optimum."""
        hits = sum(1 for cost in self.scaled_costs if cost <= factor)
        return hits / len(self.scaled_costs)

    def fraction_within_curve(
        self, factors: list[float]
    ) -> list[tuple[float, float]]:
        """``(factor, fraction_within(factor))`` for each requested factor
        — the paper's "how much of the space is within f x optimum"
        curves, one call for a whole report."""
        ordered = sorted(self.scaled_costs)
        n = len(ordered)
        curve = []
        for factor in factors:
            hits = bisect_right(ordered, factor)
            curve.append((factor, hits / n))
        return curve

    @staticmethod
    def _quantile_of(ordered: list[float], q: float) -> float:
        """``q``-quantile of a pre-sorted sample (linear interpolation
        between order statistics)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if len(ordered) == 1:
            return ordered[0]
        position = q * (len(ordered) - 1)
        lo = int(position)
        hi = min(lo + 1, len(ordered) - 1)
        weight = position - lo
        return ordered[lo] * (1.0 - weight) + ordered[hi] * weight

    def quantile(self, q: float) -> float:
        """The ``q``-quantile of the scaled costs (0 <= q <= 1)."""
        return self._quantile_of(sorted(self.scaled_costs), q)

    def quantiles(self, qs: list[float]) -> list[tuple[float, float]]:
        """``(q, quantile(q))`` for each requested ``q`` (one sort for
        the whole batch — reports ask for many quantiles of 10k+ samples)."""
        ordered = sorted(self.scaled_costs)
        return [(q, self._quantile_of(ordered, q)) for q in qs]

    def lower_half(self) -> list[float]:
        """The lower 50% of the sampled costs (Figure 4's zoom-in)."""
        ordered = sorted(self.scaled_costs)
        return ordered[: max(1, len(ordered) // 2)]

    # ------------------------------------------------------------------
    def gamma_shape(self) -> float | None:
        """Max-likelihood Gamma shape of ``scaled_costs - 1``.

        The paper observes distributions "resembling exponential
        distributions.  These shapes correspond to Gamma-distributions
        with shape parameter close to 1".  Returns ``None`` when scipy is
        unavailable or the sample is degenerate.
        """
        shifted = [c - 1.0 for c in self.scaled_costs if c > 1.0]
        if len(shifted) < 10:
            return None
        try:
            from scipy import stats
        except ImportError:  # pragma: no cover - scipy is installed here
            return None
        shape, _loc, _scale = stats.gamma.fit(shifted, floc=0.0)
        return float(shape)

    def skewness(self) -> float:
        """Sample skewness (asymmetric, right-tailed distributions > 0)."""
        n = len(self.scaled_costs)
        mean = self.mean()
        m2 = sum((c - mean) ** 2 for c in self.scaled_costs) / n
        m3 = sum((c - mean) ** 3 for c in self.scaled_costs) / n
        if m2 <= 0:
            return 0.0
        return m3 / math.sqrt(m2) ** 3

    def describe(self) -> str:
        return (
            f"{self.query_name} ({'with' if self.allow_cross_products else 'no'} "
            f"cross products): N={self.total_plans:,}, sample={self.sample_size}, "
            f"min={self.minimum():.2f}, mean={self.mean():.0f}, "
            f"max={self.maximum():.0f}, <=2x: {self.fraction_within(2):.2%}, "
            f"<=10x: {self.fraction_within(10):.2%}"
        )


def distribution_from_result(
    result: OptimizationResult,
    query_name: str,
    sample_size: int = 10_000,
    seed: int = 0,
) -> CostDistribution:
    """Sample the cost distribution of an already-optimized query,
    scaled to its optimum."""
    # Deferred: the sampled analytics import CostDistribution from here.
    from repro.sampledopt.analytics import sampled_distribution

    catalog, options = result.cost_model.catalog, result.options
    space = ImplicitPlanSpace.from_query(catalog, result.query, options=options)
    return sampled_distribution(
        catalog,
        None,
        query_name,
        sample_size,
        seed,
        options,
        scale_to=result.best_cost,
        space=space,
    )


def sample_cost_distribution(
    catalog: Catalog,
    sql: str,
    query_name: str,
    allow_cross_products: bool = False,
    sample_size: int = 10_000,
    seed: int = 0,
    options: OptimizerOptions | None = None,
) -> CostDistribution:
    """Optimize ``sql`` and sample its plan-space cost distribution."""
    if options is None:
        options = OptimizerOptions(allow_cross_products=allow_cross_products)
    result = Optimizer(catalog, options).optimize_sql(sql)
    return distribution_from_result(
        result, query_name, sample_size=sample_size, seed=seed
    )
