"""Sampling-driven optimization: the implicit engine as a serving path.

The paper's machinery (count, unrank, uniform sample) was built to
*study* plan spaces; this package turns it into an optimizer that never
materializes the physical memo:

* :mod:`.costing` — per-row local costs straight off the implicit
  engine (lazily cached group cardinalities; join rows priced without
  building their operators), which sum to ``CostModel.plan_cost``;
* :mod:`.search` — the best-of-k anytime optimizer: sample, walk each
  drawn rank once into the fragment pool and price it on that walk,
  recombine fragments with a dynamic program (exact over the sampled
  sub-memo), consult a stopping rule, repeat; only the returned plan is
  assembled;
* :mod:`.stopping` — fixed-k, cost-plateau and PAO-style quantile-target
  stopping rules;
* :mod:`.strata` — plan-shape strata (contiguous rank intervals keyed by
  operator prefixes) and proportionally allocated stratified sampling;
* :mod:`.analytics` — memo-free cost-distribution reports (quantiles,
  scaled-to-best factors, ``fraction_within`` curves) at clique12-sized
  spaces.

Front doors: ``Session.optimize(sql, method="sampled", ...)``,
``repro optimize --sampled`` and ``repro distribution``.  See
``README.md`` in this directory for the recombination argument and the
RNG contract.
"""

from repro.sampledopt.analytics import (
    distribution_report,
    sampled_distribution,
)
from repro.sampledopt.costing import RowCoster, SampledPlanCoster
from repro.sampledopt.search import (
    BatchPoint,
    FragmentPool,
    SampledOptimizationResult,
    SampledOptimizer,
)
from repro.sampledopt.stopping import (
    CostPlateau,
    FixedSamples,
    QuantileTarget,
    StoppingRule,
    make_rule,
    quantile_bound,
)
from repro.sampledopt.strata import StratifiedSampler, Stratum, rank_strata

__all__ = [
    "BatchPoint",
    "CostPlateau",
    "FixedSamples",
    "FragmentPool",
    "QuantileTarget",
    "RowCoster",
    "SampledOptimizationResult",
    "SampledOptimizer",
    "SampledPlanCoster",
    "StoppingRule",
    "StratifiedSampler",
    "Stratum",
    "distribution_report",
    "make_rule",
    "quantile_bound",
    "rank_strata",
    "sampled_distribution",
]
