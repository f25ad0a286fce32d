"""Cost-distribution analytics without the memo (paper Section 5 at
sizes the memo path cannot reach).

This is the one Section 5 pricing path.  The implicit engine counts
and samples, and the fragment pool prices each drawn plan on its one
walk (no plan is assembled).  Costs are scaled either to a
caller-provided optimum or to the best *known* plan — by default the
recombined best of the very sample being analyzed, so the report is
self-contained ("scaled-to-best factors") and large spaces need no memo
at all.  ``experiments/distributions.py`` runs the full optimizer per
query for the true optimum (fine for TPC-H-sized memos,
minutes-to-hours for clique12) and prices its draws here.  The result
is the same :class:`CostDistribution` object the Table 1 / Figure 4
harness consumes, so every downstream statistic (quantiles,
``fraction_within`` curves, Gamma shape, skewness) works unchanged.
"""

from __future__ import annotations

import random

from repro.catalog.catalog import Catalog
from repro.errors import PlanSpaceError, ReproError
from repro.experiments.distributions import CostDistribution
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.sampledopt.costing import SampledPlanCoster
from repro.sampledopt.search import FragmentPool
from repro.sampledopt.strata import StratifiedSampler
from repro.sql.binder import Binder
from repro.sql.parser import parse

__all__ = [
    "sampled_distribution",
    "distribution_report",
    "DEFAULT_QUANTILES",
    "DEFAULT_FACTORS",
]

DEFAULT_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
DEFAULT_FACTORS = (1.5, 2.0, 5.0, 10.0, 100.0)


def sampled_distribution(
    catalog: Catalog,
    sql: str | None,
    query_name: str,
    sample_size: int = 1000,
    seed: int | random.Random = 0,
    options=None,
    stratified: bool = False,
    scale_to: float | None = None,
    space: ImplicitPlanSpace | None = None,
) -> CostDistribution:
    """Sample a query's cost distribution from the implicit engine.

    ``scale_to`` fixes the denominator (pass the materialized optimizer's
    ``best_cost`` to reproduce the paper's scaled-to-optimum numbers);
    when omitted the costs are scaled to the best plan *recombinable*
    from the sample itself (see :mod:`.search` — never worse than the
    best sampled plan), so large spaces need no memo at all.  With
    ``stratified=True`` the sample is proportionally allocated across
    plan-shape strata (variance reduction; a different — still
    deterministic — rank stream than plain sampling).  ``space``
    (optional) is the query's already-built plan space; ``sql`` is then
    not read.
    """
    from repro.optimizer.optimizer import OptimizerOptions

    if sample_size <= 0:
        raise ReproError(
            f"distribution sample size must be positive, got {sample_size}"
        )
    if options is None:
        options = OptimizerOptions()
    if space is None:
        bound = Binder(catalog).bind(parse(sql))
        space = ImplicitPlanSpace.from_query(catalog, bound, options=options)
    coster = SampledPlanCoster(catalog, space, options.cost_params)
    if stratified:
        ranks = StratifiedSampler(space, seed=seed).sample_ranks(sample_size)
    else:
        ranks = space.sample_ranks(sample_size, seed=seed)
    pool = FragmentPool(space, coster)
    costs = pool.add_ranks(ranks)
    if scale_to is None:
        scale_to, _choice = pool.solve()
    if scale_to <= 0:
        raise PlanSpaceError(
            f"cannot scale costs to non-positive optimum {scale_to}"
        )
    return CostDistribution(
        query_name=query_name,
        allow_cross_products=options.allow_cross_products,
        total_plans=space.count(),
        best_cost=scale_to,
        scaled_costs=[cost / scale_to for cost in costs],
        seed=seed if isinstance(seed, int) else 0,
    )


def distribution_report(
    dist: CostDistribution,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
    factors: tuple[float, ...] = DEFAULT_FACTORS,
    scaled_to_optimum: bool = False,
) -> str:
    """Human-readable analytics block for one distribution."""
    denominator = "optimum" if scaled_to_optimum else "best known plan"
    lines = [
        f"{dist.query_name} "
        f"({'with' if dist.allow_cross_products else 'no'} cross products): "
        f"N = {dist.total_plans:,} plans, sample = {dist.sample_size}",
        f"costs scaled to the {denominator} (cost {dist.best_cost:,.1f})",
        f"min {dist.minimum():.3f}x  median {dist.median():.3f}x  "
        f"mean {dist.mean():.3f}x  max {dist.maximum():.3f}x",
        "quantiles: "
        + "  ".join(f"p{int(q * 100):02d}={v:.2f}x" for q, v in dist.quantiles(list(quantiles))),
        "within factor: "
        + "  ".join(
            f"<={factor:g}x: {fraction:.1%}"
            for factor, fraction in dist.fraction_within_curve(list(factors))
        ),
    ]
    shape = dist.gamma_shape()
    if shape is not None:
        lines.append(f"gamma shape: {shape:.3f}")
    return "\n".join(lines)
