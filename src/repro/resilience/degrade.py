"""Graceful degradation: exact → sampled → greedy, under one budget.

:func:`optimize_resilient` serves an executable plan from the best tier
the budget allows:

1. **exact** — the full memo-based optimization, given
   ``exact_fraction`` of the remaining deadline (so a too-tight deadline
   leaves room for the fallbacks instead of being consumed whole);
2. **sampled** — stratified sampled optimization with recombination
   (the paper's memo-free engine), given everything still remaining;
3. **heuristic** — the greedy join order tier, unbudgeted: it costs
   milliseconds and must always succeed.

Each tier runs under its own child :class:`~repro.resilience.budget.Budget`
carved out of the shared deadline; expression/memory ceilings are
re-applied per tier (a fresh expression counter each attempt — the
deadline alone is global).  A tier that raises any exception — budget,
cancellation, or an arbitrary fault — is recorded and the ladder moves
on; with ``on_budget="raise"`` the first budget error propagates
instead.  Cancellation degrades straight to the heuristic tier (the
sampled tier would observe the same cancelled token at its first
checkpoint), as does a breached *memory* ceiling (peak RSS never
shrinks, so re-trying a cheaper tier under the same ceiling cannot
pass).

Every serve attaches a :class:`ResilienceReport` (served tier, trigger,
per-tier attempts with elapsed times) to the result's ``resilience``
attribute.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import (
    BudgetError,
    Cancelled,
    ResourceExhausted,
    TimeoutExceeded,
)
from repro.obs.trace import phase as obs_phase
from repro.resilience.budget import Budget, BudgetScope, CancellationToken
from repro.sql.binder import BoundQuery

__all__ = ["DegradationPolicy", "ResilienceReport", "TierAttempt", "optimize_resilient"]

#: ladder order; the report's ``tier`` is always one of these
TIERS = ("exact", "sampled", "heuristic")


@dataclass
class TierAttempt:
    """One tier's outcome within a resilient optimization."""

    tier: str
    outcome: str  # "served" | "timeout" | "cancelled" | "resource" | "error" | "skipped"
    elapsed_s: float = 0.0
    detail: str | None = None

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "outcome": self.outcome,
            "elapsed_s": self.elapsed_s,
            "detail": self.detail,
        }


@dataclass
class ResilienceReport:
    """How a budgeted optimization was served."""

    tier: str  # the tier that produced the plan
    trigger: str | None  # why degradation happened; None when exact served
    deadline_s: float | None
    elapsed_s: float
    attempts: list[TierAttempt] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.tier != "exact"

    def to_dict(self) -> dict:
        return {
            "tier": self.tier,
            "trigger": self.trigger,
            "deadline_s": self.deadline_s,
            "elapsed_s": self.elapsed_s,
            "attempts": [a.to_dict() for a in self.attempts],
        }

    def describe(self) -> str:
        deadline = (
            f"{self.deadline_s:g}s deadline"
            if self.deadline_s is not None
            else "no deadline"
        )
        path = " -> ".join(
            f"{a.tier}:{a.outcome}({a.elapsed_s:.2f}s)" for a in self.attempts
        )
        cause = f", trigger {self.trigger}" if self.trigger else ""
        return (
            f"served from the {self.tier} tier under {deadline} "
            f"in {self.elapsed_s:.2f}s{cause} [{path}]"
        )


@dataclass(frozen=True)
class DegradationPolicy:
    """Knobs of the ladder.

    ``exact_fraction`` caps the exact tier's share of the remaining
    deadline so the fallbacks keep a reserve.  ``min_tier_s`` skips the
    sampled tier outright when less wall clock than this remains (its
    space build would only burn the reserve).  ``sampled_seed`` and
    ``sampled_batch_size`` make the sampled tier deterministic and
    checkpoint-friendly.
    """

    exact_fraction: float = 0.5
    min_tier_s: float = 0.02
    sampled_seed: int = 0
    sampled_batch_size: int = 64

    def __post_init__(self):
        if not 0.0 < self.exact_fraction <= 1.0:
            raise BudgetError(
                f"exact_fraction must be in (0, 1], got {self.exact_fraction!r}"
            )


def _classify(exc: BaseException) -> str:
    if isinstance(exc, Cancelled):
        return "cancelled"
    if isinstance(exc, TimeoutExceeded):
        return "timeout"
    if isinstance(exc, ResourceExhausted):
        return "resource"
    return "error"


def _child_scope(
    budget: Budget,
    token: CancellationToken | None,
    deadline_fraction: float | None,
    observer=None,
) -> BudgetScope:
    """A per-tier scope: its own deadline slice and a fresh expression
    counter, sharing the parent's ceilings, the cancellation token, and
    the metrics observer."""
    remaining = budget.remaining_s()
    deadline = None
    if remaining is not None:
        share = remaining if deadline_fraction is None else remaining * deadline_fraction
        # An already-expired parent still yields a constructible child:
        # the first checkpoint raises TimeoutExceeded.
        deadline = max(share, 1e-9)
    child = Budget(
        deadline_s=deadline,
        max_expressions=budget.max_expressions,
        max_memory_mb=budget.max_memory_mb,
    )
    return BudgetScope(child, token, observer=observer)


def optimize_resilient(
    catalog: Catalog,
    query: BoundQuery,
    options=None,
    budget: Budget | None = None,
    token: CancellationToken | None = None,
    on_budget: str = "degrade",
    policy: DegradationPolicy | None = None,
    observer=None,
    ledger=None,
    artifacts=None,
):
    """Optimize under ``budget``; degrade through the tiers as needed.

    Returns an :class:`~repro.optimizer.optimizer.OptimizationResult`
    (exact / heuristic tier) or a
    :class:`~repro.sampledopt.search.SampledOptimizationResult` (sampled
    tier), with ``result.resilience`` set either way.  With
    ``on_budget="raise"`` the first budget error (or cancellation)
    propagates instead of degrading; non-budget faults still degrade —
    a broken tier is not the caller's deadline policy's business.
    ``observer`` (a :class:`~repro.obs.metrics.Metrics` registry) rides
    the per-tier scopes' checkpoints and counts degradation triggers.
    ``ledger`` (a :class:`~repro.obs.feedback.CardinalityLedger`)
    feedback-recosts the exact tier; the sampled and heuristic tiers
    ignore it (their estimators are rebuilt from catalog statistics).
    ``artifacts`` (a :class:`~repro.serving.cache.TemplateArtifacts`
    bundle) likewise feeds the exact tier only — the sampled and
    heuristic tiers never run exploration, so a cached logical template
    buys them nothing.
    """
    # Deferred imports: this module is reachable from repro.resilience,
    # which the optimizer stack imports for fault_point.
    from repro.optimizer.optimizer import Optimizer, OptimizerOptions
    from repro.resilience.heuristic import optimize_heuristic
    from repro.sampledopt.search import SampledOptimizer

    if on_budget not in ("degrade", "raise"):
        raise BudgetError(
            f'on_budget must be "degrade" or "raise", got {on_budget!r}'
        )
    if options is None:
        options = OptimizerOptions()
    if budget is None:
        budget = Budget()
    if policy is None:
        policy = DegradationPolicy()
    budget.start()

    attempts: list[TierAttempt] = []
    trigger: str | None = None
    skip_sampled_reason: str | None = None

    def finish(result, tier: str, tier_started: float):
        attempts.append(
            TierAttempt(
                tier=tier,
                outcome="served",
                elapsed_s=time.perf_counter() - tier_started,
            )
        )
        result.resilience = ResilienceReport(
            tier=tier,
            trigger=trigger,
            deadline_s=budget.deadline_s,
            elapsed_s=budget.elapsed_s(),
            attempts=attempts,
        )
        return result

    # ------------------------------------------------------------ exact
    started = time.perf_counter()
    has_fallback_budget = budget.deadline_s is not None
    scope = _child_scope(
        budget,
        token,
        policy.exact_fraction if has_fallback_budget else None,
        observer,
    )
    try:
        with obs_phase("tier.exact"):
            result = Optimizer(catalog, options).optimize(
                query, scope=scope, ledger=ledger, artifacts=artifacts
            )
    except Exception as exc:
        outcome = _classify(exc)
        if on_budget == "raise" and isinstance(exc, (BudgetError, Cancelled)):
            raise
        attempts.append(
            TierAttempt(
                tier="exact",
                outcome=outcome,
                elapsed_s=time.perf_counter() - started,
                detail=repr(exc),
            )
        )
        trigger = outcome
        if observer is not None:
            observer.inc("degrade.triggers")
        if outcome == "cancelled":
            skip_sampled_reason = "cancellation token is set"
        elif (
            isinstance(exc, ResourceExhausted) and exc.resource == "memory"
        ):
            skip_sampled_reason = "peak RSS already over the ceiling"
    else:
        return finish(result, "exact", started)

    # ---------------------------------------------------------- sampled
    started = time.perf_counter()
    remaining = budget.remaining_s()
    if skip_sampled_reason is None and remaining is not None:
        if remaining < policy.min_tier_s:
            skip_sampled_reason = (
                f"{remaining:.3f}s left, under the {policy.min_tier_s:g}s floor"
            )
    if skip_sampled_reason is not None:
        attempts.append(
            TierAttempt(
                tier="sampled", outcome="skipped", detail=skip_sampled_reason
            )
        )
    else:
        scope = _child_scope(budget, token, None, observer)
        try:
            with obs_phase("tier.sampled"):
                result = SampledOptimizer(catalog, options).optimize(
                    query,
                    budget_s=remaining,
                    seed=policy.sampled_seed,
                    batch_size=policy.sampled_batch_size,
                    stratified=True,
                    scope=scope,
                )
        except Exception as exc:
            outcome = _classify(exc)
            if on_budget == "raise" and isinstance(exc, (BudgetError, Cancelled)):
                raise
            attempts.append(
                TierAttempt(
                    tier="sampled",
                    outcome=outcome,
                    elapsed_s=time.perf_counter() - started,
                    detail=repr(exc),
                )
            )
            trigger = outcome
            if observer is not None:
                observer.inc("degrade.triggers")
        else:
            return finish(result, "sampled", started)

    # -------------------------------------------------------- heuristic
    # Unbudgeted by design: always serves.
    started = time.perf_counter()
    with obs_phase("tier.heuristic"):
        result = optimize_heuristic(catalog, query, options)
    return finish(result, "heuristic", started)
