"""Best-of-k sampled optimization with fragment recombination.

The driver loop is anytime: draw a batch of uniform (optionally
stratified) ranks, walk each into the fragment pool and price it on the
same walk (no plan is assembled for a draw), update the incumbent,
consult the stopping rule, repeat until the rule fires or the wall-clock
budget runs out.  Two incumbents are tracked:

* the **best sampled plan** — plain best-of-k, the quantity the paper's
  cost-distribution experiments (and the quantile-target guarantee)
  speak about;
* the **recombined plan** — the best plan assemblable from *fragments*
  of all sampled plans.  Plan cost decomposes per node, and a node's
  local cost depends on its children only through their *group*
  cardinalities — a group property, identical for every alternative
  subtree of the same ``(group, requirement)`` context.  Sampled subtrees
  for the same context are therefore freely interchangeable, and a
  dynamic program over the pool of sampled fragments finds the exact
  optimum of the *recombined* space — effectively best-of-``k^depth``
  for the price of best-of-``k``.  (This is the memo's own dynamic
  programming argument, run over the sampled sub-memo instead of the full
  one.)

The recombined cost is monotone in the pool, never worse than the best
sampled cost, and in practice lands within a small factor of the true
optimum after a few hundred samples even on clique-sized spaces whose
memos take minutes to build.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.errors import PlanSpaceError, ReproError
from repro.obs.trace import active_tracer, phase as obs_phase
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.resilience.budget import validate_budget_s, validate_samples
from repro.resilience.faults import fault_point
from repro.sampledopt.costing import SampledPlanCoster
from repro.sampledopt.stopping import (
    CostPlateau,
    StoppingRule,
    quantile_bound,
)
from repro.sampledopt.strata import StratifiedSampler
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parser import parse
from repro.util.gcguard import paused_gc
from repro.util.rng import make_rng

__all__ = [
    "BatchPoint",
    "FragmentPool",
    "SampledOptimizationResult",
    "SampledOptimizer",
]

#: default per-batch sample count (one stopping-rule consultation each)
DEFAULT_BATCH_SIZE = 128
#: default cap on total samples (the plateau rule usually fires earlier)
DEFAULT_MAX_SAMPLES = 384
#: the ``TableSet`` counters the "sample" trace record carries
FIRST_TOUCH = ("tables", "candidate_lists", "rows_built", "operators_built")


@dataclass
class BatchPoint:
    """One point of the anytime trajectory (after one costed batch)."""

    samples: int
    elapsed_s: float
    best_sampled_cost: float
    best_cost: float  # after recombination


class FragmentPool:
    """Sampled plan fragments, pooled by ``(group, requirement)`` context.

    ``add_ranks`` walks each drawn rank's rows once
    (``ImplicitUnranker.descend``), recording which rows have been
    observed in which context and summing their local costs;
    ``add_plan`` records an already assembled plan the same way.
    ``solve`` runs the dynamic program over the pooled contexts and
    ``assemble`` builds the plan it chose — the only plan whose join
    operators are built.  All of them are loops over explicit work
    lists, so chain-query plans of any depth are safe, and no closure
    refers back to the pool: it and the space it holds are freed by
    reference count when the optimize call returns.
    """

    def __init__(self, space: ImplicitPlanSpace, coster: SampledPlanCoster):
        self.space = space
        self.tables = space.unranker.tables
        self.coster = coster
        self.root_ctx = space.unranker.root_ctx
        #: ctx -> {local_id: Row}
        self.fragments: dict[tuple, dict[int, object]] = {}

    def __len__(self) -> int:
        return sum(len(rows) for rows in self.fragments.values())

    def add_ranks(self, ranks: list[int]) -> list[float]:
        """Pool the rows of plans ``ranks`` and return their costs.

        One walk per rank.  Rows enter the pool in ``add_plan``'s order
        (pre-order, last slot first: ``solve`` breaks ties by it) and
        their local costs are added in ``CostModel.plan_cost``'s order —
        the same order — so each cost is ``plan_cost(space.unrank(rank))``
        to the bit.
        """
        fragments = self.fragments
        local_cost = self.coster.rows.local_cost
        descend = self.space.unranker.descend
        costs = []
        for rank in ranks:
            total = 0.0
            for ctx, row, _ in descend(rank):
                pooled = fragments.get(ctx)
                if pooled is None:
                    fragments[ctx] = pooled = {}
                pooled[row.local_id] = row
                total += local_cost(ctx[0], row)
            costs.append(total)
        return costs

    def add_plan(self, plan: PlanNode) -> None:
        tables = self.tables
        fragments = self.fragments
        stack = [(plan, self.root_ctx)]
        while stack:
            node, ctx = stack.pop()
            row = tables.table(node.group_id).row_by_local(node.local_id)
            pooled = fragments.get(ctx)
            if pooled is None:
                fragments[ctx] = pooled = {}
            pooled[node.local_id] = row
            stack.extend(zip(node.children, row.slots))

    # ------------------------------------------------------------------
    def solve(self) -> tuple[float, dict[tuple, int]]:
        """The recombination DP: cheapest assemblable cost per context.

        Returns ``(best total cost at the root, ctx -> chosen local_id)``.
        Post-order over the context DAG with an explicit stack; each
        context is solved once per call.
        """
        fragments = self.fragments
        local_cost = self.coster.rows.local_cost
        best: dict[tuple, float] = {}
        choice: dict[tuple, int] = {}
        stack: list[tuple[tuple, bool]] = [(self.root_ctx, False)]
        while stack:
            ctx, ready = stack.pop()
            if ctx in best:
                continue
            rows = fragments.get(ctx)
            if rows is None:  # pragma: no cover - pool always covers slots
                raise PlanSpaceError(f"no sampled fragment for context {ctx}")
            if not ready:
                stack.append((ctx, True))
                for row in rows.values():
                    for slot in row.slots:
                        if slot not in best:
                            stack.append((slot, False))
                continue
            best_cost = None
            best_local = None
            gid = ctx[0]
            for local_id, row in rows.items():
                cost = local_cost(gid, row)
                for slot in row.slots:
                    cost += best[slot]
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_local = local_id
            best[ctx] = best_cost
            choice[ctx] = best_local
        return best[self.root_ctx], choice

    def assemble(self, choice: dict[tuple, int]) -> PlanNode:
        """Build the recombined plan from the DP's per-context choices."""
        tables = self.tables
        rows = {}
        order = [self.root_ctx]
        for ctx in order:  # grows as it is walked: parents before slots
            rows[ctx] = row = self.fragments[ctx][choice[ctx]]
            order.extend(row.slots)
        nodes: dict[tuple, PlanNode] = {}
        for ctx in reversed(order):
            gid, row = ctx[0], rows[ctx]
            nodes[ctx] = PlanNode(
                op=tables.operator(gid, row),
                children=tuple(nodes[slot] for slot in row.slots),
                group_id=gid,
                local_id=row.local_id,
                cardinality=tables.cardinality(gid),
            )
        return nodes[self.root_ctx]


@dataclass
class SampledOptimizationResult:
    """What one sampled-optimization run produced.

    Field-compatible with the materialized
    :class:`~repro.optimizer.optimizer.OptimizationResult` where it
    matters (``best_plan``, ``best_cost``, ``query``, ``options``,
    ``timings``, ``explain()``) so ``Session`` and the executor treat
    both interchangeably — plus the sampling-quality metadata the
    materialized result has no notion of.
    """

    best_plan: PlanNode
    best_cost: float
    query: BoundQuery
    options: object
    total_plans: int
    samples: int
    batches: int
    best_sampled_cost: float
    best_sampled_rank: int
    stopped_because: str
    rule: str
    seed: int | None
    stratified: bool
    #: confidence the run's rule asked for (0.95 unless a QuantileTarget
    #: said otherwise); the default level certificates are reported at
    confidence: float = 0.95
    history: list[BatchPoint] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    #: :class:`repro.resilience.degrade.ResilienceReport` when the run
    #: was served by a budgeted ``Session.optimize``; ``None`` otherwise
    resilience: object | None = None
    #: root :class:`repro.obs.trace.Span` when the run was traced;
    #: ``None`` otherwise
    trace: object | None = None

    @property
    def elapsed_s(self) -> float:
        return sum(self.timings.values())

    def quantile_certificate(self, confidence: float | None = None) -> float | None:
        """With probability ``confidence`` (default: the run's own), the
        best *sampled* plan is in the best ``q`` fraction of the space —
        recombination only improves on it.  The bound holds for i.i.d.
        uniform draws only, so stratified runs return ``None`` (strata
        allocation constrains the draws; no such guarantee exists)."""
        if self.stratified:
            return None
        if confidence is None:
            confidence = self.confidence
        return quantile_bound(self.samples, confidence)

    def explain(self) -> str:
        lines = [
            f"best cost: {self.best_cost:,.1f} (sampled; best pure sample "
            f"{self.best_sampled_cost:,.1f} of {self.samples} from "
            f"{self.total_plans:,} plans)",
            self.best_plan.render(),
        ]
        return "\n".join(lines)

    def describe(self) -> str:
        certificate = self.quantile_certificate()
        quality = (
            f" (top {certificate:.2e} of the space at "
            f"{self.confidence:.0%} confidence)"
            if certificate is not None
            else " (stratified draw: no i.i.d. quantile certificate)"
        )
        return (
            f"sampled optimization: {self.samples} samples in "
            f"{self.batches} batches ({self.rule}; stopped: "
            f"{self.stopped_because}); best sampled "
            f"{self.best_sampled_cost:,.1f}{quality}, "
            f"recombined {self.best_cost:,.1f}; {self.elapsed_s:.2f}s"
        )


class SampledOptimizer:
    """Memo-free anytime optimizer: uniform sampling + recombination."""

    def __init__(self, catalog: Catalog, options=None):
        from repro.optimizer.optimizer import OptimizerOptions

        self.catalog = catalog
        self.options = options if options is not None else OptimizerOptions()

    # ------------------------------------------------------------------
    def optimize_sql(self, sql: str, **kwargs) -> SampledOptimizationResult:
        with obs_phase("parse"):
            statement = parse(sql)
        with obs_phase("bind"):
            bound = Binder(self.catalog).bind(statement)
        return self.optimize(bound, **kwargs)

    def optimize(
        self,
        query: BoundQuery,
        samples: int | None = None,
        budget_s: float | None = None,
        rule: StoppingRule | None = None,
        seed: int | random.Random = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        stratified: bool | None = None,
        space: ImplicitPlanSpace | None = None,
        scope=None,
    ) -> SampledOptimizationResult:
        """See :meth:`_optimize`; the cycle collector is paused for the
        duration (as in ``Optimizer.optimize``): sampling allocates many
        short-lived tuples and lists, and on a large heap —
        e.g. a memo from an earlier exhaustive run — generational passes
        only add pauses.  The request's space (layout, count state, group
        tables, fragment pool) is owner-points-down and dies by reference
        count on return, leaving the collector nothing (see
        ``planspace/implicit/README.md``, "Ownership and lifetime").  The
        pause is ref-counted, so a server
        worker degrading to this tier does not re-enable the collector
        under a sibling's in-flight exact optimize."""
        with paused_gc():
            return self._optimize(
                query,
                samples=samples,
                budget_s=budget_s,
                rule=rule,
                seed=seed,
                batch_size=batch_size,
                stratified=stratified,
                space=space,
                scope=scope,
            )

    def _optimize(
        self,
        query: BoundQuery,
        samples: int | None = None,
        budget_s: float | None = None,
        rule: StoppingRule | None = None,
        seed: int | random.Random = 0,
        batch_size: int = DEFAULT_BATCH_SIZE,
        stratified: bool | None = None,
        space: ImplicitPlanSpace | None = None,
        scope=None,
    ) -> SampledOptimizationResult:
        """Sampled-optimize a bound query.

        ``samples`` caps the total draw (and is the fixed-k budget when
        no ``rule`` is given); ``budget_s`` is a wall-clock budget over
        the whole call including the implicit-space build; ``rule``
        decides when sampling stops paying (default: cost plateau).
        ``stratified`` draws each batch proportionally across plan-shape
        strata instead of globally uniformly — lower variance, guaranteed
        structural coverage, and faster unranking (plans of a stratum
        share group tables).  It defaults to on, *except* under a
        :class:`QuantileTarget` rule, whose top-``q`` guarantee holds for
        i.i.d. uniform draws only (asking for both explicitly is an
        error).  A pre-built ``space`` skips the build (for callers that
        already counted).
        """
        from repro.sampledopt.stopping import FixedSamples, QuantileTarget

        validate_samples(samples)
        validate_budget_s(budget_s)
        validate_samples(batch_size, name="batch_size")
        start = time.perf_counter()
        timings: dict[str, float] = {}
        with obs_phase("space") as span:
            if space is None:
                space = ImplicitPlanSpace.from_query(
                    self.catalog, query, options=self.options, scope=scope
                )
        timings["space"] = span.elapsed_s

        if rule is None:
            rule = (
                FixedSamples(samples)
                if samples is not None
                else CostPlateau()
            )
        needs_uniform = isinstance(rule, QuantileTarget)
        if stratified is None:
            stratified = not needs_uniform
        elif stratified and needs_uniform:
            raise ReproError(
                "the quantile-target rule's guarantee holds for i.i.d. "
                "uniform samples only; drop stratified=True (or use a "
                "fixed-k/plateau rule)"
            )
        if samples is not None:
            max_samples = samples
        else:
            # rules that imply a sample size (fixed-k, quantile-target)
            # override the default cap
            max_samples = getattr(rule, "required_samples", DEFAULT_MAX_SAMPLES)
        rule.start(space.count())

        coster = SampledPlanCoster(
            self.catalog, space, self.options.cost_params
        )
        pool = FragmentPool(space, coster)
        if stratified:
            # the strata's descent touches tables too: its own counters
            with obs_phase("strata") as span:
                before = [getattr(pool.tables, name) for name in FIRST_TOUCH]
                sampler = StratifiedSampler(space, seed=seed)
                for name, was in zip(FIRST_TOUCH, before):
                    span.add(name, getattr(pool.tables, name) - was)
            timings["strata"] = span.elapsed_s
            draw = sampler.sample_ranks
        else:
            plain = space.sampler(seed=seed)
            draw = plain.sample_ranks
        before = [getattr(pool.tables, name) for name in FIRST_TOUCH]

        best_sampled_cost = float("inf")
        best_sampled_rank = -1
        best_cost = float("inf")
        history: list[BatchPoint] = []
        drawn = 0
        batches = 0
        sample_time = 0.0
        solve_time = 0.0
        deadline = None if budget_s is None else start + budget_s
        choice: dict[tuple, int] = {}
        total = space.count()
        while drawn < max_samples:
            batch = min(batch_size, max_samples - drawn)
            fault_point("sampled.batch", pool)
            if scope is not None:
                scope.checkpoint("sampled.batch", batch)
            tick = time.perf_counter()
            ranks = draw(batch)
            costs = pool.add_ranks(ranks)
            for rank, cost in zip(ranks, costs):
                if cost < best_sampled_cost:
                    best_sampled_cost = cost
                    best_sampled_rank = rank
            drawn += len(ranks)
            batches += 1
            sample_time += time.perf_counter() - tick

            tick = time.perf_counter()
            best_cost, choice = pool.solve()
            solve_time += time.perf_counter() - tick
            history.append(
                BatchPoint(
                    samples=drawn,
                    elapsed_s=time.perf_counter() - start,
                    best_sampled_cost=best_sampled_cost,
                    best_cost=best_cost,
                )
            )
            if rule.update(drawn, best_cost):
                stopped = "rule"
                break
            if deadline is not None and time.perf_counter() >= deadline:
                stopped = "budget"
                break
        else:
            stopped = "samples"
        timings["sample"] = sample_time
        timings["recombine"] = solve_time
        tracer = active_tracer()
        if tracer is not None:
            # The sample/recombine phases interleave per batch, so their
            # spans attach post-hoc from the accumulated wall times — the
            # same numbers the timings dict reports.
            counters = {"samples": drawn, "batches": batches}
            for name, was in zip(FIRST_TOUCH, before):
                counters[name] = getattr(pool.tables, name) - was
            tracer.record("sample", sample_time, counters=counters)
            tracer.record(
                "recombine", solve_time, counters={"fragments": len(pool)}
            )

        with obs_phase("assemble") as span:
            was = pool.tables.operators_built
            best_plan = pool.assemble(choice)
            span.add("operators_built", pool.tables.operators_built - was)
            # the space's whole cache: the leaves' and tower's operators
            # plus the returned plan's joins and sorts
            span.add("operators_cached", pool.tables.operators_built)
        timings["assemble"] = span.elapsed_s

        return SampledOptimizationResult(
            best_plan=best_plan,
            best_cost=best_cost,
            query=query,
            options=self.options,
            total_plans=total,
            samples=drawn,
            batches=batches,
            best_sampled_cost=best_sampled_cost,
            best_sampled_rank=best_sampled_rank,
            stopped_because=stopped,
            rule=rule.describe(),
            seed=seed if isinstance(seed, int) else None,
            stratified=stratified,
            confidence=getattr(rule, "confidence", 0.95),
            history=history,
            timings=timings,
        )
