"""The optimizer facade: SQL (or bound query) in, optimized memo out.

Runs the full pipeline the paper assumes: copy-in, exploration,
implementation (plus enforcers), cardinality annotation, best-plan
extraction — and hands the finished memo to the plan-space toolkit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.memo.columnar import ColumnarUnsupported, replay_logical_store
from repro.memo.memo import Memo
from repro.obs.trace import active_tracer, phase as obs_phase
from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import (
    ImplementationConfig,
    implement_memo_columnar,
)
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plan import PlanNode
from repro.optimizer.pruning import prune_memo
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parser import parse
from repro.util.gcguard import paused_gc

__all__ = [
    "OptimizerOptions",
    "OptimizationResult",
    "Optimizer",
]


def _detach_stale_stores(memo: Memo) -> None:
    """Drop incomplete columnar stores from the memo.

    A store whose build was interrupted never attaches (the builders set
    ``complete`` only on full success, and ``attach`` refuses otherwise),
    but a fault between attach and the phase's return — or deliberate
    corruption in the fault-injection matrix — could leave a broken store
    installed.  Resilience invariant: after any failed optimization the
    memo's columnar references are either complete or gone.
    """
    store = getattr(memo, "columnar", None)
    if store is not None and not getattr(store, "complete", False):
        memo.columnar = None
    logical = getattr(memo, "columnar_logical", None)
    if logical is not None and not getattr(logical, "complete", False):
        memo.columnar_logical = None


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs controlling the shape of the search space.

    ``allow_cross_products`` selects between the two spaces of the paper's
    Table 1.  How the space is explored is not an option: the bottom-up
    :class:`~repro.optimizer.explorer.EnumerationExplorer` populates every
    memo (restricted spaces, such as a rule engine's commute-only
    closure, are not reachable from here).  ``pruning_factor`` (off by
    default, as the paper recommends for testing) applies cost-bound
    pruning after optimization.  Which engine serves a query is not an
    option, nor a function of the query: there is one — the
    struct-of-arrays columnar store and its layered DP — and a query past
    its limits (63 relations, 254 distinct key columns) is refused before
    exploration with the error naming the limit.
    """

    allow_cross_products: bool = False
    implementation: ImplementationConfig = field(default_factory=ImplementationConfig)
    cost_params: CostParameters = field(default_factory=CostParameters)
    pruning_factor: float | None = None
    #: dominated-state pruning in the columnar DP (identical/empty
    #: candidate intervals collapse before the range scan); chosen
    #: plans and costs are identical either way.
    prune_dominated: bool = True


@dataclass
class OptimizationResult:
    """Everything produced by one optimizer run.

    The query's plan space (:class:`repro.planspace.ImplicitPlanSpace`)
    is built from ``query`` + ``options``, so its plan numbers do not
    depend on the memo a degraded tier shrank; the paper-literal oracle
    under ``tests/`` reads ``memo`` + ``root_order``.  The executor
    consumes plans; the experiment harness consumes ``best_cost`` for
    cost scaling.
    """

    memo: Memo
    query: BoundQuery
    graph: JoinGraph
    best_plan: PlanNode
    best_cost: float
    root_order: tuple
    cost_model: CostModel
    estimator: CardinalityEstimator
    options: OptimizerOptions
    timings: dict[str, float] = field(default_factory=dict)
    #: what served: "columnar" (the exact optimizer) or "heuristic" (the
    #: degradation ladder's last tier; its sampled tier returns a
    #: ``SampledOptimizationResult``, which has no such field)
    engine: str = "columnar"
    #: why the exact optimizer did not serve; set by the heuristic tier
    fallback_reason: str | None = None
    #: best-plan DP statistics (state and pruned-state counts) of an
    #: exact run; ``None`` on the heuristic tier
    dp_stats: dict | None = None
    #: :class:`repro.resilience.degrade.ResilienceReport` when the run
    #: went through a budgeted ``Session.optimize``; ``None`` otherwise
    resilience: object | None = None
    #: root :class:`repro.obs.trace.Span` when the run was traced
    #: (``Session.optimize(trace=True)`` / ``repro trace``); ``None``
    #: otherwise
    trace: object | None = None
    #: :class:`repro.obs.feedback.FeedbackReport` when the run re-costed
    #: under an execution-feedback ledger (``Session.optimize(sql,
    #: feedback=...)``); ``None`` otherwise
    feedback: object | None = None
    #: :class:`repro.serving.cache.CacheInfo` when the call went through
    #: a plan-cache-enabled session (hit tier, template age); ``None``
    #: otherwise
    cache: object | None = None

    def explain(self) -> str:
        """EXPLAIN-style description of the chosen plan."""
        lines = [
            f"best cost: {self.best_cost:,.1f}",
            self.best_plan.render(),
        ]
        return "\n".join(lines)


class Optimizer:
    """Cost-based optimizer over a catalog."""

    def __init__(self, catalog: Catalog, options: OptimizerOptions | None = None):
        self.catalog = catalog
        self.options = options if options is not None else OptimizerOptions()

    # ------------------------------------------------------------------
    def optimize_sql(
        self, sql: str, scope=None, ledger=None, artifacts=None
    ) -> OptimizationResult:
        """Parse, bind, and optimize one SELECT statement."""
        with obs_phase("parse"):
            statement = parse(sql)
        with obs_phase("bind"):
            bound = Binder(self.catalog).bind(statement)
        return self.optimize(bound, scope=scope, ledger=ledger, artifacts=artifacts)

    def optimize(
        self, query: BoundQuery, scope=None, ledger=None, artifacts=None
    ) -> OptimizationResult:
        """Optimize a bound query: returns the memo and the best plan.

        ``scope`` is an optional :class:`repro.resilience.budget.BudgetScope`
        consulted at checkpoints in every phase's hot loop; ``None`` (the
        default) skips the checkpoints entirely, so the unbudgeted path
        is unchanged.

        ``ledger`` is an optional
        :class:`~repro.obs.feedback.CardinalityLedger`: the annotate
        phase substitutes execution-observed cardinalities for every
        join-level group the ledger covers, so costing — and hence the
        chosen plan — reflects measured reality instead of the static
        estimate.  ``None`` (the default) is byte-identical to the
        historical path.

        ``artifacts`` is an optional
        :class:`~repro.serving.cache.TemplateArtifacts` bundle captured
        from a prior optimization of the same query template: the
        explore phase replays the cached logical store instead of
        enumerating (span ``explore.cached``), and implementation
        reuses the cached edge catalog.  A bundle that fails its
        consistency checks is ignored and the normal phases run.

        The cycle collector is paused for the duration: optimization
        allocates hundreds of thousands of short-lived tuples and memo
        expressions, none of them garbage before the call returns, so
        generational GC passes only add pauses.  What it returns is
        cycle-free: the memo owns its columnar stores, which read it back
        through a weak reference, and join predicates cache nothing on
        themselves, so a dropped result is freed by reference count, not
        left for a later full collection.  The pause is
        ref-counted (:func:`repro.util.gcguard.paused_gc`) so
        overlapping optimizations on sibling threads do not re-enable
        the collector for each other mid-flight.
        """
        with paused_gc():
            return self._optimize(
                query, scope=scope, ledger=ledger, artifacts=artifacts
            )

    def _optimize(
        self, query: BoundQuery, scope=None, ledger=None, artifacts=None
    ) -> OptimizationResult:
        opts = self.options
        timings: dict[str, float] = {}

        with obs_phase("setup") as span:
            setup = build_initial_memo(query, opts.allow_cross_products)
            memo, graph = setup.memo, setup.graph
        timings["setup"] = span.elapsed_s

        # Any interruption below (budget, cancellation, injected fault)
        # must not leave a half-built columnar store reachable through
        # the memo: detach anything incomplete before re-raising.  The
        # builders only attach *after* marking themselves complete, so
        # this is a backstop for corruption between attach and return.
        try:
            return self._optimize_phases(
                query,
                memo,
                graph,
                timings,
                scope=scope,
                ledger=ledger,
                artifacts=artifacts,
            )
        except BaseException:
            _detach_stale_stores(memo)
            raise

    def _explore_phase(self, memo, graph, timings, scope, traced, artifacts):
        """Exploration: replay cached template artifacts when available
        (span ``explore.cached``, no enumeration), otherwise run the
        enumeration explorer.  A replay that fails its consistency checks
        falls through to normal exploration — the memo is untouched
        beyond group creation either way."""
        opts = self.options
        replayed = False
        if getattr(artifacts, "logical", None) is not None:
            with obs_phase("explore.cached") as span:
                try:
                    store = replay_logical_store(
                        memo, graph, opts.allow_cross_products, artifacts.logical
                    )
                except ColumnarUnsupported:
                    store = None
                else:
                    store.attach()
                    replayed = True
                if traced and replayed:
                    span.add("groups", len(memo.groups))
                    span.add("logical_exprs", memo.logical_expression_count())
            if replayed:
                timings["explore"] = span.elapsed_s
                # Non-float sentinel: rendered by no timing report, read
                # by the serving layer to label the cache tier honestly.
                timings["explore_source"] = "cached"
                return True
        with obs_phase("explore") as span:
            EnumerationExplorer().explore(
                memo, graph, opts.allow_cross_products, scope=scope
            )
            if traced:
                span.add("groups", len(memo.groups))
                span.add("logical_exprs", memo.logical_expression_count())
        timings["explore"] = span.elapsed_s
        return False

    def _optimize_phases(
        self,
        query: BoundQuery,
        memo: Memo,
        graph: JoinGraph,
        timings,
        scope=None,
        ledger=None,
        artifacts=None,
    ) -> OptimizationResult:
        opts = self.options
        traced = active_tracer() is not None

        replayed = self._explore_phase(
            memo, graph, timings, scope, traced, artifacts
        )
        if not replayed:
            artifacts = None  # stale bundle: do not reuse its edges either

        cost_model = CostModel(self.catalog, opts.cost_params)

        # Annotate first (it reads only the logical side, which
        # exploration finished), then implementation and the best-plan
        # DP back to back under one span — the two halves of the
        # single-pass exact hot path, with the columnar store handing
        # its requirement stream and merge state ids straight to the DP.
        estimator = self._annotate_phase(query, memo, graph, timings, ledger)
        with obs_phase("fused") as fspan:
            store = self._implement_phase(
                query, memo, graph, timings, scope, traced, artifacts
            )
            dp, best_plan, best_cost = self._bestplan_phase(
                query, store, cost_model, timings, scope, traced
            )
        timings["fused"] = fspan.elapsed_s
        dp_stats = dict(dp.stats)

        if opts.pruning_factor is not None:
            with obs_phase("prune") as span:
                # Survival is judged by the DP that chose the plan, so
                # the plan (and its local ids) survives as extracted.
                prune_memo(memo, cost_model, opts.pruning_factor, search=dp)
            timings["prune"] = span.elapsed_s

        return OptimizationResult(
            memo=memo,
            query=query,
            graph=graph,
            best_plan=best_plan,
            best_cost=best_cost,
            root_order=query.order_by,
            cost_model=cost_model,
            estimator=estimator,
            options=opts,
            timings=timings,
            dp_stats=dp_stats,
        )

    # ------------------------------------------------------------------
    def _implement_phase(
        self, query, memo, graph, timings, scope, traced, artifacts=None
    ):
        """Implementation onto the columnar (struct-of-arrays) store:
        batched operator blocks, no GroupExpr objects; the object memo
        facade materializes lazily from it."""
        opts = self.options
        edges = None
        if artifacts is not None:
            edges = artifacts.take_edges(graph)
        with obs_phase("implement") as span:
            store = implement_memo_columnar(
                memo,
                graph,
                self.catalog,
                opts.implementation,
                root_order=query.order_by,
                scope=scope,
                edges=edges,
            )
            if traced:
                span.add("physical_exprs", memo.physical_expression_count())
        timings["implement"] = span.elapsed_s
        return store

    def _annotate_phase(self, query, memo, graph, timings, ledger):
        traced = active_tracer() is not None
        with obs_phase("annotate") as span:
            estimator = CardinalityEstimator(self.catalog, query, ledger=ledger)
            annotate_cardinalities(memo, graph, estimator)
            if traced and estimator.feedback_hits:
                span.add("feedback_substituted", estimator.feedback_hits)
        timings["annotate"] = span.elapsed_s
        return estimator

    def _bestplan_phase(self, query, store, cost_model, timings, scope, traced):
        with obs_phase("bestplan") as span:
            dp = ColumnarBestPlanSearch(
                store,
                cost_model,
                scope=scope,
                prune_dominated=self.options.prune_dominated,
            )
            best_plan, best_cost = dp.run().best_plan(query.order_by)
            if traced:
                span.add("states", dp.stats["states"])
                span.add("pruned_states", dp.stats["pruned"])
        timings["bestplan"] = span.elapsed_s
        return dp, best_plan, best_cost

