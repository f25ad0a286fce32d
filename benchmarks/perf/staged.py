"""The staged pipeline: one request as a sequence of calls into each
layer's *public* functions, with a span around each call.

This is the benchmark's own driver, not the program's: it re-issues a
request by calling ``parse``, ``Binder.bind``, ``build_initial_memo``,
... in the order ``Session.optimize`` / ``PlanServer.optimize`` /
``Session.iterate_plans`` call them, so each layer can be timed from
outside.  Its output must equal the program's (``worker.py`` compares
plan digests), and the spans must add up to the untraced request time
(``client.layers_cover_share``), or the staged run fails: the spans
would no longer describe the request.
"""

from __future__ import annotations

import gc
from collections import defaultdict

from repro.memo.columnar import ColumnarUnsupported, replay_logical_store
from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import implement_memo_columnar
from repro.optimizer.optimizer import OptimizationResult, OptimizerOptions
from repro.optimizer.setup import build_initial_memo
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.layout import ImplicitLayout
from repro.resilience.budget import Budget, BudgetScope
from repro.resilience.degrade import DegradationPolicy
from repro.sampledopt.costing import SampledPlanCoster
from repro.sampledopt.search import FragmentPool
from repro.sampledopt.strata import StratifiedSampler
from repro.serving.cache import CacheKey, TemplateArtifacts
from repro.serving.fingerprint import (
    catalog_signature,
    fingerprint_sql,
    options_signature,
)
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.testing.diff import canonical_rows
from repro.util.gcguard import paused_gc

from .spans import SpanRecorder


class StagedPipeline:
    """Layer-by-layer twin of the program's request paths over one
    catalog.  ``counts`` accumulates the public counters read at the
    layer boundaries (totals; the caller divides by requests)."""

    def __init__(self, recorder: SpanRecorder, catalog):
        self.rec = recorder
        self.catalog = catalog
        self.options = OptimizerOptions()
        self.counts: dict[str, float] = defaultdict(float)
        self._catalog_sig = catalog_signature(catalog)
        self._config_sig = options_signature(self.options, None)

    # ------------------------------------------------------------------
    # sql
    # ------------------------------------------------------------------
    def bind(self, sql: str):
        with self.rec.span("sql.parse"):
            statement = parse(sql)
        with self.rec.span("sql.bind"):
            return Binder(self.catalog).bind(statement)

    # ------------------------------------------------------------------
    # the exact optimizer (Session.optimize without a cache)
    # ------------------------------------------------------------------
    def optimize(self, sql: str, scope=None, artifacts=None) -> OptimizationResult:
        bound = self.bind(sql)
        # as in Optimizer.optimize: the phases' locals (the DP's state
        # tables, the stores) are released before the collector resumes
        with paused_gc():
            return self._phases(bound, scope, artifacts)

    def _phases(self, bound, scope, artifacts) -> OptimizationResult:
        span, opts, catalog = self.rec.span, self.options, self.catalog
        with span("optimizer.setup"):
            setup = build_initial_memo(bound, opts.allow_cross_products)
        memo, graph = setup.memo, setup.graph
        timings = {}
        replayed = False
        if artifacts is not None and artifacts.logical is not None:
            with span("memo.replay"):
                try:
                    store = replay_logical_store(
                        memo, graph, opts.allow_cross_products, artifacts.logical
                    )
                except ColumnarUnsupported:
                    pass
                else:
                    store.attach()
                    replayed = True
                    timings["explore_source"] = "cached"
        if not replayed:
            artifacts = None
            with span("optimizer.explore"):
                EnumerationExplorer().explore(
                    memo, graph, opts.allow_cross_products, scope=scope
                )
        cost_model = CostModel(catalog, opts.cost_params)
        with span("optimizer.annotate"):
            estimator = CardinalityEstimator(catalog, bound)
            annotate_cardinalities(memo, graph, estimator)
        with span("optimizer.implement"):
            edges = artifacts.take_edges(graph) if artifacts is not None else None
            physical = implement_memo_columnar(
                memo,
                graph,
                catalog,
                opts.implementation,
                root_order=bound.order_by,
                scope=scope,
                edges=edges,
            )
        with span("optimizer.bestplan"):
            search = ColumnarBestPlanSearch(
                physical, cost_model, scope=scope, prune_dominated=opts.prune_dominated
            )
            best_plan, best_cost = search.run().best_plan(bound.order_by)
        return OptimizationResult(
            memo=memo,
            query=bound,
            graph=graph,
            best_plan=best_plan,
            best_cost=best_cost,
            root_order=bound.order_by,
            cost_model=cost_model,
            estimator=estimator,
            options=opts,
            timings=timings,
            dp_stats=dict(search.stats),
        )

    def count(self, result: OptimizationResult) -> None:
        """Read the optimizer's public counters off a finished result
        (called outside the request's span: counting is not the request)."""
        counts, memo, stats = self.counts, result.memo, result.dp_stats
        counts["optimizer.explore.logical_exprs"] += memo.logical_expression_count()
        counts["optimizer.implement.physical_exprs"] += memo.physical_expression_count()
        counts["optimizer.bestplan.dp_states"] += stats["states"]
        counts["pruned_states"] += stats["pruned"]

    # ------------------------------------------------------------------
    # the serving path (Session.optimize with a shared PlanCache)
    # ------------------------------------------------------------------
    def serve(self, sql: str, cache, deadline_s: float | None):
        """Returns ``(result, tier)``; ``tier`` as ``result.cache.tier``."""
        span = self.rec.span
        with span("serving.fingerprint"):
            fp = fingerprint_sql(sql)
        with span("serving.cache.lookup"):
            key = CacheKey(
                template=fp.template, catalog=self._catalog_sig, config=self._config_sig
            )
            entry = cache.lookup_plan(key, fp.params, False)
            artifacts = None if entry is not None else cache.lookup_template(key)
        if entry is not None:
            return entry.result, "plan"
        scope = None
        if deadline_s is not None:
            # the exact tier's slice of the deadline, as optimize_resilient
            # carves it
            share = DegradationPolicy().exact_fraction
            scope = BudgetScope(Budget(deadline_s=deadline_s * share))
        result = self.optimize(sql, scope=scope, artifacts=artifacts)
        with span("serving.cache.admit"):
            cache.store_plan(key, fp.params, result, False)
            captured = TemplateArtifacts.capture(result)
            if captured is not None:
                cache.store_template(key, captured)
        replayed = result.timings.get("explore_source") == "cached"
        return result, "template" if replayed else "miss"

    # ------------------------------------------------------------------
    # the implicit plan space
    # ------------------------------------------------------------------
    def plan_space(self, sql: str) -> ImplicitPlanSpace:
        bound = self.bind(sql)
        opts = self.options
        with self.rec.span("planspace.layout"):
            layout = ImplicitLayout(bound, opts.allow_cross_products)
        with self.rec.span("planspace.count"):
            state = CountState(
                layout=layout, catalog=self.catalog, config=opts.implementation
            ).compute()
            space = ImplicitPlanSpace(state)
        self.counts["planspace.count.groups"] += len(layout.groups)
        self.counts["spaces"] += 1
        return space

    def sample_ranks(self, space: ImplicitPlanSpace, n: int, seed: int) -> list[int]:
        with self.rec.span("planspace.sample_ranks"):
            return space.sample_ranks(n, seed=seed)

    def test_plan(self, space, rank: int, executor, expected) -> bool:
        """One step of the Section 4 loop: unrank, execute, compare."""
        span = self.rec.span
        with span("planspace.unrank"):
            plan = space.unrank(rank)
        with span("executor.execute"):
            result = executor.execute(plan)
        with span("testing.compare"):
            same = canonical_rows(result.rows) == expected
        self.counts["unranks"] += 1
        self.counts["executor.rows_out"] += len(result.rows)
        return same

    # ------------------------------------------------------------------
    # the sampled optimizer (Session.optimize(method="sampled", samples=k))
    # ------------------------------------------------------------------
    def sampled(self, sql: str, samples: int, seed: int):
        """Returns ``(best_plan, best_cost)`` of one fixed-``k`` batch.

        ``SampledOptimizer.optimize`` pauses the collector for the whole
        call and resumes it on return, so the pass it deferred runs after
        the call, outside the request.  This method pauses it the same
        way and leaves it paused: the caller resumes it once the
        request's span is closed, which puts that pass outside the
        request on the staged side too."""
        span = self.rec.span
        gc.disable()
        space = self.plan_space(sql)
        coster = SampledPlanCoster(self.catalog, space, self.options.cost_params)
        pool = FragmentPool(space, coster)
        with span("sampledopt.strata"):
            ranks = StratifiedSampler(space, seed=seed).sample_ranks(samples)
        with span("planspace.unrank"):
            plans = [space.unrank(rank) for rank in ranks]
        with span("sampledopt.cost"):
            coster.cost_batch(plans)
        with span("sampledopt.recombine"):
            for plan in plans:
                pool.add_plan(plan)
            best_cost, choice = pool.solve()
            best_plan = pool.assemble(choice)
        self.counts["unranks"] += len(ranks)
        self.counts["sampledopt.fragments"] += len(pool)
        return best_plan, best_cost
