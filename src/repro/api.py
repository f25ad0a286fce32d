"""The Session facade: the closest thing to a database connection.

Wraps a database + optimizer and executes SQL end-to-end, honouring the
paper's ``OPTION (USEPLAN n)`` extension::

    session = Session.tpch(seed=0)
    session.execute("SELECT ... OPTION (USEPLAN 8)")   # forces plan 8
    session.execute("SELECT ...")                      # optimizer's choice

"Using scripting primitives, any given query can be extended easily with
the OPTION clause and a loop construct that iterates over a
deterministically or randomly selected set of possible plans."
(Section 4.)  :meth:`Session.iterate_plans` is that loop construct.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.errors import BudgetError, PlanSpaceError
from repro.executor.executor import PlanExecutor, QueryResult
from repro.obs import Metrics, Tracer, phase as obs_phase, tracing
from repro.obs.feedback import (
    CardinalityLedger,
    FeedbackReport,
    accuracy_report,
    plan_cost_under_ledger,
)
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
)
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit import CountState, ImplicitPlanSpace
from repro.resilience.budget import Budget, BudgetScope
from repro.serving.cache import (
    CacheIdentity,
    CacheInfo,
    TemplateArtifacts,
    probe_plan,
)
from repro.serving.fingerprint import fingerprint_sql
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.datagen import generate_tpch

__all__ = ["Session", "ExecutedQuery", "PlanSpaceHandle"]

#: Counted statements a session keeps (:meth:`Session.implicit_plan_space`),
#: least recently used first out.  A Section 4 loop iterates a handful of
#: statements many times over; every counted space a session keeps holds
#: its layout, seed memo, key table and operator cache, so an unbounded
#: table is a leak over a long-lived session.
STATEMENT_TABLE_SIZE = 16


def _check_request(
    method: str,
    prune_factor: float | None,
    budgeted: bool,
    on_budget: str,
    feedback,
    kwargs: dict,
) -> None:
    """Refuse an ``optimize`` argument combination that cannot run.

    The one place that decides which arguments go together: the CLI and
    :class:`~repro.serving.PlanServer` pass theirs through unchecked.
    ``budgeted`` says a deadline, cancellation token or ceiling was
    given; ``kwargs`` are the sampling arguments.
    """
    if on_budget not in ("degrade", "raise"):
        raise BudgetError(
            f'on_budget must be "degrade" or "raise", got {on_budget!r}'
        )
    if method == "exhaustive":
        if kwargs:
            raise PlanSpaceError(
                "exhaustive optimization accepts no sampling arguments "
                f"(got {sorted(kwargs)}); did you mean method='sampled'?"
            )
        if prune_factor is not None and prune_factor < 1.0:
            raise PlanSpaceError(
                f"prune_factor must be >= 1.0 (got {prune_factor:g})"
            )
        return
    if method != "sampled":
        raise PlanSpaceError(
            f"unknown optimization method {method!r} "
            "(expected 'exhaustive' or 'sampled')"
        )
    if prune_factor is not None:
        raise PlanSpaceError(
            "prune_factor applies to exhaustive optimization only "
            "(the sampled path never builds the memo it would prune)"
        )
    if budgeted:
        raise PlanSpaceError(
            "deadline_s/cancellation/ceilings apply to exhaustive "
            "optimization (the degradation ladder); the sampled "
            "method takes its own budget_s/samples arguments"
        )
    if feedback is not None and feedback is not False:
        raise PlanSpaceError(
            "feedback re-costing applies to exhaustive optimization "
            "(the sampled path rebuilds its estimates per batch from "
            "catalog statistics)"
        )


@contextmanager
def _optimize_span(tracer: Tracer | None):
    """A traced request's root: ``tracer`` active, one ``optimize`` span
    open.  Untraced (``tracer=None``) it does nothing."""
    if tracer is None:
        yield
        return
    with tracing(tracer), tracer.span("optimize"):
        yield


@dataclass
class PlanSpaceHandle:
    """A query's plan space, as :meth:`Session.plan_space` returns it.

    Forwards the paper's primitives — count, unrank, rank, sample,
    enumerate — to the implicit engine (``space``), which serves every
    production route; no physical memo and no best plan is built.
    """

    space: ImplicitPlanSpace

    def count(self) -> int:
        return self.space.count()

    def unrank(self, rank: int) -> PlanNode:
        return self.space.unrank(rank)

    def rank(self, plan: PlanNode) -> int:
        return self.space.rank(plan)

    def sample(
        self, n: int, seed: int | random.Random = 0, unique: bool = False
    ) -> list[PlanNode]:
        return self.space.sample(n, seed=seed, unique=unique)

    def sample_ranks(
        self, n: int, seed: int | random.Random = 0, unique: bool = False
    ) -> list[int]:
        return self.space.sample_ranks(n, seed=seed, unique=unique)

    def sampler(self, seed: int | random.Random = 0):
        return self.space.sampler(seed)

    def enumerate(self, start: int = 0, stop: int | None = None, step: int = 1):
        return self.space.enumerate(start=start, stop=stop, step=step)

    def all_plans(self, limit: int | None = None) -> list[PlanNode]:
        return self.space.all_plans(limit=limit)

    def describe(self) -> str:
        return self.space.describe()


@dataclass
class ExecutedQuery:
    """The result of one statement plus how it was produced."""

    result: QueryResult
    optimization: OptimizationResult
    used_rank: int | None  # None = optimizer's own plan

    @property
    def rows(self) -> list[tuple]:
        return self.result.rows

    @property
    def columns(self) -> list[str]:
        return self.result.columns


class Session:
    """A connection-like object: parse, optimize, execute.

    A session is used by one thread at a time (a
    :class:`~repro.serving.PlanServer` keeps one per worker): its
    statement table takes no lock.
    """

    def __init__(
        self,
        database: Database,
        options: OptimizerOptions | None = None,
        check_orders: bool = False,
        plan_cache=None,
    ):
        self.database = database
        self.catalog = database.catalog
        self.options = options if options is not None else OptimizerOptions()
        self.executor = PlanExecutor(database, check_orders=check_orders)
        #: optional :class:`repro.serving.PlanCache`: when set, every
        #: exhaustive ``optimize`` call is cache-aware — final plans are
        #: served for exact-match requests, and per-template artifacts
        #: skip exploration on cost-relevant misses.  The cache is
        #: thread-safe and meant to be *shared* across the sessions of a
        #: :class:`repro.serving.PlanServer`.
        self.plan_cache = plan_cache
        self._identity = CacheIdentity(self.catalog, self.options)
        #: the session's metrics registry: fresh (empty) per session,
        #: fed by traced calls (``optimize(..., trace=True)``,
        #: ``explain(analyze=True)``); ``metrics.reset()`` clears it
        self.metrics = Metrics()
        #: the session's cardinality ledger: observed per-subplan
        #: cardinalities keyed by relation bitmask, fed automatically by
        #: every analyzing execution (``execute_detailed(analyze=True)``,
        #: ``execute(feedback=True)``); consumed by
        #: ``optimize(feedback=True)`` and ``estimation_report()``
        self.ledger = CardinalityLedger()
        #: statement text -> its counted space (``implicit_plan_space``);
        #: the catalog and options are fixed for the session's life, so
        #: the text alone is the key
        self._statements: OrderedDict[str, CountState] = OrderedDict()

    # ------------------------------------------------------------------
    @classmethod
    def tpch(
        cls,
        seed: int = 0,
        options: OptimizerOptions | None = None,
        rows: dict[str, int] | None = None,
    ) -> "Session":
        """A session over the micro TPC-H instance with SF=1 statistics."""
        return cls(generate_tpch(seed=seed, rows=rows), options=options)

    # ------------------------------------------------------------------
    def optimize(
        self,
        sql: str,
        method: str = "exhaustive",
        prune_factor: float | None = None,
        deadline_s: float | None = None,
        on_budget: str = "degrade",
        cancellation=None,
        max_expressions: int | None = None,
        max_memory_mb: float | None = None,
        trace: bool = False,
        feedback=None,
        fingerprint=None,
        **kwargs,
    ):
        """Optimize a statement.

        ``method="exhaustive"`` (the default) runs the full memo pipeline
        and returns an :class:`OptimizationResult`.  ``prune_factor``
        additionally applies cost-bound pruning after implementation
        (:func:`repro.optimizer.pruning.prune_memo`): every physical
        alternative whose best achievable rooted cost exceeds
        ``prune_factor`` x its group's best is dropped from the memo the
        result carries — the optimum always survives (factor >= 1.0).

        ``deadline_s`` (exhaustive only) bounds the optimization's wall
        clock; ``max_expressions``/``max_memory_mb`` cap memo size and
        process peak RSS; ``cancellation`` takes a
        :class:`~repro.resilience.CancellationToken` another thread may
        trip.  When any bound bites, ``on_budget="degrade"`` (default)
        falls back exact → sampled → greedy heuristic and reports how on
        ``result.resilience``; ``on_budget="raise"`` propagates the
        budget error instead.

        ``method="sampled"`` runs the memo-free sampled optimizer
        (:class:`repro.sampledopt.SampledOptimizer`) instead and returns
        a :class:`~repro.sampledopt.SampledOptimizationResult` — same
        ``best_plan``/``best_cost``/``explain()`` surface plus sampling
        quality metadata; keyword arguments (``budget_s``, ``samples``,
        ``seed``, ``rule``, ``stratified``) are forwarded.  On
        clique-sized join spaces the sampled path answers in seconds
        where the memo takes minutes.

        ``trace=True`` runs the call under the observability layer
        (:mod:`repro.obs`): ``result.trace`` carries the nested phase
        span tree (``parse`` → ``bind`` → ``setup`` → ``explore`` → ...,
        or the sampled / degradation-tier phases), and the session's
        ``metrics`` registry accumulates hot-loop counters from the same
        checkpoint sites the resilience layer polls.

        ``feedback`` (exhaustive only) re-costs the search under
        execution-observed cardinalities: ``True`` consults the
        session's own ledger (fed by ``execute(feedback=True)`` /
        ``execute_detailed(analyze=True)``), a
        :class:`~repro.obs.CardinalityLedger` is used as given, and a
        path loads a saved ledger JSON.  Every join-level subplan the
        ledger covers is costed at its observed (EWMA) cardinality;
        everything unobserved keeps the static estimate.
        ``result.feedback`` then carries the chosen-plan delta
        (:class:`~repro.obs.FeedbackReport`): whether the plan changed
        versus the estimate-only baseline, and both plans' costs under
        the observed assignment.  It stays ``None`` when the ledger
        covers nothing of this query.

        With a ``plan_cache`` attached (exhaustive only), the call is
        cache-aware: an exact-match request (same template, same literal
        vector, same catalog/config identity, same feedback epoch) is
        served the cached final plan without optimizing at all
        (``result.cache.tier == "plan"``); a plan-tier miss still reuses
        the template's cached artifacts to skip exploration
        (``"template"``); a cold call runs the full pipeline and
        populates both tiers (``"miss"``).  Feedback-costed entries are
        invalidated — re-costed, never served stale — once the ledger's
        stats epoch moves past the q-error threshold.  ``fingerprint``
        is the statement's :class:`~repro.serving.QueryFingerprint` when
        the caller has it already (:class:`~repro.serving.PlanServer`
        scans a statement before it queues it).

        The arguments are checked together (:func:`_check_request`)
        before the cache probe, the feedback ledger's load and the parse:
        a refused request touches no cache counter.
        """
        limits = (deadline_s, cancellation, max_expressions, max_memory_mb)
        budgeted = any(limit is not None for limit in limits)
        _check_request(method, prune_factor, budgeted, on_budget, feedback, kwargs)
        budget = None
        if budgeted:
            budget = Budget(deadline_s, max_expressions, max_memory_mb)
        ledger = self._resolve_feedback(feedback)
        cache = self.plan_cache if method == "exhaustive" else None
        fp = key = artifacts = tokens = None
        if cache is not None:
            result, fp, key = probe_plan(
                cache,
                self._identity,
                sql,
                fingerprint=fingerprint,
                prune_factor=prune_factor,
                ledger=ledger,
                metrics=self.metrics,
            )
            if result is not None:
                if trace:
                    self._trace_cache_hit(result)
                return result
            artifacts = cache.lookup_template(key, metrics=self.metrics)
            tokens = fp.tokens
        tracer = Tracer() if trace else None
        with _optimize_span(tracer):
            result = self._optimize(
                sql,
                method,
                prune_factor,
                budget,
                cancellation,
                on_budget,
                self.metrics if trace else None,
                ledger,
                artifacts,
                tokens,
                kwargs,
            )
        if tracer is not None:
            result.trace = tracer.root
            self._record_result_metrics(result)
        if ledger is not None:
            self._attach_feedback_report(sql, result, ledger)
        if cache is not None:
            self._cache_admit(cache, key, fp, result, ledger, artifacts)
        return result

    # ------------------------------------------------------------------
    # plan-cache plumbing
    # ------------------------------------------------------------------
    def _trace_cache_hit(self, result) -> None:
        """The span tree of a traced plan-tier hit is ``optimize`` →
        ``cache.hit`` — the shape tests assert to prove no optimization
        phase ran."""
        tracer = Tracer()
        with _optimize_span(tracer), obs_phase("cache.hit") as span:
            span.add("hits", result.cache.hits)
        result.trace = tracer.root
        self._record_result_metrics(result)

    def _cache_admit(self, cache, key, fp, result, ledger, artifacts) -> None:
        """Populate the cache from a finished optimization and tag the
        result with how the call interacted with the cache.

        Only exact results are admitted: a degraded (sampled/heuristic)
        plan is a deadline artefact, not the template's plan, and must
        not be served to unhurried callers.  The stored copy drops the
        per-call trace and cache tag.
        """
        resilience = result.resilience
        exact = resilience is None or resilience.tier == "exact"
        if exact and getattr(result, "memo", None) is not None:
            stored = replace(result, trace=None, cache=None)
            cache.store_plan(
                key,
                fp.params,
                stored,
                ledger is not None,
                epoch=ledger.stats_epoch if ledger is not None else None,
            )
            captured = TemplateArtifacts.capture(result)
            if captured is not None:
                cache.store_template(key, captured)
        replayed = result.timings.get("explore_source") == "cached"
        if artifacts is not None and replayed:
            info = CacheInfo(
                tier="template",
                fingerprint=fp.digest,
                template_age_s=artifacts.age_s(),
            )
        else:
            info = CacheInfo(tier="miss", fingerprint=fp.digest)
        try:
            result.cache = info
        except AttributeError:
            pass  # degraded result flavours without the field stay untagged

    def _resolve_feedback(self, feedback):
        """Normalize ``optimize``'s ``feedback`` argument to a ledger.

        ``None``/``False`` → no feedback; ``True`` → the session's own
        ledger; a :class:`~repro.obs.CardinalityLedger` → itself; a
        path → :meth:`CardinalityLedger.load`.  An *empty* ledger
        resolves to ``None``: nothing could be substituted, so the
        byte-identical default path runs and ``result.feedback`` stays
        unset.
        """
        if feedback is None or feedback is False:
            return None
        if feedback is True:
            ledger = self.ledger
        elif isinstance(feedback, CardinalityLedger):
            ledger = feedback
        else:
            ledger = CardinalityLedger.load(feedback)
        return ledger if ledger else None

    def _attach_feedback_report(self, sql: str, result, ledger) -> None:
        """Compute the chosen-plan delta and set ``result.feedback``.

        Re-optimizes the statement *without* the ledger and prices both
        chosen plans under the same observed-cardinality assignment
        (:func:`repro.obs.plan_cost_under_ledger`), so the factor
        measures plan quality under measured reality rather than
        estimate drift.  Skipped (``result.feedback`` stays ``None``)
        when the resilient ladder degraded off the exact tier — the
        served plan never saw the ledger.
        """
        memo = getattr(result, "memo", None)
        graph = getattr(result, "graph", None)
        cost_model = getattr(result, "cost_model", None)
        if memo is None or graph is None or cost_model is None:
            return
        resilience = result.resilience
        if resilience is not None and resilience.tier != "exact":
            return
        substituted = getattr(
            getattr(result, "estimator", None), "feedback_hits", 0
        )
        if not substituted:
            # The ledger covered nothing of this query (e.g. it holds a
            # different universe): the chosen plan IS the baseline, so
            # there is no delta to report — and no baseline to re-derive.
            return
        baseline = Optimizer(self.catalog, result.options).optimize_sql(sql)
        binding = ledger.binding(graph.universe.order)
        baseline_cost_feedback = plan_cost_under_ledger(
            baseline.best_plan, baseline.memo, binding, cost_model
        )
        feedback_cost = plan_cost_under_ledger(
            result.best_plan, memo, binding, cost_model
        )
        result.feedback = FeedbackReport(
            plan_changed=(
                result.best_plan.fingerprint()
                != baseline.best_plan.fingerprint()
            ),
            substituted=substituted,
            baseline_cost=baseline.best_cost,
            baseline_cost_feedback=baseline_cost_feedback,
            feedback_cost=feedback_cost,
            improvement_factor=(
                baseline_cost_feedback / feedback_cost
                if feedback_cost > 0
                else 1.0
            ),
        )

    def _optimize(
        self,
        sql: str,
        method: str,
        prune_factor: float | None,
        budget: Budget | None,
        cancellation,
        on_budget: str,
        observer: Metrics | None,
        ledger,
        artifacts,
        tokens,
        kwargs: dict,
    ):
        """The dispatch behind :meth:`optimize`, on checked arguments:
        ``budget`` and ``cancellation`` send the exhaustive path up the
        degradation ladder, ``observer`` (a traced call's metrics) rides
        a budget-free scope otherwise, ``ledger`` feedback-recosts,
        ``artifacts`` (a template hit) skip exploration, and ``tokens``
        is the cache probe's scan of ``sql``."""
        with obs_phase("parse"):
            statement = parse(sql, tokens)
        with obs_phase("bind"):
            bound = Binder(self.catalog).bind(statement)
        scope = None if observer is None else BudgetScope(observer=observer)
        if method == "sampled":
            from repro.sampledopt import SampledOptimizer

            if scope is not None:
                kwargs.setdefault("scope", scope)
            return SampledOptimizer(self.catalog, self.options).optimize(
                bound, **kwargs
            )
        options = self.options
        if prune_factor is not None:
            options = replace(options, pruning_factor=prune_factor)
        if budget is not None:
            from repro.resilience.degrade import optimize_resilient

            return optimize_resilient(
                self.catalog,
                bound,
                options=options,
                budget=budget,
                token=cancellation,
                on_budget=on_budget,
                observer=observer,
                ledger=ledger,
                artifacts=artifacts,
            )
        return Optimizer(self.catalog, options).optimize(
            bound, scope=scope, ledger=ledger, artifacts=artifacts
        )

    def _record_result_metrics(self, result) -> None:
        """Gauge the result's search-space size into the metrics registry.

        Defensive by design: the three result flavours (exact, sampled,
        heuristic tier) carry different attributes, and a degraded
        resilient result may carry none of them.
        """
        metrics = self.metrics
        memo = getattr(result, "memo", None)
        if memo is not None:
            groups = getattr(memo, "groups", None)
            if groups is not None:
                metrics.set_gauge("memo.groups", len(groups))
            count = getattr(memo, "logical_expression_count", None)
            if callable(count):
                metrics.set_gauge("memo.logical_exprs", count())
            count = getattr(memo, "physical_expression_count", None)
            if callable(count):
                metrics.set_gauge("memo.physical_exprs", count())
        samples = getattr(result, "samples", None)
        if samples is not None:
            metrics.inc("sampler.draws", samples)
        resilience = result.resilience
        if resilience is not None:
            metrics.set_gauge(
                "resilience.attempts", len(resilience.attempts)
            )

    def plan_space(self, sql: str, count_only: bool = False) -> PlanSpaceHandle:
        """The plan space of a query (counting/sampling entry point).

        Built by the implicit engine: no implementation phase, no
        best-plan search, no memo — exact counts, unranking, enumeration
        and uniform sampling (the clique12 memo takes minutes to
        materialize; its implicit count takes seconds).  Its numbering is
        the one ``OPTION (USEPLAN n)`` executes, and its count is the
        session's (:meth:`implicit_plan_space`).  ``count_only`` selects
        nothing: both values build the same space.  It stays accepted
        only because ``benchmarks/perf`` passes it (ROADMAP 1(b) deletes
        it).
        """
        return PlanSpaceHandle(space=self.implicit_plan_space(sql))

    def implicit_plan_space(self, sql: str) -> ImplicitPlanSpace:
        """The implicit plan space of a query (no physical memo).

        Each statement is parsed, laid out and counted once per session:
        its :class:`~repro.planspace.implicit.CountState` (layout, seed
        memo, pair record, counts, key table, operator cache) is kept in
        a table keyed by the statement text, the
        ``STATEMENT_TABLE_SIZE`` most recently used ones.  Every call
        returns a fresh space over the kept state, so the tables an
        unranking fills die with the space.  One thread at a time: the
        table takes no lock.
        """
        states = self._statements
        state = states.get(sql)
        if state is not None:
            states.move_to_end(sql)
            return ImplicitPlanSpace(state)
        bound = Binder(self.catalog).bind(parse(sql))
        space = ImplicitPlanSpace.from_query(self.catalog, bound, options=self.options)
        states[sql] = space.state
        if len(states) > STATEMENT_TABLE_SIZE:
            states.popitem(last=False)
        return space

    def count_plans(self, sql: str) -> int:
        """``N`` for a query.

        With a ``plan_cache`` attached, the count is cached at the
        template tier: ``N`` depends on the join-graph structure only,
        never on literal values, so every literal variant of one template
        shares the answer.
        """
        cache = self.plan_cache
        if cache is None:
            return self.implicit_plan_space(sql).count()
        key = self._identity.key(fingerprint_sql(sql).template)
        count = cache.implicit_count(key, metrics=self.metrics)
        if count is None:
            count = self.implicit_plan_space(sql).count()
            cache.store_implicit_count(key, count)
        return count

    def cost_distribution(
        self,
        sql: str,
        query_name: str = "query",
        sample_size: int = 1000,
        seed: int = 0,
        materialized: bool = False,
        stratified: bool = False,
    ):
        """The query's sampled cost distribution (paper Section 5).

        Memo-free by default (costs scaled to the best plan recombinable
        from the sample); ``materialized=True`` runs the full optimizer
        and scales to its true optimum instead — the paper's exact
        setup, at memo-building prices.  Either way the draws are priced
        on the sampled optimizer's one walk per rank.
        """
        from repro.sampledopt import sampled_distribution

        return sampled_distribution(
            self.catalog,
            sql,
            query_name,
            sample_size=sample_size,
            seed=seed,
            options=self.options,
            stratified=stratified,
            scale_to=self.optimize(sql).best_cost if materialized else None,
            space=self.implicit_plan_space(sql),
        )

    def explain(self, sql: str, analyze: bool = False) -> str:
        """The best plan, rendered.

        ``analyze=True`` additionally *executes* the plan with operator
        instrumentation and renders estimated-vs-actual cardinality (and
        the q-error) per plan node — the classic ``EXPLAIN ANALYZE``.
        """
        if not analyze:
            return self.optimize(sql).explain()
        from repro.obs import render_analyze

        executed = self.execute_detailed(sql, analyze=True)
        header = f"best cost: {executed.optimization.best_cost:,.1f}"
        return header + "\n" + render_analyze(executed.result.stats)

    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        max_rows: int | None = None,
        feedback: bool = False,
    ) -> QueryResult:
        """Execute a statement (honours ``OPTION (USEPLAN n)``).

        ``max_rows`` arms the executor's runaway guard: any operator
        producing more rows raises
        :class:`~repro.errors.ResourceExhausted` instead of materializing
        an exploding intermediate result.

        ``feedback=True`` executes with operator instrumentation and
        folds every observed join-level cardinality into the session's
        ledger (``self.ledger``) — the feeding half of the feedback
        loop that ``optimize(sql, feedback=True)`` consumes.
        """
        return self.execute_detailed(
            sql, max_rows=max_rows, feedback=True if feedback else None
        ).result

    def execute_detailed(
        self,
        sql: str,
        max_rows: int | None = None,
        analyze: bool = False,
        feedback: bool | None = None,
    ) -> ExecutedQuery:
        """Execute and keep the optimization alongside the rows.

        ``analyze=True`` collects per-operator runtime statistics
        (actual rows, wall time) on ``result.stats`` — see
        :class:`repro.obs.ExecutionStats` — and feeds the observed
        join-level cardinalities into the session's ledger
        (``self.ledger``).  ``feedback`` refines that default:
        ``True`` forces instrumentation (implies ``analyze=True``),
        ``False`` analyzes without feeding the ledger, ``None`` (the
        default) feeds exactly when analyzing.
        """
        if feedback:
            analyze = True
        statement = parse(sql)
        bound = Binder(self.catalog).bind(statement)
        optimization = Optimizer(self.catalog, self.options).optimize(bound)

        useplan = bound.options.useplan
        if useplan is None:
            plan = optimization.best_plan
        else:
            space = ImplicitPlanSpace.from_query(
                self.catalog, bound, options=self.options
            )
            total = space.count()
            if useplan >= total:
                raise PlanSpaceError(
                    f"USEPLAN {useplan} out of range: the space holds "
                    f"{total} plans (0..{total - 1})"
                )
            plan = space.unrank(useplan)
        scope = None
        if analyze:
            # Instrumented executions also feed the metrics registry
            # (the `execute.operator` checkpoint site), mirroring what
            # traced optimizations do for the optimizer-side sites.
            from repro.resilience.budget import BudgetScope

            scope = BudgetScope(observer=self.metrics)
        result = self.executor.execute(
            plan, max_rows=max_rows, collect_stats=analyze, scope=scope
        )
        if analyze and feedback is not False and result.stats is not None:
            self.ledger.record_execution(
                result.stats,
                optimization.memo,
                optimization.graph.universe.order,
            )
        return ExecutedQuery(
            result=result, optimization=optimization, used_rank=useplan
        )

    def estimation_report(self, worst_limit: int = 5):
        """Estimation accuracy against this session's observed actuals.

        Summarizes the ledger's q-errors — count/median/p90/max over the
        latest q-error of every observed subplan, plus the worst
        offenders — as an :class:`repro.obs.AccuracyReport`.  Feed the
        ledger first (``execute(feedback=True)`` or
        ``execute_detailed(analyze=True)``).
        """
        return accuracy_report(self.ledger, worst_limit=worst_limit)

    # ------------------------------------------------------------------
    def iterate_plans(
        self,
        sql: str,
        ranks: list[int] | None = None,
        sample: int | None = None,
        seed: int | random.Random = 0,
        implicit: bool = False,
    ) -> Iterator[tuple[int, QueryResult]]:
        """Execute one query under many plans (the Section 4 test loop).

        ``ranks`` runs exactly those plan numbers; ``sample`` draws a
        uniform sample instead; giving neither enumerates the whole space.
        The plans come from :meth:`implicit_plan_space`, so rank ``n`` is
        the plan ``OPTION (USEPLAN n)`` runs, and a statement iterated
        again is not counted again while it is among the session's
        ``STATEMENT_TABLE_SIZE`` most recently used (one thread at a
        time).  ``implicit`` selects nothing: it stays accepted only
        because ``benchmarks/perf`` passes it (ROADMAP 1(b) deletes it).
        Yields ``(rank, result)`` pairs.
        """
        space = self.implicit_plan_space(sql)
        if ranks is None:
            if sample is not None:
                ranks = space.sample_ranks(sample, seed=seed)
            else:
                ranks = range(space.count())  # type: ignore[assignment]
        for rank in ranks:
            plan = space.unrank(rank)
            yield rank, self.executor.execute(plan)
