"""Command-line interface.

Exposes the paper's primitives over the bundled TPC-H micro database::

    python -m repro count Q5 --cross-products
    python -m repro explain "SELECT ... FROM ..."
    python -m repro unrank Q3 13
    python -m repro sample Q5 -n 10 --analyze
    python -m repro execute "SELECT ... OPTION (USEPLAN 8)"
    python -m repro validate Q3 --sample 100
    python -m repro table1 --samples 2000 --queries Q5,Q9

Query arguments accept either a named TPC-H query (``Q3``, ``Q5``, ...)
or literal SQL.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import Session
from repro.errors import (
    BudgetError,
    Cancelled,
    ReproError,
    ResourceExhausted,
    TimeoutExceeded,
)
from repro.experiments.analysis import analyze_plans
from repro.experiments.figure4 import figure4_histogram
from repro.experiments.table1 import render_table1, reproduce_table1
from repro.optimizer.optimizer import OptimizerOptions
from repro.testing.harness import PlanValidator
from repro.workloads.tpch_queries import TPCH_QUERIES

__all__ = ["main", "build_parser"]


def _resolve_sql(query: str) -> str:
    named = TPCH_QUERIES.get(query.upper())
    if named is not None:
        return named.sql
    if "select" not in query.lower():
        known = ", ".join(sorted(TPCH_QUERIES))
        raise ReproError(
            f"{query!r} is neither a known TPC-H query ({known}) nor SQL"
        )
    return query


def _session(args) -> Session:
    options = OptimizerOptions(allow_cross_products=args.cross_products)
    return Session.tpch(seed=args.data_seed, options=options)


def _positive_int(text: str) -> int:
    """argparse type for a sample size: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Counting, enumerating, and sampling of execution plans "
        "(Waas & Galindo-Legaria, SIGMOD 2000).",
    )
    parser.add_argument(
        "--cross-products",
        action="store_true",
        help="allow Cartesian products in the search space",
    )
    parser.add_argument(
        "--data-seed", type=int, default=0, help="micro database seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count the plan space of a query")
    count.add_argument("query", help="TPC-H query name or SQL")

    optimize = sub.add_parser(
        "optimize",
        help="optimize a query (exhaustive memo, or --sampled for the "
        "memo-free sampling-driven path)",
    )
    optimize.add_argument("query", help="TPC-H query name or SQL")
    optimize.add_argument(
        "--sampled",
        action="store_true",
        help="sample + recombine over the implicit engine instead of "
        "building the physical memo (seconds on clique-sized spaces)",
    )
    optimize.add_argument(
        "--prune-factor",
        type=float,
        default=None,
        help="apply cost-bound pruning after implementation: drop "
        "physical alternatives whose best rooted cost exceeds FACTOR x "
        "the group optimum (>= 1.0; the best plan always survives)",
    )
    optimize.add_argument(
        "--samples", type=int, default=None, help="sample budget (fixed-k)"
    )
    optimize.add_argument("--seed", type=int, default=None)
    optimize.add_argument(
        "--budget-s",
        type=float,
        default=None,
        help="wall-clock budget in seconds (anytime: best plan so far)",
    )
    optimize.add_argument(
        "--rule",
        choices=("fixed", "plateau", "quantile"),
        default=None,
        help="stopping rule (default: plateau; fixed needs --samples)",
    )
    optimize.add_argument(
        "--quantile",
        type=float,
        default=None,
        help="target quantile for --rule quantile (default 1e-4)",
    )
    optimize.add_argument(
        "--confidence",
        type=float,
        default=None,
        help="confidence for --rule quantile (default 0.95)",
    )
    optimize.add_argument(
        "--uniform",
        dest="stratified",
        action="store_const",
        const=False,
        help="plain uniform sampling instead of stratified batches",
    )
    optimize.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="wall-clock deadline for exhaustive optimization; on expiry "
        "the degradation ladder (exact -> sampled -> greedy) still serves "
        "an executable plan",
    )
    optimize.add_argument(
        "--on-budget",
        choices=("degrade", "raise"),
        help="what to do when the deadline bites: serve a degraded plan "
        "(default) or fail with a budget error",
    )
    optimize.add_argument(
        "--feedback",
        metavar="LEDGER.json",
        default=None,
        help="re-cost under a saved cardinality ledger (see `execute "
        "--feedback-out` / `accuracy`): observed subplan cardinalities "
        "replace the estimates, and the chosen-plan delta is reported",
    )
    optimize.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="also print engine, phase timings, the feedback re-costing "
        "delta (with --feedback), and — when a deadline triggered "
        "degradation — the tier-by-tier attempt log",
    )

    trace = sub.add_parser(
        "trace",
        help="optimize under the observability layer: nested phase spans "
        "with wall time and counters, plus hot-loop metrics",
    )
    trace.add_argument("query", help="TPC-H query name or SQL")
    trace.add_argument(
        "--sampled",
        action="store_true",
        help="trace the memo-free sampled optimizer instead",
    )
    trace.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="run under a deadline (traces the degradation ladder's tiers)",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="emit {trace, metrics} as JSON instead of rendered tables",
    )
    trace.add_argument(
        "--chrome-trace",
        metavar="OUT.json",
        default=None,
        help="additionally write the span tree as Chrome trace-event "
        "JSON (load in chrome://tracing or ui.perfetto.dev)",
    )

    accuracy = sub.add_parser(
        "accuracy",
        help="estimation-accuracy report (q-error summary and worst "
        "subplans) from a cardinality ledger",
    )
    accuracy.add_argument(
        "--ledger",
        metavar="LEDGER.json",
        default=None,
        help="report on a saved ledger instead of executing --queries",
    )
    accuracy.add_argument(
        "--queries",
        default="Q3",
        help="comma-separated queries to execute instrumented when no "
        "--ledger is given (default: Q3)",
    )
    accuracy.add_argument(
        "--worst", type=int, default=5, help="worst offenders to list"
    )
    accuracy.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of a rendered summary",
    )

    metrics = sub.add_parser(
        "metrics",
        help="optimize a query instrumented and dump the session metrics "
        "registry (Prometheus text exposition by default)",
    )
    metrics.add_argument("query", help="TPC-H query name or SQL")
    metrics.add_argument(
        "--execute",
        action="store_true",
        help="also execute the chosen plan instrumented (adds the "
        "execute.operator series)",
    )
    metrics.add_argument(
        "--json",
        action="store_true",
        help="emit the registry snapshot as JSON instead of Prometheus "
        "text",
    )

    serve = sub.add_parser(
        "serve",
        help="load-drive the plan-serving front end: a thread-pool of "
        "clients firing queries through the fingerprint plan cache, "
        "reporting QPS, latency percentiles and cache counters",
    )
    serve.add_argument(
        "--queries",
        default="Q3,Q5",
        help="comma-separated TPC-H query names or SQL, cycled across "
        "requests (default: Q3,Q5)",
    )
    serve.add_argument(
        "--clients", type=int, default=8, help="worker threads (default: 8)"
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=64,
        help="total requests to serve (default: 64)",
    )
    serve.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        help="per-request optimization deadline (degrades, never stalls)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="serve uncached (every request optimizes from scratch; the "
        "cold baseline)",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the server stats as JSON instead of a rendered summary",
    )

    distribution = sub.add_parser(
        "distribution",
        help="cost-distribution analytics over a uniform plan sample "
        "(memo-free by default; --materialized scales to the true optimum)",
    )
    distribution.add_argument("query", help="TPC-H query name or SQL")
    distribution.add_argument("--samples", type=int, default=1000)
    distribution.add_argument("--seed", type=int, default=0)
    distribution.add_argument(
        "--materialized",
        action="store_true",
        help="build the memo and scale costs to the optimizer's best plan",
    )
    distribution.add_argument(
        "--stratified",
        action="store_true",
        help="stratify the sample across plan-shape strata",
    )

    explain = sub.add_parser("explain", help="show the optimizer's plan")
    explain.add_argument("query")
    explain.add_argument(
        "--verbose",
        action="store_true",
        help="include per-operator cardinalities and costs",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the plan with operator instrumentation and show "
        "estimated vs. actual rows (and the q-error) per node",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="with --analyze: emit the per-operator stats as JSON",
    )

    unrank = sub.add_parser("unrank", help="print plan number RANK")
    unrank.add_argument("query")
    unrank.add_argument("rank", type=int)
    unrank.add_argument(
        "--trace", action="store_true", help="show the R/s recurrence trace"
    )

    sample = sub.add_parser("sample", help="uniformly sample plans")
    sample.add_argument("query")
    sample.add_argument(
        "-n", type=_positive_int, default=10, help="sample size"
    )
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument(
        "--analyze", action="store_true", help="aggregate shape/operator stats"
    )

    execute = sub.add_parser(
        "execute", help="run a query (honours OPTION (USEPLAN n))"
    )
    execute.add_argument("query")
    execute.add_argument("--limit", type=int, default=20, help="rows to print")
    execute.add_argument(
        "--feedback-out",
        metavar="LEDGER.json",
        default=None,
        help="execute instrumented and save the observed subplan "
        "cardinalities as a ledger (consumed by `optimize --feedback`); "
        "an existing ledger at the path is folded into, not replaced",
    )

    validate = sub.add_parser(
        "validate", help="execute many plans, verify identical results"
    )
    validate.add_argument("query")
    validate.add_argument("--sample", type=_positive_int, default=100)
    validate.add_argument("--exhaustive-limit", type=int, default=200)
    validate.add_argument("--seed", type=int, default=0)

    table1 = sub.add_parser("table1", help="reproduce the paper's Table 1")
    table1.add_argument("--samples", type=int, default=1000)
    table1.add_argument(
        "--queries", default="Q5,Q7,Q8,Q9", help="comma-separated query names"
    )

    figure4 = sub.add_parser("figure4", help="reproduce a Figure 4 panel")
    figure4.add_argument("query")
    figure4.add_argument("--samples", type=int, default=1000)

    participation = sub.add_parser(
        "participation",
        help="exact per-operator participation counts (plans containing v)",
    )
    participation.add_argument("query")

    diff = sub.add_parser(
        "diff", help="diff the plan space against a configuration variant"
    )
    diff.add_argument("query")
    diff.add_argument("--no-merge-join", action="store_true")
    diff.add_argument("--no-hash-join", action="store_true")
    diff.add_argument("--no-index-scans", action="store_true")
    diff.add_argument("--index-joins", action="store_true")

    corpus_build = sub.add_parser(
        "corpus-build", help="record golden plan digests to a JSON file"
    )
    corpus_build.add_argument("path")
    corpus_build.add_argument(
        "--queries", default="Q3", help="comma-separated query names or SQL"
    )
    corpus_build.add_argument("--plans", type=int, default=20)
    corpus_build.add_argument("--seed", type=int, default=0)

    corpus_verify = sub.add_parser(
        "corpus-verify", help="replay a golden corpus against this engine"
    )
    corpus_verify.add_argument("path")
    return parser


def _cmd_count(args, out) -> int:
    session = _session(args)
    space = session.implicit_plan_space(_resolve_sql(args.query))
    out.write(
        f"groups: {space.group_count()}\n"
        f"logical operators: {space.logical_operator_count()}\n"
        f"physical operators: {space.physical_operator_count()}\n"
        f"plans: {space.count():,}\n"
    )
    return 0


#: ``optimize`` flags passed through to ``Session.optimize`` when given;
#: the API, not the CLI, refuses a combination that cannot run
_OPTIMIZE_FLAGS = (
    "prune_factor",
    "deadline_s",
    "on_budget",
    "feedback",
    "samples",
    "seed",
    "budget_s",
    "stratified",
)


def _given(args, names) -> dict:
    """The flags among ``names`` the user gave, as keyword arguments."""
    values = {name: getattr(args, name) for name in names}
    return {name: value for name, value in values.items() if value is not None}


def _write_timings(timings: dict, out) -> None:
    """One ``timings:`` line: each timed phase in milliseconds."""
    if timings:
        rendered = "  ".join(
            f"{name} {seconds * 1000.0:.1f}ms"
            for name, seconds in timings.items()
            if isinstance(seconds, float)
        )
        out.write(f"timings: {rendered}\n")


def _cmd_optimize(args, out) -> int:
    from repro.sampledopt import make_rule

    if args.rule != "quantile" and (
        args.quantile is not None or args.confidence is not None
    ):
        raise ReproError(
            "--quantile/--confidence apply to --rule quantile only"
        )
    session = _session(args)
    kwargs = _given(args, _OPTIMIZE_FLAGS)
    if args.rule is not None:
        kwargs["rule"] = make_rule(
            args.rule,
            samples=args.samples,
            quantile=args.quantile if args.quantile is not None else 1e-4,
            confidence=args.confidence if args.confidence is not None else 0.95,
        )
    result = session.optimize(
        _resolve_sql(args.query),
        method="sampled" if args.sampled else "exhaustive",
        trace=args.sampled and args.verbose,
        **kwargs,
    )
    if args.sampled:
        out.write(result.describe() + "\n")
        if args.verbose:
            _write_timings(result.timings, out)
            _write_first_touch(result.trace, out)
    else:
        _write_exhaustive(args, result, out)
    out.write(result.explain() + "\n")
    return 0


def _write_first_touch(trace, out) -> None:
    """The draw's first touch: the strata build's, then the walks';
    operators are the request's whole cache after assembly (the draw
    prices without building any)."""
    from repro.sampledopt.search import FIRST_TOUCH

    spans = [trace.find(name) for name in ("strata", "sample")]
    spans = [span.counters for span in spans if span is not None]
    counts = {
        name: sum(counters[name] for counters in spans) for name in FIRST_TOUCH
    }
    counts["operators_built"] = trace.find("assemble").counters["operators_cached"]
    rendered = "  ".join(f"{name}={count}" for name, count in counts.items())
    out.write(f"first touch: {rendered}\n")


def _write_exhaustive(args, result, out) -> None:
    """What ``optimize`` prints above an exhaustive request's plan (a
    degraded one may be a sampled result: fields only the exact result
    declares are probed)."""
    report = result.resilience
    if report is not None:
        out.write(report.describe() + "\n")
    feedback = getattr(result, "feedback", None)
    if feedback is not None:
        out.write(feedback.describe() + "\n")
    elif args.feedback is not None:
        out.write("feedback: ledger holds no observations for this query\n")
    # Only the ladder's heuristic tier sets a fallback reason: a greedy
    # plan is never served silently.
    engine = getattr(result, "engine", None)
    reason = getattr(result, "fallback_reason", None)
    if reason:
        out.write(f"engine: {engine} (fallback: {reason})\n")
    elif args.verbose and engine is not None:
        out.write(f"engine: {engine}\n")
    if args.verbose:
        dp_stats = getattr(result, "dp_stats", None)
        if dp_stats is not None:
            out.write(
                f"dp: states={dp_stats['states']} "
                f"pruned_states={dp_stats['pruned']}\n"
            )
        _write_timings(result.timings, out)
        if feedback is not None:
            out.write(
                f"feedback: plan_changed={feedback.plan_changed} "
                f"substituted={feedback.substituted} "
                f"baseline_cost={feedback.baseline_cost:,.1f} "
                f"baseline_under_observed="
                f"{feedback.baseline_cost_feedback:,.1f} "
                f"chosen_under_observed={feedback.feedback_cost:,.1f} "
                f"improvement={feedback.improvement_factor:.2f}x\n"
            )
        if report is not None:
            out.write(
                f"resilience: tier={report.tier} "
                f"trigger={report.trigger or '(none)'}\n"
            )
            for attempt in report.attempts:
                detail = f"  {attempt.detail}" if attempt.detail else ""
                out.write(
                    f"  {attempt.tier}: {attempt.outcome} "
                    f"({attempt.elapsed_s:.3f}s){detail}\n"
                )
    if args.prune_factor is not None:
        out.write(
            f"pruned to {result.memo.physical_expression_count()} "
            f"physical operators (factor {args.prune_factor:g})\n"
        )


def _cmd_trace(args, out) -> int:
    import json

    session = _session(args)
    result = session.optimize(
        _resolve_sql(args.query),
        method="sampled" if args.sampled else "exhaustive",
        trace=True,
        **_given(args, ("deadline_s",)),
    )
    span = result.trace
    if args.chrome_trace is not None:
        import pathlib

        payload = {"traceEvents": span.to_chrome_trace()}
        pathlib.Path(args.chrome_trace).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        out.write(
            f"wrote {len(payload['traceEvents'])} trace events to "
            f"{args.chrome_trace}\n"
        )
    if args.json:
        payload = {
            "trace": span.to_dict(),
            "metrics": session.metrics.snapshot(),
        }
        out.write(json.dumps(payload, indent=2) + "\n")
        return 0
    out.write(span.render() + "\n")
    metrics = session.metrics
    if metrics:
        out.write("\n" + metrics.render() + "\n")
    report = result.resilience
    if report is not None:
        out.write("\n" + report.describe() + "\n")
    return 0


def _cmd_distribution(args, out) -> int:
    session = _session(args)
    sql = _resolve_sql(args.query)
    name = args.query.upper() if args.query.upper() in TPCH_QUERIES else "query"
    from repro.sampledopt import distribution_report

    dist = session.cost_distribution(
        sql,
        query_name=name,
        sample_size=args.samples,
        seed=args.seed,
        materialized=args.materialized,
        stratified=args.stratified,
    )
    out.write(
        distribution_report(dist, scaled_to_optimum=args.materialized) + "\n"
    )
    return 0


def _cmd_explain(args, out) -> int:
    session = _session(args)
    sql = _resolve_sql(args.query)
    if args.json and not args.analyze:
        raise ReproError("--json requires --analyze")
    if args.analyze:
        if args.verbose:
            raise ReproError("--analyze and --verbose are mutually exclusive")
        if args.json:
            import json

            executed = session.execute_detailed(sql, analyze=True)
            payload = {
                "best_cost": executed.optimization.best_cost,
                "stats": executed.result.stats.to_dict(),
            }
            out.write(json.dumps(payload, indent=2) + "\n")
            return 0
        out.write(session.explain(sql, analyze=True) + "\n")
        return 0
    if args.verbose:
        from repro.optimizer.explain import explain_plan

        result = session.optimize(sql)
        out.write(explain_plan(result.best_plan, result.cost_model) + "\n")
        return 0
    out.write(session.explain(sql) + "\n")
    return 0


def _cmd_unrank(args, out) -> int:
    session = _session(args)
    sql = _resolve_sql(args.query)
    if args.trace:
        plan, trace = session.implicit_plan_space(sql).unrank_with_trace(
            args.rank
        )
        out.write(trace.render() + "\n\n")
    else:
        plan = session.plan_space(sql).unrank(args.rank)
    out.write(plan.render() + "\n")
    return 0


def _cmd_sample(args, out) -> int:
    session = _session(args)
    sql = _resolve_sql(args.query)
    result = session.optimize(sql)
    space = session.plan_space(sql)
    ranks = space.sample_ranks(args.n, seed=args.seed)
    plans = [space.unrank(rank) for rank in ranks]
    out.write(f"space: {space.count():,} plans; sampled {args.n}\n")
    for rank, plan in zip(ranks, plans):
        cost = result.cost_model.plan_cost(plan)
        scaled = cost / result.best_cost
        shape = " -> ".join(node.op.name for node in plan.iter_nodes())
        out.write(f"  #{rank}  cost {scaled:,.1f}x optimum  [{shape}]\n")
    if args.analyze:
        out.write("\n" + analyze_plans(plans).render() + "\n")
    return 0


def _cmd_execute(args, out) -> int:
    import pathlib

    session = _session(args)
    if args.feedback_out is not None:
        from repro.obs import CardinalityLedger

        # Fold into an existing ledger so repeated runs accumulate EWMA
        # history instead of starting over.
        if pathlib.Path(args.feedback_out).exists():
            session.ledger = CardinalityLedger.load(args.feedback_out)
        result = session.execute(_resolve_sql(args.query), feedback=True)
        session.ledger.save(args.feedback_out)
        out.write(result.render(limit=args.limit) + "\n")
        out.write(
            f"ledger: {len(session.ledger)} subplans -> {args.feedback_out}\n"
        )
        return 0
    result = session.execute(_resolve_sql(args.query))
    out.write(result.render(limit=args.limit) + "\n")
    return 0


def _cmd_accuracy(args, out) -> int:
    import json

    from repro.obs import CardinalityLedger, accuracy_report

    if args.ledger is not None:
        ledger = CardinalityLedger.load(args.ledger)
        report = accuracy_report(ledger, worst_limit=args.worst)
    else:
        session = _session(args)
        for name in args.queries.split(","):
            session.execute(_resolve_sql(name.strip()), feedback=True)
        report = session.estimation_report(worst_limit=args.worst)
    if args.json:
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
        return 0
    out.write(report.render() + "\n")
    return 0


def _cmd_metrics(args, out) -> int:
    import json

    session = _session(args)
    sql = _resolve_sql(args.query)
    session.optimize(sql, trace=True)
    if args.execute:
        session.execute_detailed(sql, analyze=True)
    if args.json:
        out.write(json.dumps(session.metrics.snapshot(), indent=2) + "\n")
        return 0
    out.write(session.metrics.render_prometheus())
    return 0


def _cmd_validate(args, out) -> int:
    session = _session(args)
    validator = PlanValidator(session.database, session.options)
    report = validator.validate_sql(
        _resolve_sql(args.query),
        max_exhaustive=args.exhaustive_limit,
        sample_size=args.sample,
        seed=args.seed,
    )
    out.write(report.render() + "\n")
    return 0 if report.all_equal else 1


def _cmd_table1(args, out) -> int:
    session = _session(args)
    queries = tuple(name.strip().upper() for name in args.queries.split(","))
    distributions = reproduce_table1(
        session.catalog, sample_size=args.samples, queries=queries
    )
    out.write(render_table1(distributions) + "\n")
    return 0


def _cmd_figure4(args, out) -> int:
    session = _session(args)
    dist = session.cost_distribution(
        _resolve_sql(args.query),
        query_name=args.query.upper(),
        sample_size=args.samples,
        materialized=True,
    )
    out.write(figure4_histogram(dist).render() + "\n")
    shape = dist.gamma_shape()
    if shape is not None:
        out.write(f"gamma shape: {shape:.3f}\n")
    return 0


def _cmd_participation(args, out) -> int:
    from repro.planspace.participation import participation_report

    session = _session(args)
    space = session.implicit_plan_space(_resolve_sql(args.query))
    out.write(participation_report(space) + "\n")
    return 0


def _cmd_diff(args, out) -> int:
    from repro.optimizer.implementation import ImplementationConfig
    from repro.planspace.diff import diff_spaces
    from repro.planspace.implicit import ImplicitPlanSpace

    session = _session(args)
    sql = _resolve_sql(args.query)

    def build(config: ImplementationConfig) -> ImplicitPlanSpace:
        options = OptimizerOptions(
            allow_cross_products=args.cross_products, implementation=config
        )
        return ImplicitPlanSpace.from_sql(session.catalog, sql, options=options)

    baseline = build(ImplementationConfig())
    candidate = build(
        ImplementationConfig(
            enable_merge_join=not args.no_merge_join,
            enable_hash_join=not args.no_hash_join,
            enable_index_scans=not args.no_index_scans,
            enable_index_nl_join=args.index_joins,
        )
    )
    out.write(diff_spaces(baseline, candidate).render() + "\n")
    return 0


def _cmd_corpus_build(args, out) -> int:
    from repro.testing.corpus import build_corpus

    session = _session(args)
    # Raw SQL contains commas of its own; only a list of names is split.
    if "select" in args.queries.lower():
        queries = [args.queries]
    else:
        queries = [_resolve_sql(q.strip()) for q in args.queries.split(",")]
    corpus = build_corpus(
        session, queries, plans_per_query=args.plans, seed=args.seed
    )
    corpus.save(args.path)
    out.write(f"recorded {len(corpus.records)} golden plans to {args.path}\n")
    return 0


def _cmd_corpus_verify(args, out) -> int:
    from repro.testing.corpus import PlanCorpus, verify_corpus

    session = _session(args)
    corpus = PlanCorpus.load(args.path)
    verification = verify_corpus(session, corpus)
    out.write(verification.render() + "\n")
    return 0 if verification.passed else 1


def _cmd_serve(args, out) -> int:
    import json as _json
    import time as _time

    from repro.serving import PlanServer

    session = _session(args)  # builds the shared database + options
    statements = [_resolve_sql(q.strip()) for q in args.queries.split(",")]
    with PlanServer(
        session.database,
        options=session.options,
        workers=args.clients,
        cache=False if args.no_cache else None,
        deadline_s=args.deadline_s,
    ) as server:
        started = _time.perf_counter()
        futures = [
            server.submit(statements[i % len(statements)])
            for i in range(args.requests)
        ]
        tiers: dict[str, int] = {}
        for future in futures:
            result = future.result()
            info = getattr(result, "cache", None)
            tier = info.tier if info is not None else "uncached"
            tiers[tier] = tiers.get(tier, 0) + 1
        elapsed = _time.perf_counter() - started
        stats = server.stats()
    stats["elapsed_s"] = elapsed
    stats["qps"] = args.requests / elapsed if elapsed > 0 else 0.0
    stats["tiers"] = tiers
    if args.json:
        out.write(_json.dumps(stats, indent=2, sort_keys=True) + "\n")
        return 0
    out.write(
        f"served {stats['requests']} requests on {stats['workers']} workers "
        f"in {elapsed:.3f}s ({stats['qps']:,.1f} qps); "
        f"{stats['served_inline']} answered on the caller's thread, "
        f"{stats['served_pooled']} pooled\n"
    )
    out.write(
        f"latency: p50 {stats['latency_p50_ms']:.2f}ms  "
        f"p99 {stats['latency_p99_ms']:.2f}ms\n"
    )
    out.write(
        "tiers: "
        + "  ".join(f"{tier} {count}" for tier, count in sorted(tiers.items()))
        + "\n"
    )
    cache = stats.get("cache")
    if cache is not None:
        out.write(
            f"cache: {cache['plan.hits']} plan hits / "
            f"{cache['template.hits']} template hits / "
            f"{cache['plan.misses']} misses  "
            f"(evictions {cache['plan.evictions']}, "
            f"invalidations {cache['plan.invalidations']})\n"
        )
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "optimize": _cmd_optimize,
    "trace": _cmd_trace,
    "accuracy": _cmd_accuracy,
    "metrics": _cmd_metrics,
    "serve": _cmd_serve,
    "distribution": _cmd_distribution,
    "explain": _cmd_explain,
    "unrank": _cmd_unrank,
    "sample": _cmd_sample,
    "execute": _cmd_execute,
    "validate": _cmd_validate,
    "table1": _cmd_table1,
    "figure4": _cmd_figure4,
    "participation": _cmd_participation,
    "diff": _cmd_diff,
    "corpus-build": _cmd_corpus_build,
    "corpus-verify": _cmd_corpus_verify,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    # Each error class maps to a distinct exit code so scripts can react
    # (retry with a longer deadline, shed load, ...) without parsing
    # stderr.  Subclasses are matched before their bases.
    try:
        return _COMMANDS[args.command](args, out)
    except Cancelled as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except TimeoutExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
