"""One engine, one emitter, one refusal — pinned from the input side.

The exact path has one production engine: the columnar store, emitted
by one vectorized pass (index-lookup joins and the heuristic tier's
greedy memo included), and its layered best-plan DP.  No query changes
which engine serves or what it returns (the object-memo oracle of
``tests/reference_pipeline.py`` is the witness, up to the limit itself).
Past the limit — 63 relations, 254 distinct key columns — every route
refuses with the same named error before exploring anything.  Nothing —
no option, no environment variable, no property of the query — moves a
query to another engine (``tests/test_no_switches.py`` guards the absence
of the switches and of the deleted engine and emitter themselves).
"""

from __future__ import annotations

import io
import time

import pytest

from repro.api import Session
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.catalog.statistics import ColumnStats, TableStats
from repro.cli import main as cli_main
from repro.errors import PlanSpaceError
from repro.executor.executor import PlanExecutor
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.planspace.implicit.edges import MAX_RELATIONS
from repro.resilience.heuristic import optimize_heuristic
from repro.sampledopt import SampledOptimizer
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.database import Database
from repro.storage.table import DataTable
from repro.testing.diff import canonical_rows
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)
from tests.reference_pipeline import assert_matches_reference, optimize_reference

PHASES = {"setup", "explore", "annotate", "implement", "bestplan", "fused"}

INDEX_NLJ = OptimizerOptions(
    implementation=ImplementationConfig(enable_index_nl_join=True)
)


# ----------------------------------------------------------------------
# one engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make,n",
    [(star_query, 6), (clique_query, 5), (cycle_query, 7), (chain_query, 24)],
    ids=["star6", "clique5", "cycle7", "chain24"],
)
def test_default_options_take_the_columnar_engine(make, n):
    workload = make(n, rows=5, seed=0)
    result = Session(workload.database).optimize(workload.sql)
    assert result.engine == "columnar"
    assert result.fallback_reason is None
    assert result.memo.columnar is not None
    assert result.memo.columnar_logical is not None
    assert {"states", "pruned"} <= set(result.dp_stats)
    # ``timings`` holds seconds (and ``explore_source``), never a count
    assert "pruned_states" not in result.timings
    assert PHASES <= set(result.timings)


# ----------------------------------------------------------------------
# one emitter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("options", [INDEX_NLJ], ids=["index-nl-join"])
def test_scalar_emission_is_still_the_columnar_engine(options):
    """Index-lookup joins take the one vectorized emitter; the engine
    and its result are the oracle's."""
    workload = cycle_query(5, rows=5, seed=0)
    result = Session(workload.database, options=options).optimize(workload.sql)
    assert result.engine == "columnar"
    assert result.fallback_reason is None
    assert result.memo.columnar is not None
    assert result.memo.columnar._merge_sid0 is not None  # the vector emitter ran
    assert_matches_reference(
        result, optimize_reference(workload.catalog, workload.sql, options)
    )


# ----------------------------------------------------------------------
# ... up to the limit the kernels actually have
# ----------------------------------------------------------------------
def _assert_served_like_the_oracle(workload, options, memo_dump=True):
    result = Session(workload.database, options=options).optimize(workload.sql)
    assert result.engine == "columnar"
    assert result.fallback_reason is None
    assert result.memo.columnar is not None
    assert {"states", "pruned"} <= set(result.dp_stats)
    assert PHASES <= set(result.timings)
    # Generate-and-test exploration walks 2**n subsets; the oracle's
    # implementation and search run over the production exploration.
    reference = optimize_reference(
        workload.catalog, workload.sql, options, explorer=EnumerationExplorer()
    )
    if memo_dump:
        assert_matches_reference(result, reference)
    else:
        assert result.best_cost == reference.best_cost
        assert result.best_plan.render() == reference.best_plan.render()
        assert result.memo.expression_count() == reference.memo.expression_count()
    return result


@pytest.mark.parametrize(
    "make,options",
    [
        (chain_query, OptimizerOptions()),
        (cycle_query, OptimizerOptions()),
        (chain_query, INDEX_NLJ),
    ],
    ids=["chain25", "cycle25", "chain25-index-nl-join"],
)
def test_past_24_relations_the_one_engine_serves(make, options):
    """24 was a guess: the parent served these from a second (object)
    engine, 5-50x slower; the plan and cost were these, to the bit."""
    workload = make(25, rows=5, seed=0)
    # cycle25's 100k-expression memo dump is diffed under ``-m slow``.
    result = _assert_served_like_the_oracle(
        workload, options, memo_dump=make is not cycle_query
    )
    if make is cycle_query:
        return
    # The plan is a real plan: it returns the rows the greedy tier's does.
    bound = Binder(workload.catalog).bind(parse(workload.sql))
    heuristic = optimize_heuristic(workload.catalog, bound, options)
    executor = PlanExecutor(workload.database)
    rows = executor.execute(result.best_plan).rows
    assert rows
    assert canonical_rows(rows) == canonical_rows(
        executor.execute(heuristic.best_plan).rows
    )
    assert result.best_cost <= heuristic.best_cost


@pytest.mark.slow
@pytest.mark.parametrize(
    "make,n",
    [(cycle_query, 25), (chain_query, MAX_RELATIONS)],
    ids=["cycle25", "chain63"],
)
def test_the_relation_limit_itself_is_served(make, n):
    _assert_served_like_the_oracle(make(n, rows=3, seed=0), OptimizerOptions())


# ----------------------------------------------------------------------
# one refusal
# ----------------------------------------------------------------------
def _two_wide_tables(columns: int):
    """``a(c0..)``, ``b(c0..)`` joined on every ``a.ci = b.ci``:
    ``2 * columns`` distinct key columns between two relations."""
    catalog = Catalog()
    database = Database(catalog=catalog)
    names = [f"c{i}" for i in range(columns)]
    for table in ("a", "b"):
        schema = TableSchema(
            name=table,
            columns=tuple(Column(name, ColumnType.INTEGER) for name in names),
            primary_key=("c0",),
        )
        stats = TableStats(
            row_count=2,
            columns={name: ColumnStats(distinct=2, lo=0, hi=1) for name in names},
        )
        catalog.add_table(schema, stats)
        database.add_table(DataTable(schema, [(0,) * columns, (1,) * columns]))
    sql = "SELECT a.c0 FROM a, b WHERE " + " AND ".join(
        f"a.{name} = b.{name}" for name in names
    )
    return database, sql


def _refusal_cases():
    chain = chain_query(MAX_RELATIONS + 1, rows=3, seed=0)
    wide_db, wide_sql = _two_wide_tables(128)
    return [
        pytest.param(
            chain.database,
            chain.sql,
            "query exceeds the optimizer's limit of 63 relations (64 given)",
            id="chain64",
        ),
        pytest.param(
            wide_db,
            wide_sql,
            "query exceeds the optimizer's limit of 254 distinct key columns "
            "(256 given)",
            id="two-tables-256-key-columns",
        ),
    ]


@pytest.mark.parametrize("database,sql,message", _refusal_cases())
def test_beyond_the_limits_every_route_refuses_with_the_same_error(
    database, sql, message
):
    session = Session(database)
    catalog = session.catalog
    bound = Binder(catalog).bind(parse(sql))
    routes = {
        "exact": lambda: session.optimize(sql),
        "sampled": lambda: session.optimize(sql, method="sampled", samples=8),
        "ladder": lambda: session.optimize(sql, deadline_s=5.0),
        "ladder, raising": lambda: session.optimize(
            sql, deadline_s=5.0, on_budget="raise"
        ),
        "tier exact": lambda: Optimizer(catalog).optimize(bound),
        "tier sampled": lambda: SampledOptimizer(catalog).optimize(
            bound, samples=8
        ),
        "tier heuristic": lambda: optimize_heuristic(catalog, bound),
        "count": lambda: session.plan_space(sql),
        "count_plans": lambda: session.count_plans(sql),
    }
    for route, call in routes.items():
        started = time.perf_counter()
        with pytest.raises(PlanSpaceError) as refused:
            call()
        elapsed = time.perf_counter() - started
        assert str(refused.value) == message, route
        # Refused in setup, before anything is explored: the object
        # search this replaced took 4 s to serve chain64.
        assert elapsed < 1.0, (route, elapsed)


def _self_join_chain(table: str, n: int, columns: list[str]) -> str:
    aliases = [f"x{i}" for i in range(n)]
    return (
        f"SELECT x0.{columns[0]} FROM "
        + ", ".join(f"{table} {alias}" for alias in aliases)
        + " WHERE "
        + " AND ".join(
            f"{a}.{column} = {b}.{column}"
            for a, b in zip(aliases, aliases[1:])
            for column in columns
        )
    )


LINEITEM = (
    "l_orderkey l_partkey l_suppkey l_linenumber l_quantity l_extendedprice "
    "l_discount l_tax l_returnflag l_linestatus l_shipdate l_commitdate "
    "l_receiptdate l_shipinstruct l_shipmode l_comment"
).split()


@pytest.mark.parametrize(
    "sql,message",
    [
        (
            _self_join_chain("nation", 64, ["n_nationkey"]),
            "limit of 63 relations (64 given)",
        ),
        (
            # 16 aliases x 16 columns, every one of them a join key
            _self_join_chain("lineitem", 16, LINEITEM),
            "limit of 254 distinct key columns (256 given)",
        ),
    ],
    ids=["chain64", "chain16-256-key-columns"],
)
def test_the_cli_refuses_with_a_nonzero_exit(sql, message, capsys):
    for argv in (["optimize", sql], ["optimize", sql, "--sampled"], ["count", sql]):
        started = time.perf_counter()
        code = cli_main(argv, out=io.StringIO())
        assert code == 2, argv
        assert message in capsys.readouterr().err, argv
        assert time.perf_counter() - started < 1.0, argv
