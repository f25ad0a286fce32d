"""Operator-level pins: every operator's *ordered* output, plan by plan.

Row order feeds stream aggregates and ORDER BY comparison, so "the same
multiset" is not enough when the executor's inner loops change.  For 50
seeded ranks of the six TPC-H texts, three synthetic shapes, one
residual-heavy join and one text with a constant conjunct and cross
products (index-lookup joins enabled, so all four join methods occur
with and without a residual) the rows each operator hands
to its parent are digested in execution order and compared with
``expected/operator_pins.json``, which was written by this module at the
commit before the scalar compiler emitted source text:

    PYTHONPATH=<that commit>/src python -m tests.executor.test_operator_pins
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.api import Session
from repro.errors import ResourceExhausted
from repro.executor.executor import PlanExecutor
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.resilience.budget import BudgetScope
from repro.storage.datagen import generate_tpch
from repro.workloads.synthetic import chain_query, cycle_query, star_query
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.testing.test_faults import RESIDUAL_SQL

PINS = Path(__file__).parent / "expected" / "operator_pins.json"
RANKS = 50
INDEX_JOINS = ImplementationConfig(enable_index_nl_join=True)


class RecordingExecutor(PlanExecutor):
    """Digests what every operator returns, in execution order."""

    def __init__(self, database):
        super().__init__(database)
        self.digest = hashlib.sha256()
        self.seen = Counter()

    def _dispatch(self, plan):
        schema, rows = super()._dispatch(plan)
        op = plan.op
        residual = getattr(op, "residual", getattr(op, "predicate", None))
        self.seen[op.name, residual is not None] += 1
        self.digest.update(f"{op.name}:{rows!r};".encode())
        return schema, rows


#: a constant conjunct stays a Filter above the joins; only a space with
#: cross products holds a NestedLoopJoin without a predicate
CONSTANT_SQL = (
    "SELECT n.n_name, r.r_name, s.s_name FROM nation n, region r, supplier s "
    "WHERE n.n_regionkey = r.r_regionkey AND s.s_nationkey = n.n_nationkey "
    "AND 1 = 1"
)


def cases():
    """``(name, database, sql, cross products allowed)``"""
    tpch = generate_tpch(seed=0)
    for name in ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10"):
        yield name, tpch, TPCH_QUERIES[name].sql, False
    yield "residual", tpch, RESIDUAL_SQL, False
    yield "constant", tpch, CONSTANT_SQL, True
    for workload in (star_query(5, rows=8), cycle_query(5, rows=8), chain_query(4, rows=8)):
        yield workload.name, workload.database, workload.sql, False


def digests():
    """``({case: [digest per rank]}, operator coverage)``."""
    out, seen = {}, Counter()
    for name, database, sql, cross in cases():
        options = OptimizerOptions(
            allow_cross_products=cross, implementation=INDEX_JOINS
        )
        session = Session(database, options=options)
        space = session.plan_space(sql, count_only=True)
        out[name] = []
        for rank in space.sample_ranks(RANKS, seed=14):
            executor = RecordingExecutor(database)
            executor.execute(space.unrank(rank))
            out[name].append(executor.digest.hexdigest()[:16])
            seen += executor.seen
    return out, seen


@pytest.fixture(scope="module")
def recorded():
    return digests()


def test_every_operators_ordered_rows_match_the_pins(recorded):
    expected = json.loads(PINS.read_text())
    assert recorded[0] == expected


def test_pins_cover_every_operator_with_and_without_a_residual(recorded):
    seen = recorded[1]
    for join in ("NestedLoopJoin", "HashJoin", "MergeJoin", "IndexNestedLoopJoin"):
        assert seen[join, True] and seen[join, False], join
    for name in ("TableScan", "IndexScan", "PhysicalFilter", "Sort", "HashAggregate", "StreamAggregate", "PhysicalProject"):
        assert seen[name, True] or seen[name, False], name


class Checkpoints:
    """A scope observer: the units of every ``execute.operator`` poll."""

    def __init__(self):
        self.rows = []

    def record_checkpoint(self, site, units):
        assert site == "execute.operator"
        self.rows.append(units)


def test_checkpoints_and_actual_rows_of_one_traced_execution():
    session = Session(generate_tpch(seed=0))
    plan = session.optimize(TPCH_QUERIES["Q9"].sql).best_plan
    seen = Checkpoints()
    result = session.executor.execute(
        plan, collect_stats=True, scope=BudgetScope(observer=seen)
    )

    def actual(stats):
        for child in stats.children:
            yield from actual(child)
        yield stats.actual_rows

    # one checkpoint per operator, post-order, carrying its row count
    assert seen.rows == list(actual(result.stats.root))
    assert seen.rows == [24, 80, 2, 240, 90, 240, 19, 19, 19, 25, 19, 5, 5]


def test_max_rows_names_the_operator():
    database = generate_tpch(seed=0)
    session = Session(database)
    plan = session.optimize(TPCH_QUERIES["Q3"].sql).best_plan
    with pytest.raises(ResourceExhausted, match=r"operator \w+ produced \d+ rows"):
        session.executor.execute(plan, max_rows=0)


def test_unfiltered_root_scan_returns_a_copy():
    database = generate_tpch(seed=0)
    session = Session(database)
    rows = session.execute("SELECT * FROM region r").rows
    assert rows == database.table("region").rows
    assert rows is not database.table("region").rows
    rows.clear()
    assert database.table("region").rows


if __name__ == "__main__":
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(digests()[0], indent=1) + "\n")
    print(f"wrote {PINS}")
