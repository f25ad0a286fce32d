"""The oracle agrees with the committed files and (today) with the
program; the staged pipeline serves what the program serves."""

import random

import pytest

from benchmarks.perf import oracle
from benchmarks.perf.spans import SpanRecorder
from benchmarks.perf.staged import StagedPipeline
from benchmarks.perf.worker import Program
from benchmarks.perf.workloads import (
    BY_NAME,
    TPCH_NAMES,
    TPCH_PARAMS,
    Traffic,
    _tpch_variant,
    synthetic_statement,
    tpch_statement,
)


@pytest.fixture(scope="module")
def program():
    return Program(BY_NAME["exact-small"])


def test_expected_files_are_the_oracles_rows(program):
    nonempty = []
    for name in TPCH_NAMES:
        rows = oracle.canonical(
            oracle.tpch_rows(program.databases["tpch"], name, TPCH_PARAMS[name])
        )
        assert oracle.expected_tpch(name) == rows
        nonempty += [name] if rows else []
    assert {"Q3", "Q5", "Q9", "Q10"} <= set(nonempty)


def test_canonical_params_reproduce_the_canonical_text():
    for name in TPCH_NAMES:
        assert tpch_statement(name, TPCH_PARAMS[name]).sql == tpch_statement(name).sql


def test_oracle_and_executor_agree_on_generated_statements(program):
    rng = random.Random(7)
    statements = [_tpch_variant(name, rng) for name in TPCH_NAMES for _ in range(3)]
    statements += [
        synthetic_statement(shape, n, rng, edges)
        for shape, n, edges in (
            ("chain", 4, 0), ("star", 7, 0), ("cycle", 5, 0), ("clique", 4, 0), ("dense", 7, 12),
        )
        for _ in range(3)
    ]  # fmt: skip
    produced_rows = 0
    for statement in statements:
        served = program.sessions[statement.database].execute(statement.sql).rows
        assert oracle.canonical(served) == oracle.reference_rows(program.databases, statement)
        produced_rows += len(served)
    assert produced_rows > 0


def test_staged_pipeline_serves_the_programs_plan(program):
    recorder = SpanRecorder()
    for request in Traffic(BY_NAME["exact-small"], 3).round(0, 0):
        database = request.statement.database
        stage = StagedPipeline(recorder, program.databases[database].catalog)
        staged = stage.optimize(request.statement.sql)
        served = program.call(request)
        assert oracle.plan_digest(staged.best_plan, staged.best_cost) == oracle.plan_digest(
            served.best_plan, served.best_cost
        )
    names = {row[0] for row in recorder.rows()}
    assert {"sql.parse", "sql.bind", "optimizer.implement", "optimizer.bestplan"} <= names
