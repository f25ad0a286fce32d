"""NULL join keys: every join method gives the same rows.

``NULL = NULL`` is not true, so a row whose join key holds a NULL joins
nothing.  The nested-loop join and every residual always said so; the
hash join and the index-lookup join used to match ``None`` with ``None``
through a dictionary probe, so two plans of one query disagreed as soon
as a foreign key was NULL — the very defect class plan testing exists to
find, latent only because the data generator emits no NULLs.
"""

import pytest

from repro.algebra.expressions import (
    ColumnId,
    ColumnRef,
    Comparison,
    CompOp,
    Literal,
    make_conjunction,
)
from repro.algebra.physical import (
    HashJoin,
    IndexNestedLoopJoin,
    MergeJoin,
    NestedLoopJoin,
    TableScan,
)
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType, Index, TableSchema
from repro.executor.executor import execute_plan
from repro.optimizer.plan import PlanNode
from repro.storage.database import Database
from repro.storage.table import DataTable
from repro.testing.faults import IgnoredResidualExecutor

C_FK, C_FK2, P_ID, P_ID2, P_V = (
    ColumnId("c", "fk"),
    ColumnId("c", "fk2"),
    ColumnId("p", "id"),
    ColumnId("p", "id2"),
    ColumnId("p", "v"),
)


@pytest.fixture
def db():
    integer = ColumnType.INTEGER
    parent = TableSchema(
        name="p",
        columns=(Column("id", integer), Column("id2", integer), Column("v", integer)),
        indexes=(Index("p_id", "p", ("id", "id2")),),
    )
    child = TableSchema(
        name="c",
        columns=(Column("n", integer), Column("fk", integer), Column("fk2", integer)),
    )
    catalog = Catalog()
    catalog.add_table(parent)
    catalog.add_table(child)
    database = Database(catalog=catalog)
    # distinct ids, so sorting the index never compares a NULL id2
    database.add_table(DataTable(parent, [(1, 1, 10), (2, None, 20), (3, 3, 30)]))
    database.add_table(
        DataTable(child, [(0, 1, 1), (1, None, None), (2, 2, None), (3, None, 3), (4, 3, 3)])
    )
    return database


def scan(table):
    return PlanNode(TableScan(table, table), (), 0, 1, 5.0)


def plans(keys, residual=None):
    """The same join of ``c`` with ``p`` under each method."""
    left, right = zip(*keys)
    predicate = make_conjunction(
        [Comparison(CompOp.EQ, ColumnRef(a), ColumnRef(b)) for a, b in keys]
        + ([residual] if residual is not None else [])
    )
    children = (scan("c"), scan("p"))
    yield PlanNode(NestedLoopJoin(predicate), children, 2, 1, 5.0)
    yield PlanNode(HashJoin(left, right, residual), children, 2, 2, 5.0)
    inlj = IndexNestedLoopJoin("p", "p", "p_id", left, right, None, residual)
    yield PlanNode(inlj, (scan("c"),), 2, 3, 5.0)


@pytest.mark.parametrize(
    "keys, expected",
    [
        (((C_FK, P_ID),), [(0, 1, 1, 1, 1, 10), (2, 2, None, 2, None, 20), (4, 3, 3, 3, 3, 30)]),
        (((C_FK, P_ID), (C_FK2, P_ID2)), [(0, 1, 1, 1, 1, 10), (4, 3, 3, 3, 3, 30)]),
    ],
)
def test_nlj_hj_and_inlj_agree_on_null_keys(db, keys, expected):
    for plan in plans(keys):
        assert execute_plan(plan, db).rows == expected, plan.op.name


def test_they_agree_under_a_residual_too(db):
    residual = Comparison(CompOp.GT, ColumnRef(P_V), Literal(10))
    for plan in plans(((C_FK, P_ID),), residual):
        assert execute_plan(plan, db).rows == [
            (2, 2, None, 2, None, 20),
            (4, 3, 3, 3, 3, 30),
        ], plan.op.name


def test_null_keyed_build_rows_join_nothing(db):
    # p is the probe side here: its NULL id2 must not find c's NULL fk2
    plan = PlanNode(HashJoin((P_ID2,), (C_FK2,)), (scan("p"), scan("c")), 2, 1, 5.0)
    assert execute_plan(plan, db).rows == [
        (1, 1, 10, 0, 1, 1),
        (3, 3, 30, 3, None, 3),
        (3, 3, 30, 4, 3, 3),
    ]


def test_a_null_in_a_merge_or_sort_key_is_unsupported(db):
    # documented limit (executor/README.md): ordering NULLs raises
    plan = PlanNode(MergeJoin((C_FK,), (P_ID,)), (scan("c"), scan("p")), 2, 1, 5.0)
    with pytest.raises(TypeError):
        execute_plan(plan, db)


def test_the_defective_hash_join_still_runs_on_bare_keys(db):
    # repro.testing.faults builds its keys through PlanExecutor._key_fn
    plan = PlanNode(HashJoin((C_FK,), (P_ID,)), (scan("c"), scan("p")), 2, 1, 5.0)
    rows = IgnoredResidualExecutor(db).execute(plan).rows
    assert (0, 1, 1, 1, 1, 10) in rows
