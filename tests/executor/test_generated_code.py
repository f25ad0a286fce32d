"""Hygiene of the generated code: nothing from a query's text is compiled.

Every literal reaches the compiled function *by name* through its
namespace, so it comes back as the very object it went in as, and the
source handed to ``compile()`` is drawn from a small fixed vocabulary
whatever the query says.
"""

import math
import re
from datetime import date

import pytest

from repro.algebra.expressions import (
    Arithmetic,
    BoolExpr,
    BoolOp,
    ColumnId,
    ColumnRef,
    Comparison,
    CompOp,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryMinus,
)
from repro.api import Session
from repro.executor import scalar
from repro.storage.datagen import generate_tpch
from repro.workloads.tpch_queries import TPCH_QUERIES

SCHEMA = (ColumnId("t", "a"), ColumnId("t", "b"))
A, B = (ColumnRef(column) for column in SCHEMA)

HOSTILE = [
    "'); __import__('os').system('x') #",
    "quote ' double \" newline \n backslash \\ brace { tab \t nul \0",
    float("nan"),
    float("inf"),
    -0.0,
    10**200 - 1,
    True,
    date(1995, 3, 15),
]

#: the whole vocabulary of the generated source
WORDS = re.compile(
    r"lambda|rows?|lefts|rights|l|r|for|in|if|else|is|not|and|or|None|False|zero"
    r"|k\d+|t\d+|\d+"
)
PUNCTUATION = set(" []():,<>=!+-*/")


def assert_conservative(source: str) -> None:
    rest = WORDS.sub("", source)
    assert set(rest) <= PUNCTUATION, (source, set(rest) - PUNCTUATION)
    for word in re.findall(r"[A-Za-z_]\w*", source):
        assert WORDS.fullmatch(word), (word, source)


@pytest.fixture
def sources(monkeypatch):
    """Every text handed to ``compile()`` while the test runs."""
    seen = []
    compiled = scalar.code_object

    def recording(source):
        seen.append(source)
        return compiled(source)

    monkeypatch.setattr(scalar, "code_object", recording)
    return seen


@pytest.mark.parametrize("value", HOSTILE, ids=lambda v: type(v).__name__)
def test_literal_round_trips_by_identity(value, sources):
    project = scalar.compile_projection([Literal(value), A], SCHEMA)
    ((out, a),) = project([(7, 8)])
    assert out is value and a == 7
    assert type(out) is type(value)
    if isinstance(value, float):
        assert math.copysign(1.0, out) == math.copysign(1.0, value)
    for source in sources:
        assert_conservative(source)


def test_hostile_patterns_and_in_lists_never_reach_the_source(sources):
    text = HOSTILE[0]
    expr = BoolExpr(
        BoolOp.OR,
        (
            Like(A, text + "%"),
            InList(A, (text, HOSTILE[1])),
            Comparison(CompOp.EQ, A, Literal(text)),
        ),
    )
    assert scalar.compile_filter(expr, SCHEMA)([(text, 0), ("x", 0)]) == [(text, 0)]
    assert len(sources) == 1 and "import" not in sources[0]
    assert_conservative(sources[0])


def test_every_node_type_and_shape_emits_the_vocabulary_only(sources):
    expr = BoolExpr(
        BoolOp.AND,
        (
            Comparison(CompOp.LE, Arithmetic("/", A, UnaryMinus(B)), Literal(2.5)),
            BoolExpr(BoolOp.NOT, (IsNull(A, negated=True),)),
            BoolExpr(BoolOp.OR, (Like(A, "x%", negated=True), InList(B, (1, 2), True))),
            Comparison(CompOp.NE, A, Literal(None)),
            Arithmetic("*", Arithmetic("-", A, B), Arithmetic("+", A, Literal(1))),
        ),
    )
    scalar.compile_scalar(expr, SCHEMA)
    scalar.compile_predicate(expr, SCHEMA)
    scalar.compile_filter(expr, SCHEMA)
    scalar.compile_projection([expr, A], SCHEMA)
    scalar.compile_join(expr, SCHEMA[:1], SCHEMA[1:])
    assert len(sources) == 5
    for source in sources:
        assert_conservative(source)


def test_whole_queries_emit_the_vocabulary_only(sources):
    session = Session(generate_tpch(seed=0))
    for name in ("Q3", "Q7", "Q9"):
        for _rank, result in session.iterate_plans(
            TPCH_QUERIES[name].sql, sample=5, seed=3, implicit=True
        ):
            assert result.columns
    assert sources
    for source in set(sources):
        assert_conservative(source)


def test_generated_code_has_no_builtins():
    fn = scalar.compile_scalar(Arithmetic("+", A, B), SCHEMA)
    assert fn.__globals__["__builtins__"] == {}
    assert fn((1, 2)) == 3


def test_code_cache_is_bounded_and_shared_across_constants():
    scalar.code_object.cache_clear()
    for value in range(50):
        scalar.compile_filter(Comparison(CompOp.EQ, A, Literal(value)), SCHEMA)
    info = scalar.code_object.cache_info()
    assert (info.misses, info.hits) == (1, 49)
    assert info.maxsize == scalar.CODE_CACHE_SIZE == 512
    for width in range(600):  # distinct texts: one per column position
        schema = tuple(ColumnId("t", f"c{i}") for i in range(width + 1))
        scalar.compile_scalar(ColumnRef(schema[-1]), schema)
    assert scalar.code_object.cache_info().currsize == scalar.CODE_CACHE_SIZE
