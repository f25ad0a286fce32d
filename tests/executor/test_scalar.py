"""Tests for scalar expression compilation."""

import pytest

from repro.algebra.expressions import (
    AggFunc,
    AggregateCall,
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
from repro.errors import ExecutionError
from repro.executor.scalar import compile_predicate, compile_scalar, like_matcher

SCHEMA = (ColumnId("t", "a"), ColumnId("t", "b"), ColumnId("t", "s"))
A = ColumnRef(ColumnId("t", "a"))
B = ColumnRef(ColumnId("t", "b"))
S = ColumnRef(ColumnId("t", "s"))


def run(expr, row):
    return compile_scalar(expr, SCHEMA)(row)


class TestBasics:
    def test_column_lookup(self):
        assert run(A, (1, 2, "x")) == 1
        assert run(S, (1, 2, "x")) == "x"

    def test_unknown_column(self):
        with pytest.raises(ExecutionError):
            compile_scalar(ColumnRef(ColumnId("zz", "zz")), SCHEMA)

    def test_literal(self):
        assert run(Literal(42), (0, 0, "")) == 42
        assert run(Literal(None), (0, 0, "")) is None


class TestComparisons:
    def test_all_operators(self):
        row = (1, 2, "")
        assert run(Comparison(CompOp.LT, A, B), row)
        assert run(Comparison(CompOp.LE, A, B), row)
        assert not run(Comparison(CompOp.GT, A, B), row)
        assert not run(Comparison(CompOp.GE, A, B), row)
        assert not run(Comparison(CompOp.EQ, A, B), row)
        assert run(Comparison(CompOp.NE, A, B), row)

    def test_string_comparison_lexicographic(self):
        expr = Comparison(CompOp.GE, S, Literal("1994-01-01"))
        assert run(expr, (0, 0, "1994-06-01"))
        assert not run(expr, (0, 0, "1993-12-31"))

    def test_null_comparisons_false(self):
        assert not run(Comparison(CompOp.EQ, A, B), (None, 2, ""))
        assert not run(Comparison(CompOp.LT, A, B), (1, None, ""))


class TestBooleans:
    def test_and_or_not(self):
        lt = Comparison(CompOp.LT, A, B)
        eq = Comparison(CompOp.EQ, A, Literal(1))
        assert run(BoolExpr(BoolOp.AND, (lt, eq)), (1, 2, ""))
        assert run(BoolExpr(BoolOp.OR, (lt, eq)), (1, 0, ""))
        assert not run(BoolExpr(BoolOp.NOT, (lt,)), (1, 2, ""))


class TestArithmetic:
    def test_operations(self):
        row = (6, 3, "")
        assert run(Arithmetic("+", A, B), row) == 9
        assert run(Arithmetic("-", A, B), row) == 3
        assert run(Arithmetic("*", A, B), row) == 18
        assert run(Arithmetic("/", A, B), row) == 2

    def test_division_by_zero(self):
        fn = compile_scalar(Arithmetic("/", A, B), SCHEMA)
        with pytest.raises(ExecutionError):
            fn((1, 0, ""))

    def test_unary_minus(self):
        assert run(UnaryMinus(A), (5, 0, "")) == -5

    def test_tpch_revenue_expression(self):
        # l_extendedprice * (1 - l_discount)
        expr = Arithmetic("*", A, Arithmetic("-", Literal(1), B))
        assert run(expr, (100.0, 0.1, "")) == pytest.approx(90.0)


class TestLike:
    def test_matcher_wildcards(self):
        assert like_matcher("%green%")("forest green metal")
        assert not like_matcher("%green%")("blue")
        assert like_matcher("gr_en")("green")
        assert not like_matcher("gr_en")("graaen")

    def test_anchored(self):
        assert not like_matcher("green")("dark green")
        assert like_matcher("green%")("green apple")

    def test_regex_chars_escaped(self):
        assert like_matcher("a.b")("a.b")
        assert not like_matcher("a.b")("axb")

    def test_matcher_built_once_per_pattern(self):
        assert like_matcher("%kept%") is like_matcher("%kept%")
        assert like_matcher("multi\nline%")("multi\nline\ntext")

    def test_compiled_like(self):
        assert run(Like(S, "%x%"), (0, 0, "axa"))
        assert run(Like(S, "%x%", negated=True), (0, 0, "aaa"))


class TestInAndNull:
    def test_in_list(self):
        assert run(InList(A, (1, 2, 3)), (2, 0, ""))
        assert not run(InList(A, (1, 2, 3)), (9, 0, ""))
        assert run(InList(A, (1,), negated=True), (9, 0, ""))

    def test_is_null(self):
        assert run(IsNull(A), (None, 0, ""))
        assert not run(IsNull(A), (1, 0, ""))
        assert run(IsNull(A, negated=True), (1, 0, ""))


class TestPredicates:
    def test_none_is_always_true(self):
        fn = compile_predicate(None, SCHEMA)
        assert fn((1, 2, ""))

    def test_predicate_coerced_to_bool(self):
        fn = compile_predicate(Comparison(CompOp.EQ, A, Literal(1)), SCHEMA)
        assert fn((1, 0, "")) is True
        assert fn((2, 0, "")) is False

    def test_aggregate_not_compilable(self):
        with pytest.raises(ExecutionError):
            compile_scalar(AggregateCall(AggFunc.SUM, A), SCHEMA)
