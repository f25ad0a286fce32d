"""The source-emitting scalar compiler against the closure compiler.

``repro.executor.scalar`` emits one Python expression per scalar tree;
``reference_scalar`` (the compiler it replaced) evaluates the same tree
as nested closures.  Over generated trees and rows both must give the
same value *and type* (``True``, never ``1``), or fail with the same
exception class — and, for ``ExecutionError``, the same message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.executor import scalar
from repro.executor.schema import RowSchema

from . import reference_scalar

LEFT = RowSchema(ColumnId("t", name) for name in "abc")
RIGHT = RowSchema(ColumnId("u", name) for name in "xy")
A, B, C = (ColumnRef(column) for column in LEFT)
X, Y = (ColumnRef(column) for column in RIGHT)


def outcome(fn, *args):
    """What a call gave: the value with its type, or how it failed."""
    try:
        value = fn(*args)
    except ExecutionError as exc:
        return "ExecutionError", str(exc)
    except Exception as exc:  # whatever Python raises for the row's types
        return (type(exc).__name__,)
    return type(value).__name__, repr(value)


def assert_same_scalar(expr, row, schema=LEFT):
    got = outcome(lambda: scalar.compile_scalar(expr, schema)(row))
    want = outcome(lambda: reference_scalar.compile_scalar(expr, schema)(row))
    assert got == want, expr.render()


# ----------------------------------------------------------------------
# generated trees
# ----------------------------------------------------------------------
values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 0.5, -2.5, 1e308, float("inf")]),
    st.sampled_from(["", "a", "ab", "green", "x_y%"]),
)
hashable_values = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "ab", 0.5]))
patterns = st.sampled_from(["%", "a%", "_b", "%ee%", "x\\_y", ""])


def trees(columns):
    leaves = st.one_of(st.sampled_from(columns), st.builds(Literal, values))

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            st.builds(Comparison, st.sampled_from(list(CompOp)), children, children),
            st.builds(
                BoolExpr,
                st.sampled_from([BoolOp.AND, BoolOp.OR]),
                st.lists(children, min_size=2, max_size=3).map(tuple),
            ),
            st.builds(BoolExpr, st.just(BoolOp.NOT), st.tuples(children)),
            st.builds(
                lambda op, args: Arithmetic(op, *args), st.sampled_from("+-*/"), pair
            ),
            st.builds(UnaryMinus, children),
            st.builds(Like, children, patterns, st.booleans()),
            st.builds(
                InList,
                children,
                st.lists(hashable_values, min_size=1, max_size=3).map(tuple),
                st.booleans(),
            ),
            st.builds(IsNull, children, st.booleans()),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def rows(width):
    return st.tuples(*[values] * width)


@settings(max_examples=400, deadline=None)
@given(trees([A, B, C]), rows(3))
def test_value_type_and_exception_match_the_closure_compiler(expr, row):
    assert_same_scalar(expr, row)


@settings(max_examples=200, deadline=None)
@given(trees([A, B, C]), rows(3))
def test_predicate_filter_and_projection_shapes_match(expr, row):
    got = outcome(lambda: scalar.compile_predicate(expr, LEFT)(row))
    want = outcome(lambda: reference_scalar.compile_predicate(expr, LEFT)(row))
    assert got == want

    def reference_filter(rows):
        predicate = reference_scalar.compile_predicate(expr, LEFT)
        return [r for r in rows if predicate(r)]

    def reference_projection(rows):
        fns = [reference_scalar.compile_scalar(e, LEFT) for e in (expr, A)]
        return [tuple(fn(r) for fn in fns) for r in rows]

    batch = [row, row[::-1], row]
    assert outcome(scalar.compile_filter(expr, LEFT), batch) == outcome(
        reference_filter, batch
    )
    assert outcome(scalar.compile_projection([expr, A], LEFT), batch) == outcome(
        reference_projection, batch
    )


@settings(max_examples=200, deadline=None)
@given(trees([A, B, C, X, Y]), st.lists(rows(3), max_size=3), st.lists(rows(2), max_size=3))
def test_join_shape_matches_the_oracle_over_concatenated_rows(expr, lefts, rights):
    def reference_join(lefts, rights):
        predicate = reference_scalar.compile_predicate(expr, LEFT + RIGHT)
        return [l + r for l in lefts for r in rights if predicate(l + r)]

    got = outcome(scalar.compile_join(expr, LEFT, RIGHT), lefts, rights)
    assert got == outcome(reference_join, lefts, rights)


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------
class TestPinned:
    @pytest.mark.parametrize("op", list(CompOp))
    def test_comparison_with_null_is_false(self, op):
        for expr, row in [
            (Comparison(op, A, B), (None, 1, 0)),
            (Comparison(op, A, B), (1, None, 0)),
            (Comparison(op, A, B), (None, None, 0)),
            (Comparison(op, A, Literal(None)), (1, 1, 0)),
            (Comparison(op, Literal(None), Literal(None)), (1, 1, 0)),
        ]:
            assert scalar.compile_scalar(expr, LEFT)(row) is False
            assert_same_scalar(expr, row)

    def test_operand_that_raises_is_evaluated_before_the_null_test(self):
        # the closure compiler evaluates both operands, then tests for NULL
        divide = Arithmetic("/", B, Literal(0))
        for expr in (
            Comparison(CompOp.LT, A, divide),
            Comparison(CompOp.LT, divide, A),
            Comparison(CompOp.EQ, Literal(None), divide),
        ):
            with pytest.raises(ExecutionError, match="division by zero"):
                scalar.compile_scalar(expr, LEFT)((None, 1, 0))
            assert_same_scalar(expr, (None, 1, 0))

    def test_not_like_on_null(self):
        expr = Like(A, "a%", negated=True)
        assert scalar.compile_scalar(expr, LEFT)((None, 0, 0)) is True
        assert scalar.compile_scalar(Like(A, "a%"), LEFT)((None, 0, 0)) is False
        assert_same_scalar(expr, (None, 0, 0))

    def test_and_or_as_a_value_under_a_projection_is_a_bool(self):
        exprs = [BoolExpr(BoolOp.AND, (A, B)), BoolExpr(BoolOp.OR, (A, B))]
        project = scalar.compile_projection(exprs, LEFT)
        out = project([(2, 3, 0), (0, 3, 0), (0, "", 0), (None, 1.5, 0)])
        assert out == [(True, True), (False, True), (False, False), (False, True)]
        assert all(type(v) is bool for row in out for v in row)
        for expr in exprs:
            assert_same_scalar(expr, (2, 0, 0))

    @pytest.mark.parametrize("zero", [0, 0.0, -0.0, False])
    def test_division_by_zero(self, zero):
        expr = Arithmetic("/", A, B)
        with pytest.raises(ExecutionError, match="^division by zero$"):
            scalar.compile_scalar(expr, LEFT)((1, zero, 0))
        assert_same_scalar(expr, (1, zero, 0))
        assert_same_scalar(Arithmetic("/", A, Literal(zero)), (1, 1, 0))
        # the denominator is tested before the numerator is evaluated
        assert_same_scalar(Arithmetic("/", UnaryMinus(C), B), ("x", zero, "s"))

    def test_division_by_null_or_text_is_a_type_error_not_division_by_zero(self):
        for denominator in (None, "", "a"):
            assert_same_scalar(Arithmetic("/", A, B), (1, denominator, 0))

    def test_missing_column_is_a_compile_time_error_with_the_schema(self):
        missing = ColumnRef(ColumnId("zz", "q"))
        message = r"column 'zz\.q' not in input schema \(t\.a, t\.b, t\.c\)"
        for compile_ in (scalar.compile_scalar, reference_scalar.compile_scalar):
            with pytest.raises(ExecutionError, match=message):
                compile_(Arithmetic("+", A, missing), LEFT)
        with pytest.raises(
            ExecutionError,
            match=r"column 'zz\.q' not in input schema \(t\.a, t\.b, t\.c, u\.x, u\.y\)",
        ):
            scalar.compile_join(Comparison(CompOp.EQ, X, missing), LEFT, RIGHT)

    def test_aggregate_call_is_refused(self):
        with pytest.raises(ExecutionError, match="aggregate call cannot be evaluated"):
            scalar.compile_scalar(AggregateCall(AggFunc.SUM, A), LEFT)
        with pytest.raises(ExecutionError, match="aggregate call cannot be evaluated"):
            scalar.compile_filter(AggregateCall(AggFunc.COUNT, None), LEFT)

    def test_long_left_deep_arithmetic_chain(self):
        expr = A
        for i in range(300):  # past the parser's 200 nested parentheses
            expr = Arithmetic("+-"[i % 2], expr, B)
        assert_same_scalar(expr, (1, 2, 0))
        expr = A
        for i in range(100):
            expr = Arithmetic("+-*/"[i % 4], expr, Literal(i + 1))
        assert_same_scalar(expr, (7, 0, 0))

    def test_hundred_conjuncts(self):
        conjuncts = tuple(Comparison(CompOp.GT, A, Literal(-i)) for i in range(100))
        expr = BoolExpr(BoolOp.AND, conjuncts)
        assert_same_scalar(expr, (1, 0, 0))
        assert scalar.compile_filter(expr, LEFT)([(1, 0, 0), (-50, 0, 0)]) == [(1, 0, 0)]
        nested = conjuncts[0]
        for conjunct in conjuncts[1:]:
            nested = BoolExpr(BoolOp.AND, (nested, conjunct))
        assert_same_scalar(nested, (1, 0, 0))

    def test_nesting_past_the_parsers_limit_is_an_execution_error(self):
        expr = A
        for _ in range(250):
            expr = Arithmetic("-", B, expr)
        with pytest.raises(ExecutionError, match="nests too deeply"):
            scalar.compile_scalar(expr, LEFT)

    def test_no_predicate(self):
        rows = [(1, 2, 3)]
        assert scalar.compile_predicate(None, LEFT)(rows[0]) is True
        copy = scalar.compile_filter(None, LEFT)(rows)
        assert copy == rows and copy is not rows
        assert scalar.compile_join(None, LEFT, RIGHT)(rows, [(8, 9), (7, 6)]) == [
            (1, 2, 3, 8, 9),
            (1, 2, 3, 7, 6),
        ]
