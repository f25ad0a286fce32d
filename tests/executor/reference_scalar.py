"""The closure compiler: the test oracle for :mod:`repro.executor.scalar`.

This is the scalar compiler the executor ran on before it emitted source
text, moved here verbatim: an expression becomes a tree of closures and
one evaluation is a chain of Python calls.  Slow, and obviously right —
``test_scalar_equivalence.py`` holds the production compiler to it, value
for value and exception for exception.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.algebra.expressions import (
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
    Scalar,
    UnaryMinus,
)
from repro.errors import ExecutionError
from repro.executor.scalar import like_matcher

__all__ = ["compile_scalar", "compile_predicate"]

RowFn = Callable[[tuple], object]

_COMPARATORS = {
    CompOp.EQ: lambda a, b: a == b,
    CompOp.NE: lambda a, b: a != b,
    CompOp.LT: lambda a, b: a < b,
    CompOp.LE: lambda a, b: a <= b,
    CompOp.GT: lambda a, b: a > b,
    CompOp.GE: lambda a, b: a >= b,
}


def compile_scalar(expr: Scalar, schema: Sequence[ColumnId]) -> RowFn:
    """Compile ``expr`` against ``schema``; returns ``fn(row) -> value``."""
    positions = {column: i for i, column in enumerate(schema)}
    return _compile(expr, positions)


def compile_predicate(
    expr: Scalar | None, schema: Sequence[ColumnId]
) -> Callable[[tuple], bool]:
    """Compile a predicate; ``None`` compiles to always-true."""
    if expr is None:
        return lambda row: True
    fn = compile_scalar(expr, schema)
    return lambda row: bool(fn(row))


def _compile(expr: Scalar, positions: dict[ColumnId, int]) -> RowFn:
    if isinstance(expr, ColumnRef):
        try:
            index = positions[expr.column_id]
        except KeyError:
            known = ", ".join(sorted(c.render() for c in positions))
            raise ExecutionError(
                f"column {expr.column_id.render()!r} not in input schema "
                f"({known})"
            ) from None
        return lambda row: row[index]

    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value

    if isinstance(expr, Comparison):
        left = _compile(expr.left, positions)
        right = _compile(expr.right, positions)
        compare = _COMPARATORS[expr.op]

        def comparison(row: tuple):
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            return compare(a, b)

        return comparison

    if isinstance(expr, BoolExpr):
        compiled = [_compile(arg, positions) for arg in expr.args]
        if expr.op is BoolOp.AND:
            return lambda row: all(fn(row) for fn in compiled)
        if expr.op is BoolOp.OR:
            return lambda row: any(fn(row) for fn in compiled)
        inner = compiled[0]
        return lambda row: not inner(row)

    if isinstance(expr, Arithmetic):
        left = _compile(expr.left, positions)
        right = _compile(expr.right, positions)
        op = expr.op
        if op == "+":
            return lambda row: left(row) + right(row)
        if op == "-":
            return lambda row: left(row) - right(row)
        if op == "*":
            return lambda row: left(row) * right(row)

        def divide(row: tuple):
            denominator = right(row)
            if denominator in (0, 0.0):
                raise ExecutionError("division by zero")
            return left(row) / denominator

        return divide

    if isinstance(expr, UnaryMinus):
        inner = _compile(expr.arg, positions)
        return lambda row: -inner(row)

    if isinstance(expr, Like):
        inner = _compile(expr.arg, positions)
        matcher = like_matcher(expr.pattern)
        if expr.negated:
            return lambda row: not matcher(inner(row))
        return lambda row: matcher(inner(row))

    if isinstance(expr, InList):
        inner = _compile(expr.arg, positions)
        values = set(expr.values)
        if expr.negated:
            return lambda row: inner(row) not in values
        return lambda row: inner(row) in values

    if isinstance(expr, IsNull):
        inner = _compile(expr.arg, positions)
        if expr.negated:
            return lambda row: inner(row) is not None
        return lambda row: inner(row) is None

    if isinstance(expr, AggregateCall):
        raise ExecutionError(
            "aggregate call cannot be evaluated per-row; aggregates are "
            "computed by aggregate operators"
        )

    raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")
