"""Scalar expression compilation: algebra trees -> one Python code object.

An expression is emitted as the *source of one Python expression* against
the operator's input row schema (a column reference becomes ``row[i]``,
or ``l[i]`` / ``r[j]`` for a join's two inputs) and wrapped in the shape
the operator runs: a function of one row, or a comprehension over a whole
row list, in which evaluating a row costs no Python call.  Literals,
``LIKE`` matchers and ``IN`` sets are passed *by name* through the
function's namespace, so nothing from a query's text is ever compiled,
and a source text — which depends only on expression shape and column
positions — is compiled once (:func:`code_object`).  ``README.md``
beside this file has the full contract, including the NULL semantics: a
comparison against ``None`` is false (SQL's UNKNOWN, filtered out).
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from functools import lru_cache

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
from repro.executor.schema import schema_positions

__all__ = [
    "compile_scalar",
    "compile_predicate",
    "compile_filter",
    "compile_join",
    "compile_probe",
    "compile_projection",
    "like_matcher",
    "code_object",
]

Schema = Sequence[ColumnId]
Rows = list[tuple]
RowsFn = Callable[[Rows], Rows]

#: Code objects kept.  Sampled plans of one workload share a few hundred
#: source texts; an uncached ``compile()`` costs more than running a small
#: operator, and an unbounded cache is a leak.
CODE_CACHE_SIZE = 512


@lru_cache(maxsize=CODE_CACHE_SIZE)
def code_object(source: str):
    """The compiled ``lambda`` expression ``source``."""
    try:
        return compile(source, "<repro.executor.scalar>", "eval")
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ExecutionError(f"expression nests too deeply to compile: {exc}") from None


@lru_cache(maxsize=256)
def like_matcher(pattern: str) -> Callable[[str], bool]:
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) to a matcher."""
    wildcards = {"%": ".*", "_": "."}
    regex = "".join(wildcards.get(ch) or re.escape(ch) for ch in pattern)
    fullmatch = re.compile(regex, re.DOTALL).fullmatch
    return lambda value: value is not None and fullmatch(value) is not None


def _division_by_zero():
    raise ExecutionError("division by zero")


#: nodes whose value is always a ``bool``
_BOOLEAN = (Comparison, BoolExpr, Like, InList, IsNull)


class _Source:
    """One compile: where each input's columns sit, and the namespace the
    emitted names (``k<n>`` constants, ``zero``) resolve in.  Whatever
    ``emit`` returns is an atom or parenthesized: safe to embed anywhere."""

    def __init__(self, *inputs: tuple[str, Schema]):
        self.inputs = [(var, schema_positions(schema)) for var, schema in inputs]
        self.names: dict[str, object] = {"__builtins__": {}, "zero": _division_by_zero}
        self.temporaries = 0

    def function(self, parameters: str, body: str) -> Callable:
        return eval(code_object(f"lambda {parameters}: {body}"), self.names)

    def constant(self, value: object) -> str:
        name = f"k{len(self.names)}"
        self.names[name] = value
        return name

    def temporary(self) -> str:
        self.temporaries += 1
        return f"t{self.temporaries}"

    def truth(self, expr: Scalar) -> str:
        text = self.emit(expr)
        return text if isinstance(expr, _BOOLEAN) else f"(not not {text})"

    def column(self, column: ColumnId) -> tuple[str, int]:
        """The input variable holding ``column``, and its position there."""
        for var, positions in self.inputs:
            if (index := positions.get(column)) is not None:
                return var, index
        known = sorted(c.render() for _, pos in self.inputs for c in pos)
        raise ExecutionError(
            f"column {column.render()!r} not in input schema ({', '.join(known)})"
        )

    def emit(self, expr: Scalar) -> str:
        if isinstance(expr, ColumnRef):
            return "{}[{}]".format(*self.column(expr.column_id))
        if isinstance(expr, Literal):
            return self.constant(expr.value)
        if isinstance(expr, Comparison):
            # Only a column or a literal can be None: any other node yields
            # a bool or a number, or raises -- so it is evaluated (bound to
            # a temporary) before a None test of the other operand could
            # skip it.  Beside a guard, at most one operand is such a node.
            sides = (expr.left, expr.right)
            operands = [self.emit(side) for side in sides]
            null = any(isinstance(s, Literal) and s.value is None for s in sides)
            if expr.op is CompOp.EQ and not null:
                # Equality first: ``None == x`` is false for a non-NULL
                # ``x``, so only NULL = NULL needs a guard, and only
                # between two columns; the operands are evaluated in order.
                test = f"{operands[0]} == {operands[1]}"
                if all(isinstance(side, ColumnRef) for side in sides):
                    return f"({test} and {operands[0]} is not None)"
                return f"({test})"
            guards = [
                f"{text} is not None"
                for side, text in zip(sides, operands)
                if isinstance(side, ColumnRef)
            ]
            if null:
                guards.append("False")
            for i, side in enumerate(sides):
                if guards and not isinstance(side, (ColumnRef, Literal)):
                    temp = self.temporary()
                    guards.insert(0, f"({temp} := {operands[i]}) is not None")
                    operands[i] = temp
            op = {CompOp.EQ: "==", CompOp.NE: "!="}.get(expr.op, expr.op.value)
            guards.append(f"{operands[0]} {op} {operands[1]}")
            return "(" + " and ".join(guards) + ")"
        if isinstance(expr, BoolExpr):
            if expr.op is BoolOp.NOT:
                return f"(not {self.emit(expr.args[0])})"
            joiner = " and " if expr.op is BoolOp.AND else " or "
            return "(" + joiner.join(self.truth(arg) for arg in expr.args) + ")"
        if isinstance(expr, Arithmetic):
            if expr.op == "/":  # the denominator is evaluated, and tested, first
                temp = self.temporary()
                return (
                    f"({self.emit(expr.left)} / {temp} "
                    f"if ({temp} := {self.emit(expr.right)}) != 0 else zero())"
                )
            # A left-deep chain of one precedence level is emitted flat:
            # Python evaluates it in the same order, and a long sum stays
            # clear of the parser's nesting limit.
            level = "+-" if expr.op in "+-" else "*"
            terms = []
            while isinstance(expr, Arithmetic) and expr.op in level:
                terms.append(f" {expr.op} {self.emit(expr.right)}")
                expr = expr.left
            return "(" + self.emit(expr) + "".join(reversed(terms)) + ")"
        if isinstance(expr, UnaryMinus):
            return f"(-{self.emit(expr.arg)})"
        if isinstance(expr, Like):
            call = f"{self.constant(like_matcher(expr.pattern))}({self.emit(expr.arg)})"
            return f"(not {call})" if expr.negated else call
        if isinstance(expr, InList):
            test = "not in" if expr.negated else "in"
            return f"({self.emit(expr.arg)} {test} {self.constant(set(expr.values))})"
        if isinstance(expr, IsNull):
            test = "is not" if expr.negated else "is"
            return f"({self.emit(expr.arg)} {test} None)"
        if isinstance(expr, AggregateCall):
            raise ExecutionError(
                "aggregate call cannot be evaluated per-row; aggregates are "
                "computed by aggregate operators"
            )
        raise ExecutionError(f"cannot compile expression node {type(expr).__name__}")


def compile_scalar(expr: Scalar, schema: Schema) -> Callable[[tuple], object]:
    """Compile ``expr`` against ``schema``; returns ``fn(row) -> value``."""
    source = _Source(("row", schema))
    return source.function("row", source.emit(expr))


def compile_predicate(expr: Scalar | None, schema: Schema) -> Callable[[tuple], bool]:
    """Compile a predicate; ``None`` compiles to always-true."""
    if expr is None:
        return lambda row: True
    source = _Source(("row", schema))
    return source.function("row", source.truth(expr))


def compile_filter(expr: Scalar | None, schema: Schema) -> RowsFn:
    """``fn(rows) -> the rows that pass, in order``: always a new list."""
    if expr is None:
        return list
    source = _Source(("row", schema))
    return source.function("rows", f"[row for row in rows if {source.emit(expr)}]")


def _cannot_raise(expr: Scalar) -> bool:
    """True for a conjunct no row can make raise: ``=`` / ``<>`` and
    ``IS NULL`` / ``IN`` over columns and literals."""
    if isinstance(expr, Comparison):
        return expr.op in (CompOp.EQ, CompOp.NE) and all(
            isinstance(side, (ColumnRef, Literal)) for side in (expr.left, expr.right)
        )
    return isinstance(expr, (IsNull, InList)) and isinstance(expr.arg, (ColumnRef, Literal))


def _join_source(source: _Source, expr: Scalar | None, inner: str) -> str:
    """``[l + r for l in lefts for r in <inner> if <expr>]``, with every
    column = column equality between the two sides that only conjuncts
    which cannot raise precede *probed*: its left column is read once
    per outer row into a temporary, and it is tested -- inner column
    first, then the NULL guard -- before the other conjuncts, which keep
    their order.  Moving a conjunct that cannot raise changes no value
    and no exception."""
    if expr is None:
        conjuncts = []
    elif isinstance(expr, BoolExpr) and expr.op is BoolOp.AND:
        conjuncts = list(expr.args)
    else:
        conjuncts = [expr]
    keys: list[str] = []
    probes: list[str] = []
    rest: list[str] = []
    movable = True
    for conjunct in conjuncts:
        if movable and isinstance(conjunct, Comparison) and conjunct.op is CompOp.EQ:
            sides = (conjunct.left, conjunct.right)
            if all(isinstance(side, ColumnRef) for side in sides):
                (a, i), (b, j) = (source.column(side.column_id) for side in sides)
                if {a, b} == {"l", "r"}:
                    outer, inner_index = (i, j) if a == "l" else (j, i)
                    temp = source.temporary()
                    keys.append(f" for {temp} in (l[{outer}],)")
                    probes.append(f"r[{inner_index}] == {temp} and {temp} is not None")
                    continue
        movable = movable and _cannot_raise(conjunct)
        rest.append(source.truth(conjunct))
    tests = probes + rest
    test = f" if {' and '.join(tests)}" if tests else ""
    return f"[l + r for l in lefts{''.join(keys)} for r in {inner}{test}]"


def compile_join(
    expr: Scalar | None, left: Schema, right: Schema
) -> Callable[[Sequence[tuple], Sequence[tuple]], Rows]:
    """``fn(lefts, rights) -> [l + r, ...]`` over the pairs that pass, in
    nested-loop order; only a passing pair is concatenated."""
    source = _Source(("l", left), ("r", right))
    return source.function("lefts, rights", _join_source(source, expr, "rights"))


def compile_probe(
    residual: Scalar | None,
    left: Schema,
    right: Schema,
    key: Callable[[tuple], object],
    buckets: dict,
) -> RowsFn:
    """``fn(lefts) -> [l + r, ...]``: each left row joined, in order, with
    the rows of its bucket, ``buckets[key(l)]``, that pass ``residual``.
    ``key`` and ``buckets`` are passed by name, so the source text is the
    residual's alone."""
    source = _Source(("l", left), ("r", right))
    lookup = f"{source.constant(buckets.get)}({source.constant(key)}(l), ())"
    return source.function("lefts", _join_source(source, residual, lookup))


def compile_projection(exprs: Sequence[Scalar], schema: Schema) -> RowsFn:
    """``fn(rows) -> [(each expression's value, ...) per row]``."""
    source = _Source(("row", schema))
    values = "".join(f"{source.emit(expr)}, " for expr in exprs)
    return source.function("rows", f"[({values}) for row in rows]")
