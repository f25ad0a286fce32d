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

    def emit(self, expr: Scalar) -> str:
        if isinstance(expr, ColumnRef):
            for var, positions in self.inputs:
                if (index := positions.get(expr.column_id)) is not None:
                    return f"{var}[{index}]"
            known = sorted(c.render() for _, pos in self.inputs for c in pos)
            raise ExecutionError(
                f"column {expr.column_id.render()!r} not in input schema "
                f"({', '.join(known)})"
            )
        if isinstance(expr, Literal):
            return self.constant(expr.value)
        if isinstance(expr, Comparison):
            # Only a column or a literal can be None: any other node yields
            # a bool or a number, or raises -- so it is evaluated (bound to
            # a temporary) before a None test of the other operand could
            # skip it.  Beside a guard, at most one operand is such a node.
            sides = (expr.left, expr.right)
            operands = [self.emit(side) for side in sides]
            guards = [
                f"{text} is not None"
                for side, text in zip(sides, operands)
                if isinstance(side, ColumnRef)
            ]
            if any(isinstance(s, Literal) and s.value is None for s in sides):
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


def compile_join(
    expr: Scalar | None, left: Schema, right: Schema
) -> Callable[[Sequence[tuple], Sequence[tuple]], Rows]:
    """``fn(lefts, rights) -> [l + r, ...]`` over the pairs that pass, in
    nested-loop order; only a passing pair is concatenated."""
    source = _Source(("l", left), ("r", right))
    test = "" if expr is None else f" if {source.emit(expr)}"
    body = f"[l + r for l in lefts for r in rights{test}]"
    return source.function("lefts, rights", body)


def compile_projection(exprs: Sequence[Scalar], schema: Schema) -> RowsFn:
    """``fn(rows) -> [(each expression's value, ...) per row]``."""
    source = _Source(("row", schema))
    values = "".join(f"{source.emit(expr)}, " for expr in exprs)
    return source.function("rows", f"[({values}) for row in rows]")
