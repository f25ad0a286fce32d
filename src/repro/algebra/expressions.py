"""Scalar expressions: column references, literals, predicates, arithmetic.

Expressions are immutable, hashable trees.  Each node exposes

* ``references()`` — the set of :class:`ColumnId` it reads, which drives
  predicate placement (which join an equality belongs to) and
  connected-subgraph tests for the no-Cartesian-product mode;
* ``fingerprint()`` — a canonical, hashable encoding used for MEMO
  duplicate detection;
* ``render()`` — SQL-ish text for EXPLAIN output.

Evaluation is *not* implemented here: the execution engine emits each
tree as the source of one Python expression and compiles that
(:mod:`repro.executor.scalar`), keeping the algebra layer free of runtime
concerns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import AlgebraError

__all__ = [
    "CachedKey",
    "ColumnId",
    "Scalar",
    "ColumnRef",
    "Literal",
    "CompOp",
    "Comparison",
    "BoolOp",
    "BoolExpr",
    "Arithmetic",
    "UnaryMinus",
    "Like",
    "InList",
    "IsNull",
    "AggFunc",
    "AggregateCall",
    "split_conjuncts",
    "make_conjunction",
]


class CachedKey:
    """A canonical key tuple with its hash computed exactly once.

    Operator keys embed deep predicate fingerprints; Python tuples do not
    cache their hash, so using raw tuples as memo-dictionary keys re-walks
    the whole nested structure on every insert and lookup.  Wrapping the
    tuple keeps value equality while making repeated hashing O(1).
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CachedKey):
            return self.key == other.key
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedKey({self.key!r})"


@dataclass(frozen=True, order=True)
class ColumnId:
    """A fully qualified column: range-variable alias plus column name.

    Aliases are unique per query (the binder guarantees it), so a
    ``ColumnId`` unambiguously identifies one column of one range variable
    even when the same table appears twice (e.g. ``nation n1, nation n2``
    in TPC-H Q7).  Derived columns (projection/aggregation outputs) use the
    empty alias.
    """

    alias: str
    column: str

    def __hash__(self) -> int:
        # Explicit cached hash (preserved by dataclass): ColumnIds appear in
        # the key tuples of tens of thousands of physical operators, so the
        # memo hashes the same instances over and over.
        h = self.__dict__.get("_cached_hash")
        if h is None:
            h = hash((self.alias, self.column))
            object.__setattr__(self, "_cached_hash", h)
        return h

    def render(self) -> str:
        if not self.alias:
            return self.column
        return f"{self.alias}.{self.column}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


class Scalar:
    """Base class for scalar expression nodes."""

    def references(self) -> frozenset[ColumnId]:
        raise NotImplementedError

    def fingerprint(self) -> tuple:
        """Canonical hashable encoding used for MEMO duplicate detection.

        Memoized on the node: expression trees are immutable, and the
        optimizer fingerprints the same (interned) predicate objects for
        every memo insertion, so the recursive encoding is built once.
        """
        fp = self.__dict__.get("_fp")
        if fp is None:
            fp = self._fingerprint()
            object.__setattr__(self, "_fp", fp)
        return fp

    def _fingerprint(self) -> tuple:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def children(self) -> tuple["Scalar", ...]:
        return ()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


@dataclass(frozen=True)
class ColumnRef(Scalar):
    """A reference to a bound column."""

    column_id: ColumnId

    def references(self) -> frozenset[ColumnId]:
        return frozenset((self.column_id,))

    def _fingerprint(self) -> tuple:
        return ("col", self.column_id.alias, self.column_id.column)

    def render(self) -> str:
        return self.column_id.render()


@dataclass(frozen=True)
class Literal(Scalar):
    """A constant: integer, float, or string (dates are ISO strings)."""

    value: int | float | str | None

    def references(self) -> frozenset[ColumnId]:
        return frozenset()

    def _fingerprint(self) -> tuple:
        return ("lit", type(self.value).__name__, self.value)

    def render(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


class CompOp(enum.Enum):
    """Comparison operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "CompOp":
        """The operator with operand sides exchanged (a < b  <=>  b > a)."""
        return {
            CompOp.EQ: CompOp.EQ,
            CompOp.NE: CompOp.NE,
            CompOp.LT: CompOp.GT,
            CompOp.LE: CompOp.GE,
            CompOp.GT: CompOp.LT,
            CompOp.GE: CompOp.LE,
        }[self]


@dataclass(frozen=True)
class Comparison(Scalar):
    """A binary comparison ``left op right``."""

    op: CompOp
    left: Scalar
    right: Scalar

    def references(self) -> frozenset[ColumnId]:
        return self.left.references() | self.right.references()

    def _fingerprint(self) -> tuple:
        # Canonicalize equality/inequality so that a = b and b = a get the
        # same fingerprint (join commutativity must not create "different"
        # predicates).
        lf = self.left.fingerprint()
        rf = self.right.fingerprint()
        op = self.op
        if op in (CompOp.EQ, CompOp.NE) and rf < lf:
            lf, rf = rf, lf
        elif op in (CompOp.GT, CompOp.GE):
            op = op.flipped()
            lf, rf = rf, lf
        return ("cmp", op.value, lf, rf)

    def render(self) -> str:
        return f"{self.left.render()} {self.op.value} {self.right.render()}"

    def children(self) -> tuple[Scalar, ...]:
        return (self.left, self.right)


class BoolOp(enum.Enum):
    AND = "AND"
    OR = "OR"
    NOT = "NOT"


@dataclass(frozen=True)
class BoolExpr(Scalar):
    """AND / OR / NOT over boolean arguments."""

    op: BoolOp
    args: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if self.op is BoolOp.NOT:
            if len(self.args) != 1:
                raise AlgebraError("NOT takes exactly one argument")
        elif len(self.args) < 2:
            raise AlgebraError(f"{self.op.value} needs at least two arguments")

    def references(self) -> frozenset[ColumnId]:
        out: frozenset[ColumnId] = frozenset()
        for arg in self.args:
            out |= arg.references()
        return out

    def _fingerprint(self) -> tuple:
        parts = [arg.fingerprint() for arg in self.args]
        if self.op in (BoolOp.AND, BoolOp.OR):
            parts.sort()
        return ("bool", self.op.value, tuple(parts))

    def render(self) -> str:
        if self.op is BoolOp.NOT:
            return f"NOT ({self.args[0].render()})"
        joiner = f" {self.op.value} "
        return "(" + joiner.join(arg.render() for arg in self.args) + ")"

    def children(self) -> tuple[Scalar, ...]:
        return self.args


@dataclass(frozen=True)
class Arithmetic(Scalar):
    """Binary arithmetic ``left op right`` with op in ``+ - * /``."""

    op: str
    left: Scalar
    right: Scalar

    def __post_init__(self) -> None:
        if self.op not in ("+", "-", "*", "/"):
            raise AlgebraError(f"unknown arithmetic operator {self.op!r}")

    def references(self) -> frozenset[ColumnId]:
        return self.left.references() | self.right.references()

    def _fingerprint(self) -> tuple:
        lf = self.left.fingerprint()
        rf = self.right.fingerprint()
        if self.op in ("+", "*") and rf < lf:
            lf, rf = rf, lf
        return ("arith", self.op, lf, rf)

    def render(self) -> str:
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def children(self) -> tuple[Scalar, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class UnaryMinus(Scalar):
    """Numeric negation."""

    arg: Scalar

    def references(self) -> frozenset[ColumnId]:
        return self.arg.references()

    def _fingerprint(self) -> tuple:
        return ("neg", self.arg.fingerprint())

    def render(self) -> str:
        return f"(-{self.arg.render()})"

    def children(self) -> tuple[Scalar, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class Like(Scalar):
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards (optionally negated)."""

    arg: Scalar
    pattern: str
    negated: bool = False

    def references(self) -> frozenset[ColumnId]:
        return self.arg.references()

    def _fingerprint(self) -> tuple:
        return ("like", self.negated, self.arg.fingerprint(), self.pattern)

    def render(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.arg.render()} {op} '{self.pattern}'"

    def children(self) -> tuple[Scalar, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class InList(Scalar):
    """SQL ``IN (v1, v2, ...)`` over literal values."""

    arg: Scalar
    values: tuple[int | float | str, ...]
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise AlgebraError("IN list must be non-empty")

    def references(self) -> frozenset[ColumnId]:
        return self.arg.references()

    def _fingerprint(self) -> tuple:
        return (
            "in",
            self.negated,
            self.arg.fingerprint(),
            tuple(sorted(self.values, key=repr)),
        )

    def render(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        vals = ", ".join(Literal(v).render() for v in self.values)
        return f"{self.arg.render()} {op} ({vals})"

    def children(self) -> tuple[Scalar, ...]:
        return (self.arg,)


@dataclass(frozen=True)
class IsNull(Scalar):
    """SQL ``IS [NOT] NULL``."""

    arg: Scalar
    negated: bool = False

    def references(self) -> frozenset[ColumnId]:
        return self.arg.references()

    def _fingerprint(self) -> tuple:
        return ("isnull", self.negated, self.arg.fingerprint())

    def render(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.arg.render()} {op}"

    def children(self) -> tuple[Scalar, ...]:
        return (self.arg,)


class AggFunc(enum.Enum):
    """Aggregate functions supported by the engine."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


@dataclass(frozen=True)
class AggregateCall(Scalar):
    """An aggregate function call; ``arg is None`` encodes ``COUNT(*)``."""

    func: AggFunc
    arg: Scalar | None

    def __post_init__(self) -> None:
        if self.arg is None and self.func is not AggFunc.COUNT:
            raise AlgebraError(f"{self.func.value}(*) is not valid SQL")

    def references(self) -> frozenset[ColumnId]:
        if self.arg is None:
            return frozenset()
        return self.arg.references()

    def _fingerprint(self) -> tuple:
        arg_fp = None if self.arg is None else self.arg.fingerprint()
        return ("agg", self.func.value, arg_fp)

    def render(self) -> str:
        inner = "*" if self.arg is None else self.arg.render()
        return f"{self.func.value}({inner})"

    def children(self) -> tuple[Scalar, ...]:
        return () if self.arg is None else (self.arg,)


def split_conjuncts(expr: Scalar | None) -> list[Scalar]:
    """Flatten nested ANDs into a list of conjuncts.

    ``None`` (no predicate) yields the empty list.  ORs and other boolean
    structure are kept intact as single conjuncts.
    """
    if expr is None:
        return []
    if isinstance(expr, BoolExpr) and expr.op is BoolOp.AND:
        out: list[Scalar] = []
        for arg in expr.args:
            out.extend(split_conjuncts(arg))
        return out
    return [expr]


def make_conjunction(conjuncts: list[Scalar]) -> Scalar | None:
    """Rebuild a predicate from conjuncts, canonically ordered.

    The conjuncts are sorted by fingerprint so that the same *set* of
    conjuncts always produces an identical expression object — the memo
    relies on this to deduplicate join operators that different
    transformation paths produce.
    """
    if not conjuncts:
        return None
    unique: dict[tuple, Scalar] = {}
    for conjunct in conjuncts:
        unique.setdefault(conjunct.fingerprint(), conjunct)
    ordered = [unique[fp] for fp in sorted(unique)]
    if len(ordered) == 1:
        return ordered[0]
    return BoolExpr(BoolOp.AND, tuple(ordered))
