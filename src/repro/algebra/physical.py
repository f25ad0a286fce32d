"""Physical operators: the implementations that make up execution plans.

Each physical operator declares

* ``delivered_order()`` — the sort order of its output (a *static*
  physical property, e.g. an index scan delivers its key order, a hash
  join destroys order);
* ``required_child_order(i)`` — the order it demands of child ``i``
  (merge join needs both inputs sorted on the join keys, stream aggregate
  needs its input sorted on the grouping columns).

These two hooks are everything the paper's Section 3.1 preparatory step
needs: an operator links to a child-group alternative only if the
alternative's delivered order satisfies the requirement.

``Sort`` is an *enforcer*: a physical operator whose only job is to
establish a property.  Its child alternatives come from its own group
(it links to the non-enforcers of its group only, which keeps the plan
space acyclic — see :mod:`repro.planspace.implicit.tables`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import (
    AggregateCall,
    CachedKey,
    ColumnId,
    Scalar,
)
from repro.algebra.properties import NO_ORDER, SortOrder
from repro.errors import AlgebraError

__all__ = [
    "PhysicalOperator",
    "TableScan",
    "IndexScan",
    "PhysicalFilter",
    "NestedLoopJoin",
    "HashJoin",
    "MergeJoin",
    "IndexNestedLoopJoin",
    "Sort",
    "HashAggregate",
    "StreamAggregate",
    "PhysicalProject",
]


class PhysicalOperator:
    """Base class for physical operators."""

    arity: int = 0
    #: enforcers establish properties rather than compute anything new
    is_enforcer: bool = False

    @property
    def name(self) -> str:
        return type(self).__name__

    def key(self) -> CachedKey:
        """Canonical hashable identity used for MEMO duplicate detection.

        Memoized per operator object — operators are immutable and the
        memo recomputes the key on every insertion and lookup.  The result
        is a hash-caching wrapper, so dictionary operations never re-walk
        the nested predicate fingerprints inside.
        """
        key = self.__dict__.get("_key_cache")
        if key is None:
            key = CachedKey(self._key())
            object.__setattr__(self, "_key_cache", key)
        return key

    def _key(self) -> tuple:
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError

    def delivered_order(self) -> SortOrder:
        """Sort order of this operator's output."""
        return NO_ORDER

    def required_child_order(self, child: int) -> SortOrder:
        """Sort order required of child number ``child`` (0-based)."""
        return NO_ORDER

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fp(predicate: Scalar | None) -> tuple | None:
    return None if predicate is None else predicate.fingerprint()


def _pred_str(predicate: Scalar | None) -> str:
    return "" if predicate is None else f" [{predicate.render()}]"


def _cols(columns: tuple[ColumnId, ...]) -> str:
    return ", ".join(c.render() for c in columns)


@dataclass(frozen=True)
class TableScan(PhysicalOperator):
    """Sequential scan of a base table; delivers no order."""

    table: str
    alias: str
    predicate: Scalar | None = None

    arity = 0

    def _key(self) -> tuple:
        return ("tablescan", self.table, self.alias, _fp(self.predicate))

    def render(self) -> str:
        return f"TableScan({self.table} AS {self.alias}){_pred_str(self.predicate)}"


@dataclass(frozen=True)
class IndexScan(PhysicalOperator):
    """Scan of a sorted index; delivers the index key order.

    ``key_order`` is the index key translated to this range variable's
    alias, so ``lineitem_partkey`` scanned as alias ``l`` delivers order
    ``(l.l_partkey,)``.
    """

    table: str
    alias: str
    index_name: str
    key_order: tuple[ColumnId, ...]
    predicate: Scalar | None = None

    arity = 0

    def __post_init__(self) -> None:
        if not self.key_order:
            raise AlgebraError("IndexScan requires a non-empty key order")

    def _key(self) -> tuple:
        return (
            "indexscan",
            self.table,
            self.alias,
            self.index_name,
            _fp(self.predicate),
        )

    def render(self) -> str:
        return (
            f"IndexScan({self.table} AS {self.alias} USING {self.index_name})"
            f"{_pred_str(self.predicate)}"
        )

    def delivered_order(self) -> SortOrder:
        return self.key_order


@dataclass(frozen=True)
class PhysicalFilter(PhysicalOperator):
    """Filter rows by a residual predicate; order-preserving in reality,
    but conservatively declared order-destroying (static property model)."""

    predicate: Scalar

    arity = 1

    def _key(self) -> tuple:
        return ("filter", _fp(self.predicate))

    def render(self) -> str:
        return f"Filter{_pred_str(self.predicate)}"


@dataclass(frozen=True)
class NestedLoopJoin(PhysicalOperator):
    """Tuple-at-a-time nested-loops join; the only join that accepts an
    arbitrary (or empty, i.e. Cartesian) predicate."""

    predicate: Scalar | None = None

    arity = 2

    def _key(self) -> tuple:
        return ("nlj", _fp(self.predicate))

    def render(self) -> str:
        return f"NestedLoopJoin{_pred_str(self.predicate)}"


@dataclass(frozen=True)
class HashJoin(PhysicalOperator):
    """Hash join on equality keys; builds on the right, probes with the left.

    ``residual`` holds non-equality conjuncts evaluated after the hash
    match.  Destroys order.
    """

    left_keys: tuple[ColumnId, ...]
    right_keys: tuple[ColumnId, ...]
    residual: Scalar | None = None

    arity = 2

    def __post_init__(self) -> None:
        if not self.left_keys or len(self.left_keys) != len(self.right_keys):
            raise AlgebraError("HashJoin requires matching, non-empty key lists")

    def _key(self) -> tuple:
        # ColumnId is a frozen value type: the key tuples are usable directly
        # (building per-column subtuples here was a memo-insertion hot spot).
        return ("hashjoin", self.left_keys, self.right_keys, _fp(self.residual))

    def render(self) -> str:
        keys = ", ".join(
            f"{l.render()}={r.render()}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HashJoin({keys}){_pred_str(self.residual)}"


@dataclass(frozen=True)
class MergeJoin(PhysicalOperator):
    """Sort-merge join; requires both inputs sorted on the join keys and
    delivers the left key order."""

    left_keys: tuple[ColumnId, ...]
    right_keys: tuple[ColumnId, ...]
    residual: Scalar | None = None

    arity = 2

    def __post_init__(self) -> None:
        if not self.left_keys or len(self.left_keys) != len(self.right_keys):
            raise AlgebraError("MergeJoin requires matching, non-empty key lists")

    def _key(self) -> tuple:
        return ("mergejoin", self.left_keys, self.right_keys, _fp(self.residual))

    def render(self) -> str:
        keys = ", ".join(
            f"{l.render()}={r.render()}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"MergeJoin({keys}){_pred_str(self.residual)}"

    def delivered_order(self) -> SortOrder:
        return self.left_keys

    def required_child_order(self, child: int) -> SortOrder:
        return self.left_keys if child == 0 else self.right_keys


@dataclass(frozen=True)
class IndexNestedLoopJoin(PhysicalOperator):
    """Index lookup join: for each outer row, seek the inner table's index.

    The inner side is not a memo child — the operator *owns* the inner
    table access (SQL Server's "index lookup" style), so the operator has
    arity 1 (the outer input).  ``outer_keys[i]`` probes the index key
    prefix ``inner_keys[i]``; ``inner_predicate`` is the inner table's
    pushed-down filter; ``residual`` holds join conjuncts the index seek
    does not cover.

    This is the paper's "index utilization" dimension of the plan space
    beyond plain scans; it is generated only when
    ``ImplementationConfig.enable_index_nl_join`` is on.
    """

    inner_table: str
    inner_alias: str
    index_name: str
    outer_keys: tuple[ColumnId, ...]
    inner_keys: tuple[ColumnId, ...]
    inner_predicate: Scalar | None = None
    residual: Scalar | None = None

    arity = 1

    def __post_init__(self) -> None:
        if not self.outer_keys or len(self.outer_keys) != len(self.inner_keys):
            raise AlgebraError(
                "IndexNestedLoopJoin requires matching, non-empty key lists"
            )

    def _key(self) -> tuple:
        return (
            "indexnlj",
            self.inner_table,
            self.inner_alias,
            self.index_name,
            self.outer_keys,
            self.inner_keys,
            _fp(self.inner_predicate),
            _fp(self.residual),
        )

    def render(self) -> str:
        keys = ", ".join(
            f"{o.render()}={i.render()}"
            for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return (
            f"IndexNLJoin({self.inner_table} AS {self.inner_alias} "
            f"USING {self.index_name}; {keys}){_pred_str(self.residual)}"
        )


@dataclass(frozen=True)
class Sort(PhysicalOperator):
    """Sort enforcer: establishes ``order`` over its (same-group) child."""

    order: tuple[ColumnId, ...]

    arity = 1
    is_enforcer = True

    def __post_init__(self) -> None:
        if not self.order:
            raise AlgebraError("Sort requires a non-empty order")

    def _key(self) -> tuple:
        return ("sort", self.order)

    def render(self) -> str:
        return f"Sort({_cols(self.order)})"

    def delivered_order(self) -> SortOrder:
        return self.order


@dataclass(frozen=True)
class HashAggregate(PhysicalOperator):
    """Hash-based grouping; no input requirement, destroys order."""

    group_by: tuple[ColumnId, ...]
    aggregates: tuple[tuple[str, AggregateCall], ...]

    arity = 1

    def _key(self) -> tuple:
        return (
            "hashagg",
            tuple((c.alias, c.column) for c in self.group_by),
            tuple((name, call.fingerprint()) for name, call in self.aggregates),
        )

    def render(self) -> str:
        return f"HashAggregate(by {_cols(self.group_by) or '()'})"


@dataclass(frozen=True)
class StreamAggregate(PhysicalOperator):
    """Streaming grouping; requires input sorted on the grouping columns
    and delivers that order.  A scalar aggregate (no grouping columns)
    requires nothing."""

    group_by: tuple[ColumnId, ...]
    aggregates: tuple[tuple[str, AggregateCall], ...]

    arity = 1

    def _key(self) -> tuple:
        return (
            "streamagg",
            tuple((c.alias, c.column) for c in self.group_by),
            tuple((name, call.fingerprint()) for name, call in self.aggregates),
        )

    def render(self) -> str:
        return f"StreamAggregate(by {_cols(self.group_by) or '()'})"

    def delivered_order(self) -> SortOrder:
        return self.group_by

    def required_child_order(self, child: int) -> SortOrder:
        return self.group_by


@dataclass(frozen=True)
class PhysicalProject(PhysicalOperator):
    """Compute the projection list; conservatively destroys order."""

    outputs: tuple[tuple[str, Scalar], ...]

    arity = 1

    def _key(self) -> tuple:
        return (
            "projectop",
            tuple((name, expr.fingerprint()) for name, expr in self.outputs),
        )

    def render(self) -> str:
        cols = ", ".join(f"{expr.render()} AS {name}" for name, expr in self.outputs)
        return f"Project({cols})"
