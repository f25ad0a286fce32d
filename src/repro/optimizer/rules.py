"""Implementation rules as a side-effect-free, queryable module.

This is the single source of truth for the paper's rule category (2) — "a
physical operator in the same group" — shared by two consumers:

* :func:`repro.optimizer.implementation.implement_memo_columnar`
  *materializes* the rules: one row of the physical store per generated
  operator (rebuilt on demand as a :class:`~repro.memo.group.GroupExpr`);
* :mod:`repro.planspace.implicit` applies the rules *analytically*: it
  derives per-group physical-alternative counts from the rule arity alone
  (:func:`join_rule_arity`) and only instantiates the operators on an
  unranked plan's path.

Both build their operators through one :class:`PhysicalOperators` cache
per space — the only caller of the four rule constructors and of
``Sort`` — which the pair record creates and seeds with every leaf's and
tower group's operators.

Both consumers must agree exactly — operator identity, generation order,
and enforcer requirements — or counting and unranking diverge from the
materialized search space.  The property suite cross-validates them
(``tests/property/test_prop_implicit_equivalence.py``).

Rule order (the order operators enter a group, which fixes the paper's
``group.local`` identifiers):

* ``Get``  -> ``TableScan``, then one ``IndexScan`` per catalog index;
* ``Join`` -> ``NestedLoopJoin``, ``HashJoin``, ``MergeJoin`` (the latter
  two only when an equality conjunct straddles the sides), then any
  ``IndexNestedLoopJoin`` variants when enabled;
* ``Select`` -> ``Filter``; ``Aggregate`` -> ``HashAggregate`` +
  ``StreamAggregate`` when grouped, ``StreamAggregate`` alone when
  scalar (hash needs grouping columns); ``Project`` -> ``Project``;
* ``Sort`` enforcers last, one per distinct required ``(group, order)``
  pair, in global first-occurrence order.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.algebra.expressions import (
    ColumnId,
    ColumnRef,
    Comparison,
    CompOp,
    Scalar,
    make_conjunction,
    split_conjuncts,
)
from repro.algebra.logical import (
    LogicalAggregate,
    LogicalGet,
    LogicalProject,
    LogicalSelect,
)
from repro.algebra.physical import (
    HashAggregate,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PhysicalFilter,
    PhysicalOperator,
    PhysicalProject,
    Sort,
    StreamAggregate,
    TableScan,
)
from repro.catalog.catalog import Catalog
from repro.errors import OptimizerError
from repro.kernel.vector import sorted_unique

__all__ = [
    "ImplementationConfig",
    "JoinImplementations",
    "PhysicalOperators",
    "equality_analysis",
    "extract_equi_keys",
    "index_lookup_matches",
    "index_nl_join_implementations",
    "join_implementations",
    "join_physical_kinds",
    "join_rule_arity",
    "nested_loop_join",
    "scan_implementations",
    "unary_implementations",
]


from dataclasses import dataclass


@dataclass(frozen=True)
class ImplementationConfig:
    """Which implementations to generate (ablation knobs).

    ``enable_index_nl_join`` adds index-lookup joins (the paper's "index
    utilization" dimension); it is off by default so that the documented
    baseline spaces stay comparable — the index-join ablation benchmark
    measures its effect explicitly.
    """

    enable_index_scans: bool = True
    enable_hash_join: bool = True
    enable_merge_join: bool = True
    enable_nested_loop_join: bool = True
    enable_index_nl_join: bool = False
    enable_stream_aggregate: bool = True
    enable_sort_enforcers: bool = True


# ----------------------------------------------------------------------
# equality analysis and key extraction
# ----------------------------------------------------------------------
def equality_analysis(
    predicate: Scalar,
) -> tuple[
    tuple[tuple[ColumnId, ColumnId, str, str, tuple, tuple, Scalar], ...],
    tuple[Scalar, ...],
]:
    """Classify a predicate's conjuncts.

    Returns ``(candidate equality pairs, other conjuncts)`` where each
    pair entry is ``(a, b, a_alias, b_alias, sort_key_ab, sort_key_ba,
    conjunct)``.  Nothing is cached on the predicate: an analysis holds
    the conjuncts, so storing it on them would tie every predicate into
    a reference cycle.  The walk runs once per operator-cache build of
    an orientation (:class:`PhysicalOperators`) and once per conjunct of
    an edge catalog.
    """
    eq_pairs = []
    others: list[Scalar] = []
    for conjunct in split_conjuncts(predicate):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op is CompOp.EQ
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            a = conjunct.left.column_id
            b = conjunct.right.column_id
            # Both orientations' sort keys are precomputed so the
            # per-join extraction sorts plain string tuples.
            eq_pairs.append(
                (
                    a,
                    b,
                    a.alias,
                    b.alias,
                    (a.alias, a.column, b.alias, b.column),
                    (b.alias, b.column, a.alias, a.column),
                    conjunct,
                )
            )
        else:
            others.append(conjunct)
    return tuple(eq_pairs), tuple(others)


def extract_equi_keys(
    predicate: Scalar | None,
    left_relations: frozenset[str],
    right_relations: frozenset[str],
) -> tuple[tuple[ColumnId, ...], tuple[ColumnId, ...], Scalar | None]:
    """Split a join predicate into equi-join keys plus a residual.

    Returns ``(left_keys, right_keys, residual)``; the key lists are empty
    when no equality conjunct straddles the two sides.  Key pairs are
    sorted canonically — by the *left* side's ``(alias, column, right
    alias, right column)`` string key — so the same logical join always
    yields the same physical operator identity.  Note the consequence the
    implicit engine depends on: ``right_keys`` follows the left side's
    sort, so it is generally a different column sequence than the keys of
    the commuted join.
    """
    if predicate is None:
        return (), (), None
    eq_pairs, others = equality_analysis(predicate)
    pairs: list[tuple[tuple, ColumnId, ColumnId]] = []
    residual: list[Scalar] = list(others)
    for a, b, a_alias, b_alias, key_ab, key_ba, conjunct in eq_pairs:
        if a_alias in left_relations and b_alias in right_relations:
            pairs.append((key_ab, a, b))
        elif b_alias in left_relations and a_alias in right_relations:
            pairs.append((key_ba, b, a))
        else:
            residual.append(conjunct)
    if not pairs:
        return (), (), make_conjunction(residual) if residual else None
    if len(pairs) > 1:
        pairs.sort()
    left_keys = tuple(pair[1] for pair in pairs)
    right_keys = tuple(pair[2] for pair in pairs)
    if residual:
        return left_keys, right_keys, make_conjunction(residual)
    return left_keys, right_keys, None


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------
def scan_implementations(
    op: LogicalGet, catalog: Catalog, config: ImplementationConfig
) -> list[PhysicalOperator]:
    """All access paths for a ``Get``, in generation order."""
    ops: list[PhysicalOperator] = [
        TableScan(table=op.table, alias=op.alias, predicate=op.predicate)
    ]
    if config.enable_index_scans:
        for index in catalog.indexes(op.table):
            key_order = tuple(ColumnId(op.alias, col) for col in index.key)
            ops.append(
                IndexScan(
                    table=op.table,
                    alias=op.alias,
                    index_name=index.name,
                    key_order=key_order,
                    predicate=op.predicate,
                )
            )
    return ops


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
_CROSS_NLJ = NestedLoopJoin(None)


def nested_loop_join(predicate: Scalar | None) -> NestedLoopJoin:
    """The nested-loops operator for a predicate (one shared operator for
    cross products).  :class:`PhysicalOperators` shares one per split
    across both orientations."""
    if predicate is None:
        return _CROSS_NLJ
    return NestedLoopJoin(predicate)


class JoinImplementations(NamedTuple):
    """The join operators the rule set generates for one orientation.

    ``ops`` is the ordered operator list (index-lookup joins excluded —
    those also need the catalog and the inner group's ``Get``; see
    :func:`index_nl_join_implementations`).  ``left_keys``/``right_keys``
    are the canonical equi-key sequences ((), () when none straddle); a
    ``MergeJoin`` in ``ops`` requires exactly these orders of its inputs.
    """

    ops: tuple[PhysicalOperator, ...]
    left_keys: tuple[ColumnId, ...]
    right_keys: tuple[ColumnId, ...]


def join_implementations(
    predicate: Scalar | None,
    left_relations: frozenset[str],
    right_relations: frozenset[str],
    config: ImplementationConfig,
) -> JoinImplementations:
    """Generate one orientation's join operators, in rule order."""
    left_keys, right_keys, residual = extract_equi_keys(
        predicate, left_relations, right_relations
    )
    ops: list[PhysicalOperator] = []
    if config.enable_nested_loop_join:
        ops.append(nested_loop_join(predicate))
    if left_keys:
        if config.enable_hash_join:
            ops.append(HashJoin(left_keys, right_keys, residual))
        if config.enable_merge_join:
            ops.append(MergeJoin(left_keys, right_keys, residual))
    return JoinImplementations(tuple(ops), left_keys, right_keys)


def join_physical_kinds(
    config: ImplementationConfig,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The batched mirror of :func:`join_implementations`: the operator
    *kind* sequence one orientation generates, as ``(with equi-keys,
    without)``.  The columnar implementation path
    (:mod:`repro.memo.columnar`) emits one whole block per logical join
    from these patterns instead of constructing operators; the order must
    stay identical to :func:`join_implementations` or columnar local ids
    diverge from the object memo.
    """
    keyed: list[str] = []
    if config.enable_nested_loop_join:
        keyed.append("nlj")
    if config.enable_hash_join:
        keyed.append("hash")
    if config.enable_merge_join:
        keyed.append("merge")
    cross = ("nlj",) if config.enable_nested_loop_join else ()
    return tuple(keyed), cross


def join_rule_arity(
    config: ImplementationConfig, has_equi_keys: bool
) -> tuple[int, bool]:
    """The analytic mirror of :func:`join_implementations`.

    Returns ``(plain, merge)``: how many order-insensitive join operators
    (nested-loops + hash — each counting ``N(left) * N(right)`` plans) one
    orientation generates, and whether a merge join (whose count depends
    on the children's order-satisfying alternatives) is generated too.
    The implicit engine multiplies counts by this arity instead of
    instantiating operators.
    """
    plain = 0
    if config.enable_nested_loop_join:
        plain += 1
    if has_equi_keys and config.enable_hash_join:
        plain += 1
    return plain, has_equi_keys and config.enable_merge_join


def index_nl_join_implementations(
    inner_get: LogicalGet,
    catalog: Catalog,
    predicate: Scalar | None,
    left_keys: tuple[ColumnId, ...],
    right_keys: tuple[ColumnId, ...],
) -> list[IndexNestedLoopJoin]:
    """Index-lookup joins: the inner side must be a single base table with
    an index whose key prefix is covered by the join's equality columns.

    Unconsumed conjuncts (non-equi conjuncts and equality pairs beyond the
    matched index prefix) stay behind as the operator's residual.  The
    caller has already established that the right child group covers
    exactly one base table whose ``Get`` is ``inner_get``.
    """
    by_inner_column = {
        inner.column: (outer, inner) for outer, inner in zip(left_keys, right_keys)
    }
    ops: list[IndexNestedLoopJoin] = []
    for index in catalog.indexes(inner_get.table):
        outer_keys: list[ColumnId] = []
        inner_keys: list[ColumnId] = []
        for key_column in index.key:
            pair = by_inner_column.get(key_column)
            if pair is None:
                break
            outer_keys.append(pair[0])
            inner_keys.append(pair[1])
        if not outer_keys:
            continue
        consumed = {
            Comparison(CompOp.EQ, ColumnRef(o), ColumnRef(i)).fingerprint()
            for o, i in zip(outer_keys, inner_keys)
        }
        leftover = [
            conjunct
            for conjunct in split_conjuncts(predicate)
            if conjunct.fingerprint() not in consumed
        ]
        ops.append(
            IndexNestedLoopJoin(
                inner_table=inner_get.table,
                inner_alias=inner_get.alias,
                index_name=index.name,
                outer_keys=tuple(outer_keys),
                inner_keys=tuple(inner_keys),
                inner_predicate=inner_get.predicate,
                residual=make_conjunction(leftover),
            )
        )
    return ops


def index_lookup_matches(
    catalog, keys, table_of, inner, inner_kid, keyed, mask_of
):
    """Index-lookup joins per ordered pair, as an int64 column: the
    length of :func:`index_nl_join_implementations`' list, unbuilt.

    None unless the pair is keyed and its inner side (gids ``inner``,
    relation masks ``mask_of[inner]``) is one relation; then one per
    index of ``table_of(gid)`` whose leading key column is among the
    inner key columns (kids ``inner_kid`` in the key table ``keys``).
    Counted once per distinct (inner gid, inner kid).
    """
    inner_masks = mask_of[inner]
    sel = np.flatnonzero(keyed & ((inner_masks & (inner_masks - 1)) == 0))
    out = np.zeros(len(inner), np.int64)
    if not len(sel):
        return out
    KS = int(inner_kid[sel].max()) + 1
    packed = inner[sel] * KS + inner_kid[sel]
    pairs = sorted_unique(packed)
    per_pair = []
    for gid, kid in zip((pairs // KS).tolist(), (pairs % KS).tolist()):
        names = {column.column for column in keys.columns_of(kid)}
        indexes = catalog.indexes(table_of(gid))
        per_pair.append(sum(1 for index in indexes if index.key[0] in names))
    out[sel] = np.array(per_pair, np.int64)[np.searchsorted(pairs, packed)]
    return out


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------
def unary_implementations(
    op, config: ImplementationConfig
) -> list[PhysicalOperator]:
    """Implementations of a unary logical operator, in generation order."""
    if isinstance(op, LogicalSelect):
        return [PhysicalFilter(op.predicate)]
    if isinstance(op, LogicalAggregate):
        if op.group_by:
            ops: list[PhysicalOperator] = [
                HashAggregate(op.group_by, op.aggregates)
            ]
            if config.enable_stream_aggregate:
                ops.append(StreamAggregate(op.group_by, op.aggregates))
            return ops
        # Scalar aggregate: a single streaming pass, no requirement.
        return [StreamAggregate(op.group_by, op.aggregates)]
    if isinstance(op, LogicalProject):
        return [PhysicalProject(op.outputs)]
    raise OptimizerError(f"no implementation rule for {op.name}")


# ----------------------------------------------------------------------
# the operator cache
# ----------------------------------------------------------------------
class PhysicalOperators:
    """Every physical operator of one space, built on first request.

    The one caller of the rule constructors above and of ``Sort``: the
    exact store's rows, its best plan's enforcers, the count pass and the
    unranking tables all read their operators here, so each is built
    once per space.  It caches a leaf's access paths or a tower group's
    unary operators per gid, one orientation's joins and index-lookup
    joins per ``(left mask, right mask)`` (the two orientations of a
    split share one nested-loops operator) and one ``Sort`` per kid of
    ``keys``; ``built`` counts the operators constructed.  The pair record
    creates it and requests every leaf's and tower group's list, so
    those are built when the space is.  It holds the join graph, the
    catalog, the config and the key table — never a store, table set or
    count state — and caches nothing on the predicates it reads (owners
    point down).
    """

    def __init__(self, graph, catalog: Catalog, config: ImplementationConfig, keys):
        self.graph = graph
        self.catalog = catalog
        self.config = config
        self.keys = keys
        #: physical operators constructed so far
        self.built = 0
        self._groups: dict[int, list[PhysicalOperator]] = {}
        self._joins: dict[tuple[int, int], tuple[PhysicalOperator, ...]] = {}
        self._index_joins: dict[tuple[int, int], list[IndexNestedLoopJoin]] = {}
        self._sorts: dict[int, Sort] = {}

    def group(self, gid: int, op=None) -> list[PhysicalOperator]:
        """A leaf's access paths or a tower group's unary operators, in
        rule order, built from ``op`` (the group's ``Get`` or unary
        logical operator) on first request — the pair record's, so later
        readers omit it."""
        ops = self._groups.get(gid)
        if ops is None:
            if isinstance(op, LogicalGet):
                ops = scan_implementations(op, self.catalog, self.config)
            else:
                ops = unary_implementations(op, self.config)
            self._groups[gid] = ops
            self.built += len(ops)
        return ops

    def joins(self, left: int, right: int) -> tuple[PhysicalOperator, ...]:
        """One orientation's join operators (relation masks), in rule
        order; index-lookup joins are :meth:`index_joins`."""
        key = (left, right)
        ops = self._joins.get(key)
        if ops is None:
            graph = self.graph
            ops = join_implementations(
                graph.join_predicate_m(left, right),
                graph.universe.names(left),
                graph.universe.names(right),
                self.config,
            ).ops
            twin = self._joins.get((right, left))
            if twin is not None and self.config.enable_nested_loop_join:
                # both orientations share the predicate, so one
                # nested-loops operator (and its cached memo key)
                ops = twin[:1] + ops[1:]
            self._joins[key] = ops
            self.built += len(ops)
        return ops

    def index_joins(
        self, left: int, right: int, inner_get: LogicalGet
    ) -> list[IndexNestedLoopJoin]:
        """One orientation's index-lookup joins into ``inner_get``, the
        right side's one relation."""
        key = (left, right)
        ops = self._index_joins.get(key)
        if ops is None:
            graph = self.graph
            predicate = graph.join_predicate_m(left, right)
            left_keys, right_keys, _ = extract_equi_keys(
                predicate, graph.universe.names(left), graph.universe.names(right)
            )
            ops = self._index_joins[key] = index_nl_join_implementations(
                inner_get, self.catalog, predicate, left_keys, right_keys
            )
            self.built += len(ops)
        return ops

    def sort(self, kid: int) -> Sort:
        """The one ``Sort`` enforcer of kid ``kid``'s order."""
        op = self._sorts.get(kid)
        if op is None:
            op = self._sorts[kid] = Sort(self.keys.columns_of(kid))
            self.built += 1
        return op
