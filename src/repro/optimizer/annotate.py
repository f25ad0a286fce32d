"""Attach cardinality estimates to memo groups.

Cardinality is a *logical* property: every expression in a group produces
the same rows, so the estimate lives on the group (as in Volcano/Cascades).
Groups are created children-first, so a single in-order pass suffices.

:func:`group_cardinality` is the one group-cardinality rule: the exact
pipeline loops it here, the implicit tables call it lazily on first
touch (``TableSet.cardinality``).

Execution feedback plugs in here: an optional
:class:`~repro.obs.feedback.CardinalityLedger` overrides the static
estimate of every join-level (``("rels", mask)``) group the ledger holds
an observation for — keyed by the relation bitmask, which is stable
across re-optimizations, unlike group ids.  Groups without an
observation keep their estimates, so a partially-populated ledger
degrades gracefully to the static path.
"""

from __future__ import annotations

from repro.algebra.logical import LogicalAggregate, LogicalSelect
from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.joingraph import JoinGraph

__all__ = ["annotate_cardinalities", "group_cardinality"]


def group_cardinality(
    group, graph: JoinGraph, estimator: CardinalityEstimator, child_rows=None
) -> float:
    """The one per-group estimate: a relation-set group from its
    relations and the join graph's conjuncts internal to them, a
    ``select`` / ``agg`` / ``proj`` tower group from its logical operator
    and ``child_rows``, its child group's estimate."""
    tag = group.key[0]
    if tag == "rels":
        # The key holds the alias mask; ``relations`` is the derived view.
        if group.mask is not None:
            conjuncts = graph.internal_conjuncts_m(group.mask)
        else:
            conjuncts = graph.internal_conjuncts(group.relations)
        return estimator.relation_set_cardinality(
            group.relations, [c.expr for c in conjuncts]
        )
    if tag == "select":
        predicate = _unary_op(group, LogicalSelect).predicate
        return estimator.select_cardinality(child_rows, predicate)
    if tag == "agg":
        op = _unary_op(group, LogicalAggregate)
        return estimator.aggregate_cardinality(child_rows, op.group_by)
    if tag == "proj":
        return child_rows
    raise OptimizerError(f"unknown group key tag {tag!r}")  # pragma: no cover


def annotate_cardinalities(
    memo: Memo, graph: JoinGraph, estimator: CardinalityEstimator, ledger=None
) -> int:
    """Fill ``group.cardinality`` for every group in ``memo``.

    ``ledger`` (optional) substitutes observed cardinalities for
    join-level groups the ledger covers; an estimator constructed with
    its own ledger performs the same substitution internally, so passing
    the ledger in either place is equivalent.  Returns the number of
    groups annotated from an observation rather than the estimate.
    """
    binding = (
        ledger.binding(graph.universe.order) if ledger is not None else None
    )
    substituted = 0
    for group in memo.groups:
        if group.key[0] == "rels":
            if binding is not None:
                observed = binding.rows_for_mask(group.key[1])
                if observed is not None:
                    group.cardinality = observed
                    substituted += 1
                    continue
            child_rows = None
        else:
            child_rows = _require(memo.group(group.key[1]))
        before = estimator.feedback_hits
        group.cardinality = group_cardinality(group, graph, estimator, child_rows)
        substituted += estimator.feedback_hits - before
    return substituted


def _require(group) -> float:
    if group.cardinality is None:
        raise OptimizerError(
            f"group {group.gid} has no cardinality (children must be annotated first)"
        )
    return group.cardinality


def _unary_op(group, cls):
    for expr in group.logical_exprs():
        if isinstance(expr.op, cls):
            return expr.op
    raise OptimizerError(
        f"group {group.gid} has no logical {cls.__name__} expression"
    )
