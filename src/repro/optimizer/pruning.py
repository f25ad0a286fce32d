"""Cost-bound pruning (experiment E11, and a serving-path option).

The paper notes that production optimizers employ "a cost based pruning
heuristic [that] helps avoid expansion of very costly alternatives", and
that for the sampling technique to see the whole space "it is useful to
have the optimizer keep each alternative generated".  This module lets us
quantify that remark: it removes from the memo every physical expression
whose *best achievable* rooted cost exceeds ``factor`` times the best
cost of every ``(group, requirement)`` context the expression can serve,
and the pruning benchmark then measures how the count of plans collapses
(and that the optimum survives).  Beyond the ablation, pruning is wired
into serving: ``Session.optimize(sql, prune_factor=...)`` and ``repro
optimize --prune-factor`` run it after implementation.

Judging survival per *qualifying context* — not against the order-free
group best alone — is what makes the ``factor >= 1.0`` guarantee sound:
an index scan (or Sort enforcer) is usually beaten order-free by a plain
table scan, but it may be the cheapest supplier of an ordered state some
surviving merge join requires.  Every state's own best plan satisfies
``rooted == best(state) <= factor * best(state)``, so the optimum of
every reachable state (including the root's ORDER BY state) survives
intact.

That ``==`` is exact because both sides come out of one place: rooted
costs, group bests and state bests are all read from the best-plan DP
(:class:`~repro.optimizer.bestplan.ColumnarBestPlanSearch`) — pass the
one that already solved the memo (the optimizer does) and nothing is
re-derived.  Re-adding the same terms in another association would put
a state's winner a last-place bit above its own state and, at factor
1.0, prune the optimum.
"""

from __future__ import annotations

import math

from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.cost import CostModel

__all__ = ["prune_memo"]


def _allowance(group_best: float, states, delivered: int) -> float:
    """The dearest state an expression qualifies for: the group's
    order-free best, or a dearer ordered state (``(required kid, end of
    its extension interval, best)``) whose interval holds the
    ``delivered`` kid (``-1``: no order, in no interval)."""
    allowed = group_best
    for required, end, cost in states:
        if cost > allowed and required <= delivered < end:
            allowed = cost
    return allowed


def prune_memo(
    memo: Memo,
    cost_model: CostModel,
    factor: float,
    search: ColumnarBestPlanSearch | None = None,
) -> int:
    """Drop physical expressions costing more than ``factor`` x the best
    of every state they can serve.

    Returns the number of expressions removed.  ``factor`` is >= 1.0; a
    factor of 1.0 keeps only state-best operators, larger factors keep
    progressively more of the space.  Logical expressions are never
    removed (they carry the group structure), and survivors keep their
    local ids.  ``search`` may be the finished best-plan DP over this
    memo; omitted, one is run over ``memo.columnar`` (so a memo can be
    pruned once: pruning detaches the store it no longer describes).
    """
    if factor < 1.0:
        raise ValueError("pruning factor must be >= 1.0")
    if search is None:
        if memo.columnar is None:
            raise OptimizerError(
                "prune_memo needs the memo's columnar store "
                "(not implemented yet, or already pruned)"
            )
        search = ColumnarBestPlanSearch(memo.columnar, cost_model).run()
    store = search.store
    kid_hi = store.kid_hi.tolist()
    #: the ordered contexts each group serves — the child requirements
    #: any physical operator imposes, plus ORDER BY — with their bests
    states_by_gid = search.ordered_state_costs()

    # Decide survivors everywhere before mutating anything.
    pruned: list[tuple[int, list[bool]]] = []
    removed = 0
    for group in memo.groups:
        gid = group.gid
        group_best = search.group_cost(gid)
        if group_best == math.inf:
            continue
        states = [
            (kid, kid_hi[kid], cost)
            for kid, cost in states_by_gid.get(gid, ())
            if cost > group_best
        ]
        start, end = store.group_rows(gid)
        keep = []
        for row in range(start, end):
            allowed = _allowance(group_best, states, search.delivered_kid(row))
            keep.append(search.row_total(row) <= allowed * factor)
        # Enforcers root the group's order-free optimum.
        sort_total = search.sort_total(gid)
        for kid in store.group_sorts(gid):
            allowed = _allowance(group_best, states, kid)
            keep.append(sort_total <= allowed * factor)
        dropped = keep.count(False)
        if dropped:
            pruned.append((gid, keep))
            removed += dropped

    # Apply.  Expressions materialize logical block first, then the
    # store's rows, then its sorts — the order ``keep`` was built in.
    # Mutation invalidates the columnar store (its rows no longer
    # describe the memo); untouched groups still materialize from it.
    if pruned:
        for gid, keep in pruned:
            exprs = memo.groups[gid].exprs
            flags = iter(keep)
            exprs[:] = [e for e in exprs if not e.is_physical or next(flags)]
        memo.columnar = None
    return removed
