"""Section 3.2 — counting query plans.

For an operator ``v`` with child slots ``i = 1..|v|`` and qualifying
alternatives ``w_(v)i,j`` for slot ``i``::

    b_v(i) = sum_j N(w_(v)i,j)          choices for child i
    B_v(k) = prod_{i<=k} b_v(i)         combined choices, first k children
    N(v)   = 1            if |v| = 0
           = B_v(|v|)     otherwise

and the space total is ``N = sum_{v in roots} N(v)``.

Counts are exact Python integers (the paper's Table 1 reaches 4.4 * 10^12
plans; Python's arbitrary-precision integers handle that without
approximation).  The traversal is an explicit-stack post-order DFS over
the linked operator DAG, so deep memos cannot hit the recursion limit.
As the paper observes, counting is linear in the size of the memo: every
operator is visited exactly once.
"""

from __future__ import annotations

from repro.errors import PlanSpaceError
from tests.planspace.materialized.links import LinkedOperator, LinkedSpace

__all__ = ["annotate_counts", "operator_count"]


def _compute_node(node: LinkedOperator) -> None:
    """Fill count/child_sums/prefix_products, assuming children are done."""
    if node.arity == 0:
        node.child_sums = ()
        node.prefix_products = (1,)
        node.count = 1
        return
    sums = []
    for alternatives in node.alternatives:
        b = 0
        for alt in alternatives:
            if alt.count is None:  # pragma: no cover - traversal bug guard
                raise PlanSpaceError(
                    f"child {alt.id_str} of {node.id_str} not counted yet"
                )
            b += alt.count
        sums.append(b)
    prefix = [1]
    for b in sums:
        prefix.append(prefix[-1] * b)
    node.child_sums = tuple(sums)
    node.prefix_products = tuple(prefix)
    node.count = prefix[-1]


def operator_count(node: LinkedOperator) -> int:
    """``N(node)``, computing it (and its descendants) if necessary."""
    if node.count is not None:
        return node.count
    # Iterative post-order DFS; the linked space is a DAG (enforcers only
    # link to non-enforcers of the same group, everything else links to
    # other groups), so a visited set is enough.
    stack: list[tuple[LinkedOperator, bool]] = [(node, False)]
    while stack:
        current, expanded = stack.pop()
        if current.count is not None:
            continue
        if expanded:
            _compute_node(current)
            continue
        stack.append((current, True))
        for alternatives in current.alternatives:
            for alt in alternatives:
                if alt.count is None:
                    stack.append((alt, False))
    assert node.count is not None
    return node.count


def annotate_counts(space: LinkedSpace) -> int:
    """Compute ``N(v)`` for every operator and the space total ``N``."""
    for node in space.operators.values():
        operator_count(node)
    space.total = sum(root.count for root in space.roots)
    return space.total
