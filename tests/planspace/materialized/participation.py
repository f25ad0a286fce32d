"""Exact operator participation: how many plans contain operator v?

A natural companion to the paper's counting scheme.  The paper computes,
bottom-up, the number of sub-plans *rooted* in each operator.  Here we
compute, top-down, the number of *contexts*: ways to complete a full plan
around an occurrence of ``v``::

    O(v) = sum over (parent p, slot i) with v in alts_p(i) of
               O(p) * prod_{j != i} b_p(j)

with ``O(root) = 1`` for every root operator.  The number of
(plan, position) pairs featuring ``v`` is then ``O(v) * N(v)``.

In a memo whose groups partition the query (every group can appear at
most once per plan — true for scan/join/aggregate memos like ours, where
a group is identified by the relation set it covers), an operator also
occurs at most once per plan, so ``O(v) * N(v)`` *is* the exact number of
plans containing ``v``.

Uses for the paper's testing methodology:

* find dead operators — alternatives the optimizer generated that no
  complete plan can use (``participation = 0`` while the operator exists);
* quantify how rarely an implementation is exercised, to prioritize
  targeted ``USEPLAN`` testing of its plans;
* cross-validate the uniform sampler: sampled containment frequencies
  must converge to ``participation / N``.

Like counting, the computation is linear in the size of the linked space.
"""

from __future__ import annotations

from repro.errors import PlanSpaceError
from tests.planspace.materialized.counting import annotate_counts
from tests.planspace.materialized.links import LinkedOperator, LinkedSpace

__all__ = ["participation_counts", "participation_report"]


def participation_counts(space: LinkedSpace) -> dict[str, int]:
    """Exact number of plans containing each operator, keyed by id.

    Operators unreachable from any root have participation 0, as do
    operators with an unsatisfiable child slot (``N(v) = 0``).
    """
    if space.total is None:
        annotate_counts(space)

    contexts: dict[tuple[int, int], int] = {
        key: 0 for key in space.operators
    }
    for root in space.roots:
        contexts[root.key] = 1

    for node in _topological_order(space):
        own_contexts = contexts[node.key]
        for slot, alternatives in enumerate(node.alternatives):
            # Plans completed by the *other* slots of this node.
            others = 1
            for j, b in enumerate(node.child_sums):
                if j != slot:
                    others *= b
            if others == 0 or own_contexts == 0:
                continue
            for alt in alternatives:
                contexts[alt.key] += own_contexts * others

    return {
        node.id_str: contexts[node.key] * (node.count or 0)
        for node in space.operators.values()
    }


def _topological_order(space: LinkedSpace) -> list[LinkedOperator]:
    """Parents before children (reverse post-order over the link DAG)."""
    order: list[LinkedOperator] = []
    state: dict[tuple[int, int], int] = {}  # 1 = visiting, 2 = done

    for start in space.operators.values():
        if state.get(start.key):
            continue
        stack: list[tuple[LinkedOperator, bool]] = [(start, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                state[node.key] = 2
                order.append(node)
                continue
            if state.get(node.key):
                continue
            state[node.key] = 1
            stack.append((node, True))
            for alternatives in node.alternatives:
                for alt in alternatives:
                    if not state.get(alt.key):
                        stack.append((alt, False))
                    elif state[alt.key] == 1:
                        raise PlanSpaceError(
                            f"cycle in linked space at {alt.id_str}"
                        )
    order.reverse()  # children were appended first; parents must come first
    return order


def participation_report(space: LinkedSpace) -> str:
    """Human-readable participation table, rarest operators first."""
    counts = participation_counts(space)
    total = space.total or 0
    lines = [
        f"operator participation over {total:,} plans "
        "(exact, not sampled; rarest first):"
    ]
    items = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    for op_id, plans in items:
        node = space.operators[
            tuple(int(x) for x in op_id.split("."))
        ]
        fraction = plans / total if total else 0.0
        lines.append(
            f"  {op_id:>8}  {node.expr.op.name:<22} in {plans:>20,} plans"
            f" ({fraction:>8.2%})"
        )
    return "\n".join(lines)
