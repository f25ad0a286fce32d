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

The computation reads the implicit space's candidate lists: a parent
adds ``O(p) * prod_{j != i} b_p(j)`` to the list of its slot ``i``, and a
group's operators take the sums of the lists that hold them.  Groups are
visited parents first — the unary tower top-down, then relation sets by
decreasing size (a join's inputs are proper subsets) — and within a group
the ``Sort`` enforcers feed the group's own body before it is read.  Like
counting, it is linear in the number of (operator, slot) links.
"""

from __future__ import annotations

from repro.planspace.implicit import ImplicitPlanSpace

__all__ = ["participation_counts", "participation_report"]


def participation_counts(space: ImplicitPlanSpace) -> dict[str, int]:
    """Exact number of plans containing each operator, keyed by id.

    Operators unreachable from any root have participation 0, as do
    operators with an unsatisfiable child slot (``N(v) = 0``).
    """
    tables = space.unranker.tables
    layout = space.state.layout
    #: per group: id(candidate list) -> [list, contexts handed down to it]
    pending: dict[int, dict[int, list]] = {}

    def hand_down(candidates, contexts: int) -> None:
        entry = pending.setdefault(candidates.gid, {}).setdefault(
            id(candidates), [candidates, 0]
        )
        entry[1] += contexts

    hand_down(tables.candidates(layout.root_gid, space.state.root_kid), 1)
    contexts: dict[int, list[int]] = {}
    for gid in _parents_first(layout):
        table = tables.table(gid)
        size = len(table.counts)
        own = contexts[gid] = [0] * size
        # the Sorts first: they hand their contexts down to the body
        for positions in (range(table.body, size), range(table.body)):
            for candidates, weight in pending.pop(gid, {}).values():
                for pos in candidates.positions:
                    own[pos] += weight
            for pos in positions:
                if not own[pos]:
                    continue
                lists = [
                    tables.candidates(child_gid, requirement)
                    for child_gid, requirement in table.row(pos).slots
                ]
                sums = [candidates.total for candidates in lists]
                for slot, candidates in enumerate(lists):
                    # plans completed by the *other* slots of this row
                    others = 1
                    for j, b in enumerate(sums):
                        if j != slot:
                            others *= b
                    if others:
                        hand_down(candidates, own[pos] * others)

    out: dict[str, int] = {}
    for group in layout.groups:
        table = tables.table(group.gid)
        own = contexts.get(group.gid)
        for pos, count in enumerate(table.counts):
            out[f"{group.gid}.{table.base + pos}"] = (
                own[pos] * count if own is not None else 0
            )
    return out


def _parents_first(layout) -> list[int]:
    """Group ids, every parent before its children: the root's unary
    tower top-down, then the relation-set groups by decreasing size."""
    order = []
    gid = layout.root_gid
    while layout.group(gid).kind not in ("leaf", "join"):
        order.append(gid)
        gid = layout.group(gid).child_gid
    relation_sets = [g for g in layout.groups if g.kind in ("leaf", "join")]
    relation_sets.sort(key=lambda group: -len(group.relations))
    return order + [group.gid for group in relation_sets]


def participation_report(space: ImplicitPlanSpace) -> str:
    """Human-readable participation table, rarest operators first."""
    counts = participation_counts(space)
    names = {
        f"{gid}.{local_id}": operator.name
        for gid, local_id, operator, _, _ in space.census()
    }
    total = space.count()
    lines = [
        f"operator participation over {total:,} plans "
        "(exact, not sampled; rarest first):"
    ]
    items = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    for op_id, plans in items:
        fraction = plans / total if total else 0.0
        lines.append(
            f"  {op_id:>8}  {names[op_id]:<22} in {plans:>20,} plans"
            f" ({fraction:>8.2%})"
        )
    return "\n".join(lines)
