"""Reference (slow-path) rule engine: the explorer-independence oracle.

The Volcano/SQL-Server-style transformation explorer production once
offered beside the bottom-up enumeration: join commutativity, (left/
right) associativity and, optionally, the bushy exchange rule, applied
to a fixpoint starting from the initial left-deep tree.  It inserts one
``GroupExpr`` at a time through ``memo.insert``, so a memo it explores
carries no columnar store.

The paper notes its counting and unranking work however the memo was
populated ("could be transferred easily to the Starburst enumerator");
``tests/optimizer/test_explorer_oracle.py`` checks that claim
(experiment E9): the full rule set reaches exactly the enumeration
explorer's space, and restricted rule sets (commute-only, none) reach
pinned sub-spaces.  ``tests/reference_pipeline.py`` takes it through
``optimize_reference(..., explorer=TransformationExplorer(rules))``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.algebra.logical import LogicalJoin
from repro.errors import OptimizerError
from repro.memo.group import Group, GroupExpr
from repro.memo.memo import Memo
from repro.optimizer.joingraph import JoinGraph

__all__ = [
    "TransformationExplorer",
    "RuleSet",
    "RULE_COMMUTATIVITY",
    "RULE_ASSOCIATIVITY_LEFT",
    "RULE_ASSOCIATIVITY_RIGHT",
    "RULE_EXCHANGE",
    "DEFAULT_RULES",
]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _valid_join_m(
    graph: JoinGraph, left: int, right: int, allow_cross_products: bool
) -> bool:
    """May the mask sides be joined under the cross-product policy?"""
    if allow_cross_products:
        return True
    if graph.join_predicate_m(left, right) is None:
        return False
    return graph.is_connected_m(left) and graph.is_connected_m(right)


def _insert_join_m(
    memo: Memo, graph: JoinGraph, left: int, right: int
) -> GroupExpr | None:
    """Insert the canonical join of the mask partition into its group."""
    group = memo.get_or_create_rels_group(left | right)
    left_group = memo.group_for_mask(left)
    right_group = memo.group_for_mask(right)
    if left_group is None or right_group is None:
        raise OptimizerError("join children must be registered before the join")
    return memo.insert(
        graph.join_operator_m(left, right),
        (left_group.gid, right_group.gid),
        group,
    )


def _group_mask(group: Group, graph: JoinGraph) -> int:
    """The group's alias mask (derived on the fly for legacy memos)."""
    if group.mask is not None:
        return group.mask
    return graph.mask_of(group.relations)




# ----------------------------------------------------------------------
# transformation rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RuleSet:
    """Which transformation rules the rule engine applies."""

    commutativity: bool = True
    associativity_left: bool = True
    associativity_right: bool = True
    exchange: bool = True

    def describe(self) -> str:
        names = []
        if self.commutativity:
            names.append("commute")
        if self.associativity_left:
            names.append("assoc-left")
        if self.associativity_right:
            names.append("assoc-right")
        if self.exchange:
            names.append("exchange")
        return "+".join(names) if names else "(none)"


RULE_COMMUTATIVITY = RuleSet(False, False, False, False)
RULE_ASSOCIATIVITY_LEFT = RuleSet(False, True, False, False)
RULE_ASSOCIATIVITY_RIGHT = RuleSet(False, False, True, False)
RULE_EXCHANGE = RuleSet(False, False, False, True)
DEFAULT_RULES = RuleSet()


class TransformationExplorer:
    """Volcano-style rule engine: apply rules to a fixpoint.

    Every logical join expression is kept on a work queue; applying a rule
    may create new expressions (possibly in new groups), which are queued
    in turn.  The memo's duplicate detection guarantees termination: the
    expression universe for a fixed query is finite.  Rule pattern sides
    are alias masks, so validity checks (connectivity, linking predicate)
    are memoized mask lookups.
    """

    name = "transformation"

    def __init__(self, rules: RuleSet | None = None):
        self.rules = rules if rules is not None else DEFAULT_RULES

    # ------------------------------------------------------------------
    def explore(
        self, memo: Memo, graph: JoinGraph, allow_cross_products: bool, scope=None
    ) -> int:
        queue: deque[GroupExpr] = deque()
        for group in memo.groups:
            for expr in group.logical_exprs():
                if isinstance(expr.op, LogicalJoin):
                    queue.append(expr)
        inserted = 0
        while queue:
            expr = queue.popleft()
            new_exprs = self._apply_rules(expr, memo, graph, allow_cross_products)
            inserted += len(new_exprs)
            queue.extend(new_exprs)
        return inserted

    # ------------------------------------------------------------------
    def _apply_rules(
        self,
        expr: GroupExpr,
        memo: Memo,
        graph: JoinGraph,
        allow_cross: bool,
    ) -> list[GroupExpr]:
        out: list[GroupExpr] = []
        left_group = memo.group(expr.children[0])
        right_group = memo.group(expr.children[1])
        left = _group_mask(left_group, graph)
        right = _group_mask(right_group, graph)

        if self.rules.commutativity:
            new = _insert_join_m(memo, graph, right, left)
            if new is not None:
                out.append(new)

        if self.rules.associativity_left:
            # join(join(A, B), C) -> join(A, join(B, C))
            for inner in self._join_exprs(left_group):
                a = _group_mask(memo.group(inner.children[0]), graph)
                b = _group_mask(memo.group(inner.children[1]), graph)
                out.extend(
                    self._compose(memo, graph, a, b, right, allow_cross)
                )

        if self.rules.associativity_right:
            # join(A, join(B, C)) -> join(join(A, B), C)
            for inner in self._join_exprs(right_group):
                b = _group_mask(memo.group(inner.children[0]), graph)
                c = _group_mask(memo.group(inner.children[1]), graph)
                out.extend(
                    self._compose_left(memo, graph, left, b, c, allow_cross)
                )

        if self.rules.exchange:
            # join(join(A, B), join(C, D)) -> join(join(A, C), join(B, D))
            for outer_left in self._join_exprs(left_group):
                a = _group_mask(memo.group(outer_left.children[0]), graph)
                b = _group_mask(memo.group(outer_left.children[1]), graph)
                for outer_right in self._join_exprs(right_group):
                    c = _group_mask(memo.group(outer_right.children[0]), graph)
                    d = _group_mask(memo.group(outer_right.children[1]), graph)
                    out.extend(
                        self._exchange(memo, graph, a, b, c, d, allow_cross)
                    )
        return out

    @staticmethod
    def _join_exprs(group: Group) -> list[GroupExpr]:
        return [
            e for e in group.logical_exprs() if isinstance(e.op, LogicalJoin)
        ]

    def _compose(
        self,
        memo: Memo,
        graph: JoinGraph,
        a: int,
        b: int,
        c: int,
        allow_cross: bool,
    ) -> list[GroupExpr]:
        """Emit join(A, join(B, C)) if both joins are valid."""
        out = []
        if _valid_join_m(graph, b, c, allow_cross) and _valid_join_m(
            graph, a, b | c, allow_cross
        ):
            inner = _insert_join_m(memo, graph, b, c)
            if inner is not None:
                out.append(inner)
            outer = _insert_join_m(memo, graph, a, b | c)
            if outer is not None:
                out.append(outer)
        return out

    def _compose_left(
        self,
        memo: Memo,
        graph: JoinGraph,
        a: int,
        b: int,
        c: int,
        allow_cross: bool,
    ) -> list[GroupExpr]:
        """Emit join(join(A, B), C) if both joins are valid."""
        out = []
        if _valid_join_m(graph, a, b, allow_cross) and _valid_join_m(
            graph, a | b, c, allow_cross
        ):
            inner = _insert_join_m(memo, graph, a, b)
            if inner is not None:
                out.append(inner)
            outer = _insert_join_m(memo, graph, a | b, c)
            if outer is not None:
                out.append(outer)
        return out

    def _exchange(
        self,
        memo: Memo,
        graph: JoinGraph,
        a: int,
        b: int,
        c: int,
        d: int,
        allow_cross: bool,
    ) -> list[GroupExpr]:
        out = []
        if (
            _valid_join_m(graph, a, c, allow_cross)
            and _valid_join_m(graph, b, d, allow_cross)
            and _valid_join_m(graph, a | c, b | d, allow_cross)
        ):
            first = _insert_join_m(memo, graph, a, c)
            if first is not None:
                out.append(first)
            second = _insert_join_m(memo, graph, b, d)
            if second is not None:
                out.append(second)
            outer = _insert_join_m(memo, graph, a | c, b | d)
            if outer is not None:
                out.append(outer)
        return out
