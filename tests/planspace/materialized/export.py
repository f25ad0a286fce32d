"""JSON export of memos, linked spaces, and plans.

Diagnostic tooling: dump the structures the algorithms operate on so they
can be inspected, diffed across optimizer versions, or rendered by
external tools.  Export-only by design — a memo is reconstructed by
re-running the optimizer, which is deterministic, so a loader would only
duplicate that code path.
"""

from __future__ import annotations

import json

from repro.memo.memo import Memo
from repro.optimizer.plan import PlanNode
from tests.planspace.materialized.links import LinkedSpace

__all__ = ["memo_to_dict", "space_to_dict", "plan_to_dict", "to_json"]


def memo_to_dict(memo: Memo) -> dict:
    """The memo as plain data: groups, expressions, child references."""
    groups = []
    for group in memo.groups:
        groups.append(
            {
                "gid": group.gid,
                "relations": sorted(group.relations),
                "cardinality": group.cardinality,
                "expressions": [
                    {
                        "id": expr.id_str,
                        "operator": expr.op.render(),
                        "kind": "physical" if expr.is_physical else "logical",
                        "enforcer": expr.is_enforcer,
                        "children": list(expr.children),
                    }
                    for expr in group.exprs
                ],
            }
        )
    return {
        "root_group": memo.root_group_id,
        "group_count": len(memo.groups),
        "expression_count": memo.expression_count(),
        "groups": groups,
    }


def space_to_dict(space: LinkedSpace) -> dict:
    """The linked space: qualifying-children lists and the counts N(v)."""
    operators = []
    for node in space.operators.values():
        operators.append(
            {
                "id": node.id_str,
                "operator": node.expr.op.render(),
                "count": node.count,
                "child_sums": list(node.child_sums),
                "alternatives": [
                    [alt.id_str for alt in alternatives]
                    for alternatives in node.alternatives
                ],
            }
        )
    return {
        "total": space.total,
        "root_required": [c.render() for c in space.root_required],
        "roots": [root.id_str for root in space.roots],
        "operators": operators,
    }


def plan_to_dict(plan: PlanNode) -> dict:
    """One assembled plan as a nested structure."""
    return {
        "id": plan.expr_id,
        "operator": plan.op.render(),
        "cardinality": plan.cardinality,
        "children": [plan_to_dict(child) for child in plan.children],
    }


def to_json(data: dict, path: str | None = None, indent: int = 2) -> str:
    """Serialize an exported dict; optionally also write it to ``path``."""
    text = json.dumps(data, indent=indent, sort_keys=False, default=str)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return text
