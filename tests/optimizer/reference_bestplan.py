"""Reference (slow-path) best-plan search: the DP oracle.

The recursive, memoized ``(group, required sort order)`` search over
``GroupExpr`` objects that :class:`repro.optimizer.bestplan.
ColumnarBestPlanSearch` replaced — moved here verbatim (minus the fault
and budget hooks of its retired ``bestplan.object`` site) when the
columnar DP became the only production engine.  It reads nothing but the
object ``Memo`` facade, so it searches any memo — one the reference
implementation filled, or a production memo after pruning — and
``tests/reference_pipeline.py`` composes it into the slow end-to-end
oracle.

"The optimal query plan is the one rooted in the most cost effective
operator in the root group.  To extract this plan, we follow the
references to the children's groups and select the most cost effective
operator of each group, observing compatibility of physical properties."
(Section 2.)  The DP state is a group plus the sort order required of
it: the cheapest of (a) any non-enforcer operator whose delivered order
satisfies the requirement, children optimized under the operator's own
child requirements, and (b) when an order is required, the group's Sort
enforcer over the group optimized order-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.physical import PhysicalOperator, Sort
from repro.algebra.properties import SortOrder, order_satisfies
from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.cost import CostModel
from repro.optimizer.plan import PlanNode

__all__ = ["BestPlanSearch", "find_best_plan"]

_IN_PROGRESS = object()


@dataclass
class _Best:
    cost: float
    plan: PlanNode


_MISSING = object()
_INFINITY = float("inf")

#: trivial per-child requirements by arity, for operators inheriting the
#: base class's ``required_child_order``
_EMPTY_REQS: tuple[tuple, ...] = ((), ((),), ((), ()), ((), (), ()))

_NO_CHILD_ORDER = PhysicalOperator.required_child_order
_NO_DELIVERED_ORDER = PhysicalOperator.delivered_order


class BestPlanSearch:
    """Memoized best-plan search over one memo.

    States are (group, required sort order).  The order-free state — the
    overwhelmingly common one — is computed in a single fused pass over
    the group's physical expressions; the same pass records the few
    order-delivering candidates (merge joins, index scans, ...) and Sort
    enforcers, which is all that ordered states ever need to scan.
    Operator-local costs are computed exactly once per expression.
    """

    def __init__(self, memo: Memo, cost_model: CostModel):
        self.memo = memo
        self.cost_model = cost_model
        #: ordered states only; the order-free state lives in ``_best0``
        self._cache: dict[tuple[int, SortOrder], _Best | None | object] = {}
        #: order-free state per gid, indexed directly (no tuple keys on
        #: the hottest lookup of the search)
        self._best0: list = [_MISSING] * len(memo.groups)
        #: gid -> (cardinality, order-delivering candidates, Sort enforcers)
        self._ordered_info: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def best(self, gid: int, required: SortOrder = ()) -> _Best | None:
        """Cheapest plan for group ``gid`` delivering ``required`` order,
        or ``None`` when no operator combination can satisfy it."""
        if not required:
            best0 = self._best0
            cached = best0[gid]
            if cached is not _MISSING:
                if cached is _IN_PROGRESS:
                    raise OptimizerError(
                        f"cycle detected while optimizing group {gid}"
                    )
                return cached
            best0[gid] = _IN_PROGRESS
            result = self._best_unordered(gid)
            best0[gid] = result
            return result
        key = (gid, required)
        cache = self._cache
        cached = cache.get(key, _MISSING)
        if cached is not _MISSING:
            if cached is _IN_PROGRESS:
                raise OptimizerError(f"cycle detected while optimizing group {gid}")
            return cached
        cache[key] = _IN_PROGRESS
        result = self._best_ordered(gid, required)
        cache[key] = result
        return result

    # ------------------------------------------------------------------
    def _candidate(self, expr, op, cardinality: float, groups) -> tuple:
        """The per-expression candidate record: (op, children, delivered
        order, per-child requirements, local cost, local id)."""
        operator_cost = self.cost_model.operator_cost
        children = expr.children
        arity = len(children)
        if type(op).required_child_order is _NO_CHILD_ORDER:
            child_reqs = _EMPTY_REQS[arity]
        else:
            child_reqs = tuple(
                op.required_child_order(i) for i in range(arity)
            )
        if arity == 2:
            child_rows = (
                groups[children[0]].cardinality,
                groups[children[1]].cardinality,
            )
        elif arity == 1:
            child_rows = (groups[children[0]].cardinality,)
        else:
            child_rows = ()
        if type(op).delivered_order is _NO_DELIVERED_ORDER:
            delivered = ()
        else:
            delivered = op.delivered_order()
        local = operator_cost(op, cardinality, child_rows)
        return (op, children, delivered, child_reqs, local, expr.local_id)

    def _store_ordered_info(
        self, gid: int, group, cardinality: float, ordered, enforcers
    ) -> tuple:
        """Snapshot the order-state tables, stamped with the expression
        count so pruning-time mutation of the group is detected."""
        info = (len(group.exprs), cardinality, ordered, enforcers)
        self._ordered_info[gid] = info
        return info

    def _rebuild_ordered_info(self, gid: int, group, cardinality: float) -> tuple:
        """Re-collect the order-delivering candidates and enforcers from
        the group's *current* expressions (after pruning removed some)."""
        groups = self.memo.groups
        operator_cost = self.cost_model.operator_cost
        ordered: list[tuple] = []
        enforcers: list[tuple] = []
        for expr in group.exprs:
            if not expr.is_physical:
                continue
            op = expr.op
            if expr.is_enforcer:
                if isinstance(op, Sort):
                    enforcers.append(
                        (expr, operator_cost(op, cardinality, (cardinality,)))
                    )
                continue
            candidate = self._candidate(expr, op, cardinality, groups)
            if candidate[2]:
                ordered.append(candidate)
        return self._store_ordered_info(gid, group, cardinality, ordered, enforcers)

    # ------------------------------------------------------------------
    def _best_unordered(self, gid: int) -> _Best | None:
        """The order-free state, fused with candidate-table construction."""
        group = self.memo.group(gid)
        cardinality = group.cardinality
        if cardinality is None:
            raise OptimizerError(
                f"group {gid} has no cardinality; run annotate_cardinalities first"
            )
        groups = self.memo.groups
        operator_cost = self.cost_model.operator_cost
        make_candidate = self._candidate
        cache_get = self._cache.get
        best0 = self._best0
        search = self.best
        ordered_candidates: list[tuple] = []
        enforcers: list[tuple] = []
        best_total = _INFINITY
        best_candidate: tuple | None = None

        for expr in group.exprs:
            if not expr.is_physical:
                continue
            op = expr.op
            if expr.is_enforcer:
                if isinstance(op, Sort):
                    enforcers.append(
                        (expr, operator_cost(op, cardinality, (cardinality,)))
                    )
                continue
            candidate = make_candidate(expr, op, cardinality, groups)
            _, children, delivered, child_reqs, local, _ = candidate
            if delivered:
                ordered_candidates.append(candidate)
            # The order-free state accepts every non-enforcer candidate.
            # Plans are not assembled during the scan — only the winning
            # candidate's plan is built, once, afterwards.
            total = local
            feasible = True
            for child_gid, child_req in zip(children, child_reqs):
                # Inline both cache hits: order-free child states live in
                # a gid-indexed array, ordered ones in the state dict.
                if child_req:
                    child_best = cache_get((child_gid, child_req), _MISSING)
                else:
                    child_best = best0[child_gid]
                if child_best is _MISSING:
                    child_best = search(child_gid, child_req)
                elif child_best is _IN_PROGRESS:
                    raise OptimizerError(
                        f"cycle detected while optimizing group {child_gid}"
                    )
                if child_best is None:
                    feasible = False
                    break
                total += child_best.cost
            if not feasible:
                continue
            if total < best_total:
                best_total = total
                best_candidate = (op, children, child_reqs, expr.local_id)

        self._store_ordered_info(
            gid, group, cardinality, ordered_candidates, enforcers
        )
        if best_candidate is None:
            return None
        return self._assemble(gid, cardinality, best_total, best_candidate)

    # ------------------------------------------------------------------
    def _best_ordered(self, gid: int, required: SortOrder) -> _Best | None:
        """A state with a sort requirement: only order-delivering
        candidates (plus the group's Sort enforcer) can satisfy it."""
        info = self._ordered_info.get(gid)
        if info is None:
            # Fill the candidate table (and the order-free state, which
            # the enforcer path consults anyway).
            self.best(gid, ())
            info = self._ordered_info[gid]
        group = self.memo.group(gid)
        if info[0] != len(group.exprs):
            # The group was mutated since the snapshot (cost-bound pruning
            # removes expressions in place): answer from live expressions,
            # matching the behavior of a from-scratch scan.
            info = self._rebuild_ordered_info(gid, group, info[1])
        _, cardinality, ordered_candidates, enforcers = info
        required_len = len(required)
        cache_get = self._cache.get
        best0 = self._best0
        search = self.best
        best_total = _INFINITY
        best_candidate: tuple | None = None

        for op, children, delivered, child_reqs, local, local_id in ordered_candidates:
            if delivered[:required_len] != required:
                continue
            total = local
            feasible = True
            for child_gid, child_req in zip(children, child_reqs):
                if child_req:
                    child_best = cache_get((child_gid, child_req), _MISSING)
                else:
                    child_best = best0[child_gid]
                if child_best is _MISSING:
                    child_best = search(child_gid, child_req)
                elif child_best is _IN_PROGRESS:
                    raise OptimizerError(
                        f"cycle detected while optimizing group {child_gid}"
                    )
                if child_best is None:
                    feasible = False
                    break
                total += child_best.cost
            if not feasible:
                continue
            if total < best_total:
                best_total = total
                best_candidate = (op, children, child_reqs, local_id)

        best: _Best | None = None
        if best_candidate is not None:
            best = self._assemble(gid, cardinality, best_total, best_candidate)

        for expr, local in enforcers:
            if not order_satisfies(expr.op.delivered_order(), required):
                continue
            inner = search(gid, ())
            if inner is not None:
                total = local + inner.cost
                if best is None or total < best.cost:
                    best = _Best(
                        cost=total,
                        plan=PlanNode(
                            op=expr.op,
                            children=(inner.plan,),
                            group_id=gid,
                            local_id=expr.local_id,
                            cardinality=cardinality,
                        ),
                    )
            break

        return best

    # ------------------------------------------------------------------
    def _assemble(
        self, gid: int, cardinality: float, total: float, candidate: tuple
    ) -> _Best:
        """Build the plan for a scan's winning candidate (children's best
        states are all cached by the time a winner is known)."""
        op, children, child_reqs, local_id = candidate
        plans = tuple(
            self.best(child_gid, child_req).plan
            for child_gid, child_req in zip(children, child_reqs)
        )
        return _Best(
            cost=total,
            plan=PlanNode(
                op=op,
                children=plans,
                group_id=gid,
                local_id=local_id,
                cardinality=cardinality,
            ),
        )


def find_best_plan(
    memo: Memo, cost_model: CostModel, required_order: SortOrder = ()
) -> tuple[PlanNode, float]:
    """The optimizer's chosen plan and its cost."""
    search = BestPlanSearch(memo, cost_model)
    if memo.root_group_id is None:
        raise OptimizerError("memo has no root group")
    best = search.best(memo.root_group_id, required_order)
    if best is None:
        raise OptimizerError(
            "no physical plan satisfies the root requirement "
            "(are implementations/enforcers enabled?)"
        )
    return best.plan, best.cost

