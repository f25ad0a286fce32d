"""The implicit plan-space facade.

Count, unrank, rank, enumerate and sample — built from a *logical*
description of the search space (bound query + join graph +
implementation rules), never from a physical memo.  Counting
clique-sized spaces takes sub-second table passes where materializing
the memo takes minutes; unranking instantiates exactly the operators on
the requested plan's path, with the same group and local ids the
materialized pipeline would produce.

Every route that counts, ranks, unranks, samples or enumerates plans goes
through this class (see the package docstring), and so do the
diagnostics that print a space's internals: :meth:`census` (every
virtual operator with its ``N(v)``, read by ``repro diff`` and ``repro
participation``) and :meth:`unrank_with_trace` (``repro unrank
--trace``).  A plan number means one thing everywhere; the paper-literal
materialized engine lives under ``tests/`` as the oracle this class is
tested against.

Scope: the implicit layout simulates the enumeration explorer's memo —
the one explorer.  Plan numbers are defined on the unpruned space:
post-optimization pruning removes expressions, so a configuration with
``pruning_factor`` set is refused with a named error rather than numbered
differently from ``USEPLAN``.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.catalog.catalog import Catalog
from repro.errors import PlanSpaceError, RankOutOfRangeError
from repro.obs.trace import phase as obs_phase
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit.counting import CountState
from repro.planspace.implicit.layout import ImplicitLayout
from repro.planspace.implicit.sampling import ImplicitPlanSampler
from repro.planspace.implicit.unranking import ImplicitUnranker, UnrankTrace
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parser import parse

__all__ = ["ImplicitPlanSpace"]


class ImplicitPlanSpace:
    """Counting, enumeration, ranking/unranking and uniform sampling over
    a query's plan space, computed without materializing it."""

    def __init__(self, state: CountState):
        self.state = state
        self.unranker = ImplicitUnranker(state)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_query(
        cls,
        catalog: Catalog,
        bound: BoundQuery,
        options=None,
        include_redundant_sorts: bool = True,
        scope=None,
    ) -> "ImplicitPlanSpace":
        """Build the implicit space for a bound query.

        ``options`` is an :class:`~repro.optimizer.optimizer.OptimizerOptions`
        (cross-product policy + implementation config); defaults apply when
        omitted.  ``include_redundant_sorts=False`` counts the paper's
        space minus the redundant ``Sort`` enforcers (the state carries the
        flag for everything built on it).  ``scope`` is an optional
        :class:`~repro.resilience.budget.BudgetScope` checkpointed during
        layout and counting.
        """
        from repro.optimizer.optimizer import OptimizerOptions

        if options is None:
            options = OptimizerOptions()
        if options.pruning_factor is not None:
            raise PlanSpaceError(
                "plan numbers are defined on the unpruned search space: "
                "counting, sampling, unranking and USEPLAN refuse "
                f"pruning_factor={options.pruning_factor:g}"
            )
        timings: dict[str, float] = {}
        with obs_phase("implicit.layout") as span:
            layout = ImplicitLayout(
                bound, options.allow_cross_products, scope=scope
            )
        timings["layout"] = span.elapsed_s
        with obs_phase("implicit.count") as span:
            state = CountState(
                layout=layout,
                catalog=catalog,
                config=options.implementation,
                include_redundant_sorts=include_redundant_sorts,
                scope=scope,
            ).compute()
            span.add("groups", len(layout.groups))
        timings["count"] = span.elapsed_s
        state.timings = timings
        return cls(state)

    @classmethod
    def from_sql(
        cls,
        catalog: Catalog,
        sql: str,
        options=None,
        include_redundant_sorts: bool = True,
    ) -> "ImplicitPlanSpace":
        bound = Binder(catalog).bind(parse(sql))
        return cls.from_query(
            catalog,
            bound,
            options=options,
            include_redundant_sorts=include_redundant_sorts,
        )

    # ------------------------------------------------------------------
    # the paper's primitives
    # ------------------------------------------------------------------
    def count(self) -> int:
        """``N``: the exact number of execution plans in the space."""
        return self.state.total

    def unrank(self, rank: int) -> PlanNode:
        """Plan number ``rank`` (0-based)."""
        return self.unranker.unrank(rank)

    def unrank_with_trace(self, rank: int) -> tuple[PlanNode, UnrankTrace]:
        """Unrank with a step-by-step trace (paper appendix walkthrough)."""
        return self.unranker.unrank_with_trace(rank)

    def rank(self, plan: PlanNode) -> int:
        """The number of ``plan``; inverse of :meth:`unrank`."""
        return self.unranker.rank(plan)

    def sampler(self, seed: int | random.Random = 0) -> ImplicitPlanSampler:
        return ImplicitPlanSampler(self.unranker, seed=seed)

    def sample(
        self, n: int, seed: int | random.Random = 0, unique: bool = False
    ) -> list[PlanNode]:
        """``n`` uniform random plans."""
        return self.sampler(seed).sample(n, unique=unique)

    def sample_ranks(
        self, n: int, seed: int | random.Random = 0, unique: bool = False
    ) -> list[int]:
        return self.sampler(seed).sample_ranks(n, unique=unique)

    def enumerate(
        self, start: int = 0, stop: int | None = None, step: int = 1
    ) -> Iterator[tuple[int, PlanNode]]:
        """Lazily yield ``(rank, plan)`` in lexicographic rank order."""
        if step <= 0:
            raise ValueError("step must be positive")
        total = self.state.total
        if stop is None:
            stop = total
        if stop > total:
            raise RankOutOfRangeError(stop - 1, total)
        if start < 0:
            raise RankOutOfRangeError(start, total)
        unrank = self.unranker.unrank
        for rank in range(start, stop, step):
            yield rank, unrank(rank)

    def all_plans(self, limit: int | None = None) -> list[PlanNode]:
        """Materialize the whole space (or its first ``limit`` plans)."""
        stop = None if limit is None else min(limit, self.count())
        return [plan for _, plan in self.enumerate(stop=stop)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def timings(self) -> dict[str, float]:
        return getattr(self.state, "timings", {})

    def group_count(self) -> int:
        return len(self.state.layout.groups)

    def logical_operator_count(self) -> int:
        return self.state.layout.logical_expression_count()

    def physical_operator_count(self) -> int:
        """How many physical expressions the materializer would create —
        computed analytically, none of them instantiated."""
        return self.state.physical_count

    def census(self) -> Iterator[tuple[int, int, object, int, frozenset[str]]]:
        """Every virtual physical operator as ``(gid, local_id, operator,
        N(v), group relations)``, in gid then local-id order — the
        materializer's order.  Builds every row: a diagnostic, O(space)."""
        tables = self.unranker.tables
        for group in self.state.layout.groups:
            gid = group.gid
            table = tables.table(gid)
            for pos in range(len(table.counts)):
                row = table.row(pos)
                operator = tables.operator(gid, row)
                yield gid, row.local_id, operator, row.count, group.relations

    def describe(self) -> str:
        layout = self.state.layout
        lines = [
            f"implicit plan space over {len(layout.groups)} groups, "
            f"{self.state.physical_count} physical operators (virtual)",
            f"root group: {layout.root_gid}, "
            f"root requirement: {layout.root_order or '(none)'}",
            f"total plans N = {self.count():,}",
        ]
        return "\n".join(lines)
