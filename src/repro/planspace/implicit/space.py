"""The implicit plan-space facade.

Mirrors :class:`repro.planspace.space.PlanSpace` — count, unrank, rank,
enumerate, sample — but is built from a *logical* description of the
search space (bound query + join graph + implementation rules) and never
constructs a physical memo.  Counting clique-sized spaces drops from
minutes of memo materialization to sub-second table passes; unranking
instantiates exactly the operators on the requested plan's path, with the
same group and local ids the materialized pipeline would produce.

Scope: the implicit layout simulates the enumeration explorer's memo —
the one explorer.  Post-optimization pruning removes expressions, so a
pruned configuration is rejected and implicit ranks never silently
diverge from the ranks the materialized path would assign.
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
from repro.planspace.implicit.unranking import ImplicitUnranker
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
                "the implicit plan space models the unpruned search space; "
                "pruned memos must use the materialized PlanSpace"
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

    def __len__(self) -> int:
        return self.count()
