"""The plan-validation harness (Section 4 of the paper).

Given a query, the harness optimizes it once, opens the query's plan
space (the numbering ``OPTION (USEPLAN n)`` executes), and executes *many*
plans — all of them when the space is small enough, otherwise a uniform
sample — comparing every result against the optimizer-chosen plan's
result.  Any mismatch is reported with the plan's rank, so the failing
plan can be reproduced exactly with ``OPTION (USEPLAN <rank>)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.executor.executor import PlanExecutor
from repro.optimizer.optimizer import OptimizationResult, Optimizer, OptimizerOptions
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit import ImplicitPlanSpace
from repro.storage.database import Database
from repro.testing.diff import canonical_rows

__all__ = ["PlanMismatch", "ValidationReport", "PlanValidator"]


@dataclass
class PlanMismatch:
    """One plan whose result differs from the reference."""

    rank: int
    plan: PlanNode
    expected_rows: int
    actual_rows: int
    detail: str

    def render(self) -> str:
        return (
            f"plan #{self.rank} differs ({self.actual_rows} rows, "
            f"expected {self.expected_rows}): {self.detail}\n"
            f"{self.plan.render()}"
        )


@dataclass
class ValidationReport:
    """Outcome of validating one query across many plans."""

    sql: str
    total_plans: int
    executed_plans: int
    exhaustive: bool
    mismatches: list[PlanMismatch] = field(default_factory=list)
    errors: list[tuple[int, str]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def all_equal(self) -> bool:
        return not self.mismatches and not self.errors

    def render(self) -> str:
        mode = "exhaustive" if self.exhaustive else "sampled"
        lines = [
            f"validated {self.executed_plans} of {self.total_plans:,} plans "
            f"({mode}) in {self.elapsed_seconds:.2f}s",
        ]
        if self.all_equal:
            lines.append("all plans produced identical results")
        for rank, message in self.errors:
            lines.append(f"plan #{rank} raised: {message}")
        for mismatch in self.mismatches:
            lines.append(mismatch.render())
        return "\n".join(lines)


class PlanValidator:
    """Cross-checks many plans of each query for result equivalence."""

    def __init__(
        self,
        database: Database,
        options: OptimizerOptions | None = None,
        executor: PlanExecutor | None = None,
        check_orders: bool = True,
    ):
        self.database = database
        self.options = options if options is not None else OptimizerOptions()
        self.executor = (
            executor
            if executor is not None
            else PlanExecutor(database, check_orders=check_orders)
        )

    # ------------------------------------------------------------------
    def validate_sql(
        self,
        sql: str,
        max_exhaustive: int = 200,
        sample_size: int = 100,
        seed: int = 0,
    ) -> ValidationReport:
        """Validate one query.

        Spaces with at most ``max_exhaustive`` plans are enumerated
        exhaustively; larger spaces are sampled uniformly (``sample_size``
        plans, seeded) — the paper's recipe for unbiased testing when
        exhaustive testing becomes infeasible.
        """
        optimizer = Optimizer(self.database.catalog, self.options)
        result = optimizer.optimize_sql(sql)
        return self.validate_result(
            result,
            sql=sql,
            max_exhaustive=max_exhaustive,
            sample_size=sample_size,
            seed=seed,
        )

    def validate_result(
        self,
        result: OptimizationResult,
        sql: str = "",
        max_exhaustive: int = 200,
        sample_size: int = 100,
        seed: int = 0,
    ) -> ValidationReport:
        """Validate an optimizer result's query.

        The plans are numbered over the query's whole space, built from
        ``result.query`` and ``result.options`` — not over the memo the
        result carries, which a degraded tier shrinks to its own sub-space
        — so every reported rank replays with ``OPTION (USEPLAN rank)``.
        """
        started = time.perf_counter()
        space = ImplicitPlanSpace.from_query(
            self.database.catalog, result.query, options=result.options
        )
        total = space.count()

        reference = self.executor.execute(result.best_plan)
        respect_order = bool(result.root_order)
        expected = canonical_rows(reference.rows, respect_order=respect_order)

        exhaustive = total <= max_exhaustive
        if exhaustive:
            ranks = list(range(total))
        else:
            ranks = space.sample_ranks(sample_size, seed=seed)

        report = ValidationReport(
            sql=sql,
            total_plans=total,
            executed_plans=len(ranks),
            exhaustive=exhaustive,
        )
        for rank in ranks:
            plan = space.unrank(rank)
            try:
                actual = self.executor.execute(plan)
            except Exception as exc:  # noqa: BLE001 - harness must not die
                report.errors.append((rank, f"{type(exc).__name__}: {exc}"))
                continue
            got = canonical_rows(actual.rows, respect_order=respect_order)
            if got != expected:
                report.mismatches.append(
                    PlanMismatch(
                        rank=rank,
                        plan=plan,
                        expected_rows=len(expected),
                        actual_rows=len(got),
                        detail=_first_difference(expected, got),
                    )
                )
        report.elapsed_seconds = time.perf_counter() - started
        return report


def _first_difference(expected: list[tuple], got: list[tuple]) -> str:
    missing = [row for row in expected if row not in got]
    extra = [row for row in got if row not in expected]
    parts = []
    if missing:
        parts.append(f"missing e.g. {missing[0]!r}")
    if extra:
        parts.append(f"unexpected e.g. {extra[0]!r}")
    if not parts:
        parts.append("row order differs under ORDER BY")
    return "; ".join(parts)
