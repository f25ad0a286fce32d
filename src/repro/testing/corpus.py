"""Golden-plan regression corpora.

Section 4: "developers are able to generate test cases for specific
queries, instantly extending existing test libraries substantially."
A :class:`PlanCorpus` is that test library made durable: a set of
(query, plan rank, expected result digest) records built once from a
known-good engine and replayed against any later build.  A replay failure
pinpoints the exact plan — re-executable via ``OPTION (USEPLAN rank)``.

Digests are computed over canonicalized results (column-order and
float-noise insensitive), so they are stable across plan shapes and
engine refactorings that preserve semantics.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.api import Session
from repro.planspace.implicit import ImplicitPlanSpace
from repro.testing.diff import canonical_result

__all__ = [
    "CorpusRecord",
    "QueryPlanRecord",
    "PlanCorpus",
    "build_corpus",
    "verify_corpus",
    "default_golden_sections",
]


def _digest(columns: list[str], rows: list[tuple]) -> str:
    canon_columns, canon_rows = canonical_result(columns, rows)
    payload = repr((canon_columns, canon_rows)).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class CorpusRecord:
    """One golden test case: a query, a plan number, the result digest."""

    query: str
    rank: int
    digest: str
    row_count: int


@dataclass(frozen=True)
class QueryPlanRecord:
    """The golden *optimizer decision* for one query: the chosen plan
    (full render, so a regression shows as an explicit plan diff, not
    just a digest mismatch), its cost, and the plan-space size."""

    query: str
    best_cost: float
    best_plan: str
    plan_count: int


@dataclass
class PlanCorpus:
    """A replayable set of golden plan results."""

    records: list[CorpusRecord] = field(default_factory=list)
    plans: list[QueryPlanRecord] = field(default_factory=list)
    seed: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "records": [asdict(r) for r in self.records],
                "plans": [asdict(p) for p in self.plans],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PlanCorpus":
        data = json.loads(text)
        return cls(
            seed=data.get("seed", 0),
            records=[CorpusRecord(**record) for record in data["records"]],
            plans=[QueryPlanRecord(**plan) for plan in data.get("plans", [])],
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "PlanCorpus":
        with open(path) as handle:
            return cls.from_json(handle.read())


@dataclass
class CorpusVerification:
    """Outcome of replaying a corpus."""

    checked: int = 0
    failures: list[tuple[CorpusRecord, str]] = field(default_factory=list)
    plan_failures: list[tuple[QueryPlanRecord, str]] = field(
        default_factory=list
    )

    @property
    def passed(self) -> bool:
        return not self.failures and not self.plan_failures

    def render(self) -> str:
        lines = [f"replayed {self.checked} golden plans"]
        if self.passed:
            lines.append("all digests match")
        for plan, reason in self.plan_failures:
            lines.append(f"PLAN DIFF for {plan.query[:60]!r}: {reason}")
        for record, reason in self.failures:
            lines.append(
                f"FAIL rank {record.rank} of {record.query[:60]!r}: {reason} "
                f"(replay with OPTION (USEPLAN {record.rank}))"
            )
        return "\n".join(lines)


def build_corpus(
    session: Session,
    queries: list[str],
    plans_per_query: int = 20,
    seed: int = 0,
) -> PlanCorpus:
    """Record digests for ``plans_per_query`` uniform plans of each query.

    Small spaces are covered exhaustively instead of sampled.
    """
    corpus = PlanCorpus(seed=seed)
    for sql in queries:
        result = session.optimize(sql)
        space = session.implicit_plan_space(sql)
        total = space.count()
        corpus.plans.append(
            QueryPlanRecord(
                query=sql,
                best_cost=result.best_cost,
                best_plan=result.best_plan.render(),
                plan_count=total,
            )
        )
        if total <= plans_per_query:
            ranks = list(range(total))
        else:
            ranks = space.sample_ranks(plans_per_query, seed=seed, unique=True)
        for rank in ranks:
            plan = space.unrank(rank)
            executed = session.executor.execute(plan)
            corpus.records.append(
                CorpusRecord(
                    query=sql,
                    rank=rank,
                    digest=_digest(executed.columns, executed.rows),
                    row_count=len(executed.rows),
                )
            )
    return corpus


#: relative tolerance for golden-cost comparison: plan choice and shape
#: must match exactly, but ``math.log2`` in the cost formulas may differ
#: in the last few bits across platforms/libms
_COST_RTOL = 1e-9


def verify_corpus(session: Session, corpus: PlanCorpus) -> CorpusVerification:
    """Replay every record against ``session``'s engine.

    Golden best plans are compared render-for-render — a best-plan or
    cost regression surfaces as an explicit plan diff, not merely a
    result-digest mismatch further down.
    """
    verification = CorpusVerification()
    spaces: dict[str, ImplicitPlanSpace] = {}
    for plan in corpus.plans:
        result = session.optimize(plan.query)
        spaces[plan.query] = session.implicit_plan_space(plan.query)
        if result.best_plan.render() != plan.best_plan:
            verification.plan_failures.append(
                (
                    plan,
                    "best plan changed:\n--- golden ---\n"
                    f"{plan.best_plan}\n--- current ---\n"
                    f"{result.best_plan.render()}",
                )
            )
        elif abs(result.best_cost - plan.best_cost) > _COST_RTOL * max(
            abs(plan.best_cost), 1.0
        ):
            verification.plan_failures.append(
                (
                    plan,
                    f"best cost changed: golden {plan.best_cost!r}, "
                    f"current {result.best_cost!r}",
                )
            )
        current_count = spaces[plan.query].count()
        if current_count != plan.plan_count:
            verification.plan_failures.append(
                (
                    plan,
                    f"plan-space size changed: golden {plan.plan_count}, "
                    f"current {current_count}",
                )
            )
    for record in corpus.records:
        verification.checked += 1
        space = spaces.get(record.query)
        if space is None:
            space = session.implicit_plan_space(record.query)
            spaces[record.query] = space
        if record.rank >= space.count():
            verification.failures.append(
                (record, f"space shrank to {space.count()} plans")
            )
            continue
        plan = space.unrank(record.rank)
        try:
            executed = session.executor.execute(plan)
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            verification.failures.append(
                (record, f"execution raised {type(exc).__name__}: {exc}")
            )
            continue
        digest = _digest(executed.columns, executed.rows)
        if digest != record.digest:
            verification.failures.append(
                (
                    record,
                    f"digest mismatch ({len(executed.rows)} rows, "
                    f"expected {record.row_count})",
                )
            )
    return verification


def default_golden_sections() -> dict[str, tuple[Session, list[str]]]:
    """The repository's committed golden corpus: TPC-H plus synthetic
    topologies (chain, cycle, and a seeded random graph).

    ``scripts/build_golden_corpus.py`` builds
    ``tests/data/golden_corpus.json`` from these sections and the tier-1
    replay test verifies against them; both must construct the
    *identical* sessions, so the definition lives here.
    """
    from repro.optimizer.optimizer import OptimizerOptions
    from repro.workloads.synthetic import (
        chain_query,
        cycle_query,
        random_query,
    )

    def options() -> OptimizerOptions:
        return OptimizerOptions(allow_cross_products=False)

    sections: dict[str, tuple[Session, list[str]]] = {
        "tpch": (
            Session.tpch(seed=0, options=options()),
            [
                "SELECT n.n_name, r.r_name FROM nation n, region r "
                "WHERE n.n_regionkey = r.r_regionkey",
                "SELECT n.n_name, COUNT(*) AS customers "
                "FROM nation n, region r, customer c "
                "WHERE n.n_regionkey = r.r_regionkey "
                "AND c.c_nationkey = n.n_nationkey GROUP BY n.n_name",
            ],
        )
    }
    for workload in (
        chain_query(5, rows=8, seed=3),
        cycle_query(5, rows=8, seed=4),
        random_query(6, edge_density=0.4, seed=7, rows=8),
    ):
        sections[workload.name] = (
            Session(workload.database, options=options()),
            [workload.sql],
        )
    return sections
