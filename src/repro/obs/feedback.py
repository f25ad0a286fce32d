"""The execution-feedback loop's consuming half: the cardinality ledger.

PR 7 made the optimizer's estimates *visible* (``EXPLAIN ANALYZE``
records actual per-operator rows keyed by memo ``group_id``); this
module makes them *useful*.  A :class:`CardinalityLedger` accumulates
observed cardinalities under the same key the optimizer uses for
logical equivalence — the relation bitmask of a memo's ``("rels",
mask)`` groups, **not** the ``group_id`` ordinal (group ids are an
artifact of one memo's construction order; the mask names the logical
sub-goal itself and is identical across re-optimizations of the same
query).  Masks are interpreted under an explicit *universe* — the
query's sorted alias tuple (see
:class:`repro.optimizer.bitset.AliasUniverse`: bit ``i`` is the
``i``-th alias in sorted name order) — so one ledger can hold
observations for many queries without mask collisions.

Three consumers sit on top:

* **accuracy reporting** — :func:`accuracy_report` summarizes the
  q-error history per workload (count/median/p90/max, worst offenders
  by subplan), behind ``Session.estimation_report()`` and
  ``repro accuracy``;
* **feedback-driven re-costing** —
  :class:`~repro.optimizer.cardinality.CardinalityEstimator` accepts a
  ledger and substitutes the observed (EWMA) cardinality wherever an
  observation exists, leaving every unobserved estimate untouched;
  :class:`FeedbackReport` (``Session.optimize(sql, feedback=...)``)
  captures the chosen-plan delta;
* **benchmarking** — :func:`true_cardinality_ledger` is the oracle:
  a ledger populated with the *actual* cardinality of every join-level
  memo group (each group's best subplan is executed once), which
  defines the "optimum under true cardinalities" that the feedback
  smoke of ``scripts/ci.sh`` scores chosen plans against.

Everything round-trips through JSON (:meth:`CardinalityLedger.save` /
:meth:`CardinalityLedger.load`), so a ledger outlives the session that
recorded it.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.analyze import ExecutionStats

__all__ = [
    "CardinalityLedger",
    "EPOCH_Q_THRESHOLD",
    "FeedbackReport",
    "LedgerBinding",
    "LedgerEntry",
    "accuracy_report",
    "plan_cost_under_ledger",
    "true_cardinality_ledger",
]

#: weight of the newest observation in the running EWMA.  High on
#: purpose: cardinalities are deterministic per database state, so the
#: only drift worth smoothing is data change between executions.
EWMA_ALPHA = 0.5

#: per-entry cap on retained q-error history (most recent last).
Q_ERROR_HISTORY = 64

#: q-error threshold past which an observation counts as a *bound-stats
#: change*: the ledger's ``stats_epoch`` is bumped when a new entry
#: arrives whose estimate was off by at least this factor, or when an
#: existing entry's EWMA substitute moves by at least this factor.
#: Plan caches key feedback-costed entries on the epoch, so crossing the
#: threshold invalidates cached plans (re-cost on next serve) while
#: steady-state re-observations — the EWMA converging — do not.
EPOCH_Q_THRESHOLD = 2.0


def _q_error(est_rows: float, actual_rows: float) -> float | None:
    """``max(est/actual, actual/est)``; ``None`` when either side is
    zero or negative (same contract as ``OperatorStats.q_error``)."""
    if est_rows <= 0 or actual_rows <= 0:
        return None
    ratio = est_rows / actual_rows
    return ratio if ratio >= 1.0 else 1.0 / ratio


@dataclass
class LedgerEntry:
    """Everything observed about one logical sub-goal (relation set)."""

    mask: int  # relation bitmask under the owning universe
    relations: tuple[str, ...]  # the mask, spelled out (sorted aliases)
    observed_rows: float  # most recent actual
    ewma_rows: float  # exponentially weighted actual (the substitute)
    hits: int  # number of observations folded in
    last_est_rows: float  # the estimate at the last observation
    q_errors: list[float] = field(default_factory=list)

    @property
    def last_q_error(self) -> float | None:
        return self.q_errors[-1] if self.q_errors else None

    def fold(self, actual_rows: float, est_rows: float) -> None:
        """Fold one new observation into the entry."""
        self.observed_rows = actual_rows
        self.ewma_rows = (
            EWMA_ALPHA * actual_rows + (1.0 - EWMA_ALPHA) * self.ewma_rows
        )
        self.hits += 1
        self.last_est_rows = est_rows
        q = _q_error(est_rows, actual_rows)
        if q is not None:
            self.q_errors.append(q)
            if len(self.q_errors) > Q_ERROR_HISTORY:
                del self.q_errors[: len(self.q_errors) - Q_ERROR_HISTORY]

    def to_dict(self) -> dict:
        return {
            "mask": self.mask,
            "relations": list(self.relations),
            "observed_rows": self.observed_rows,
            "ewma_rows": self.ewma_rows,
            "hits": self.hits,
            "last_est_rows": self.last_est_rows,
            "q_errors": list(self.q_errors),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LedgerEntry":
        return cls(
            mask=data["mask"],
            relations=tuple(data["relations"]),
            observed_rows=data["observed_rows"],
            ewma_rows=data["ewma_rows"],
            hits=data["hits"],
            last_est_rows=data["last_est_rows"],
            q_errors=list(data.get("q_errors", ())),
        )


class LedgerBinding:
    """One universe's entries, bound for O(1) mask (or alias-set) lookup.

    The estimator holds one of these per optimization: ``rows_for_mask``
    is called once per join-level memo group, so the binding precomputes
    the alias→bit table instead of re-deriving it per lookup.
    """

    __slots__ = ("entries", "_bit_by_name")

    def __init__(self, entries: dict[int, LedgerEntry], universe: tuple[str, ...]):
        self.entries = entries
        self._bit_by_name = {name: 1 << i for i, name in enumerate(universe)}

    def rows_for_mask(self, mask: int) -> float | None:
        """The observed (EWMA) cardinality for ``mask``, or ``None``."""
        entry = self.entries.get(mask)
        if entry is None:
            return None
        return max(1.0, entry.ewma_rows)

    def rows_for(self, relations) -> float | None:
        """Alias-set lookup (for callers without a mask at hand)."""
        mask = 0
        bit_by_name = self._bit_by_name
        for alias in relations:
            bit = bit_by_name.get(alias)
            if bit is None:
                return None  # foreign universe: no observation applies
            mask |= bit
        return self.rows_for_mask(mask)

    def __len__(self) -> int:
        return len(self.entries)


class CardinalityLedger:
    """Observed cardinalities per ``(universe, relation mask)``.

    The ledger is the persistent store; per-query access goes through
    :meth:`binding`, which fixes the universe (the query's sorted alias
    tuple) once.  Feeding happens either through :meth:`observe` (one
    subplan at a time) or :meth:`record_execution` (every join-level
    operator of one instrumented execution).
    """

    def __init__(self):
        #: universe (sorted alias tuple) -> mask -> entry
        self._spaces: dict[tuple[str, ...], dict[int, LedgerEntry]] = {}
        #: monotone counter of *significant* observations (q-error or
        #: EWMA shift >= :data:`EPOCH_Q_THRESHOLD`); plan caches record
        #: the epoch a feedback-costed plan was produced under and
        #: invalidate when it moves (see :mod:`repro.serving.cache`)
        self.stats_epoch = 0

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def observe(
        self,
        universe: tuple[str, ...],
        mask: int,
        actual_rows: float,
        est_rows: float,
    ) -> LedgerEntry:
        """Fold one observation for ``mask`` under ``universe``.

        Bumps :attr:`stats_epoch` when the observation is *significant*
        — a first observation whose estimate was off by at least
        :data:`EPOCH_Q_THRESHOLD`, or a re-observation moving the EWMA
        substitute by at least that factor — so epoch-keyed plan caches
        drop entries whose bound stats drifted, while converged
        re-observations leave them valid.
        """
        universe = tuple(universe)
        space = self._spaces.setdefault(universe, {})
        entry = space.get(mask)
        ewma_before = None
        if entry is None:
            entry = LedgerEntry(
                mask=mask,
                relations=tuple(
                    name for i, name in enumerate(universe) if mask >> i & 1
                ),
                observed_rows=actual_rows,
                ewma_rows=actual_rows,
                hits=0,
                last_est_rows=est_rows,
            )
            space[mask] = entry
        else:
            ewma_before = entry.ewma_rows
        entry.fold(actual_rows, est_rows)
        if ewma_before is None:
            shift = entry.last_q_error
        else:
            shift = _q_error(ewma_before, entry.ewma_rows)
        if shift is not None and shift >= EPOCH_Q_THRESHOLD:
            self.stats_epoch += 1
        return entry

    def record_execution(
        self, stats: ExecutionStats, memo, universe: tuple[str, ...]
    ) -> int:
        """Feed every join-level operator of one instrumented execution.

        ``stats`` is the ``ExecutionStats`` tree an analyzing execution
        produced; ``memo`` maps each node's ``group_id`` back to its
        group key.  Only ``("rels", mask)`` groups are recorded — their
        masks are stable across re-optimizations, unlike the
        ``("select", gid)``-style unary keys, which embed memo-ordinal
        child ids.  Enforcers share their group with the operator they
        wrap, so each mask is recorded at most once per execution (the
        topmost node wins; all nodes of one group produce identical row
        counts).  Returns the number of observations folded in.
        """
        universe = tuple(universe)
        seen: set[int] = set()
        recorded = 0
        for node in stats.root.iter_nodes():
            group = memo.group(node.group_id)
            key = group.key
            if key[0] != "rels":
                continue
            mask = key[1]
            if mask in seen:
                continue
            seen.add(mask)
            self.observe(
                universe,
                mask,
                actual_rows=float(node.actual_rows),
                est_rows=float(node.est_rows),
            )
            recorded += 1
        return recorded

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def binding(self, universe: tuple[str, ...]) -> LedgerBinding:
        """A fixed-universe view (empty when nothing was observed)."""
        universe = tuple(universe)
        return LedgerBinding(self._spaces.get(universe, {}), universe)

    def universes(self) -> list[tuple[str, ...]]:
        return sorted(self._spaces)

    def entries(self):
        """Iterate ``(universe, entry)`` pairs in deterministic order."""
        for universe in sorted(self._spaces):
            space = self._spaces[universe]
            for mask in sorted(space):
                yield universe, space[mask]

    def __len__(self) -> int:
        return sum(len(space) for space in self._spaces.values())

    def __bool__(self) -> bool:
        return any(self._spaces.values())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "version": 1,
            "ewma_alpha": EWMA_ALPHA,
            "stats_epoch": self.stats_epoch,
            "spaces": [
                {
                    "universe": list(universe),
                    "entries": [
                        space[mask].to_dict() for mask in sorted(space)
                    ],
                }
                for universe, space in sorted(self._spaces.items())
                if space
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CardinalityLedger":
        version = data.get("version")
        if version != 1:
            raise ReproError(
                f"unsupported cardinality ledger version {version!r}"
            )
        ledger = cls()
        ledger.stats_epoch = int(data.get("stats_epoch", 0))
        for space in data.get("spaces", ()):
            universe = tuple(space["universe"])
            entries = ledger._spaces.setdefault(universe, {})
            for raw in space.get("entries", ()):
                entry = LedgerEntry.from_dict(raw)
                entries[entry.mask] = entry
        return ledger

    def save(self, path) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n"
        )

    @classmethod
    def load(cls, path) -> "CardinalityLedger":
        try:
            data = json.loads(pathlib.Path(path).read_text())
        except FileNotFoundError:
            raise ReproError(f"no cardinality ledger at {path!r}") from None
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"cardinality ledger {path!r} is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def render(self, limit: int = 20) -> str:
        """Human-readable entry table (largest q-error first)."""
        rows = sorted(
            self.entries(),
            key=lambda pair: -(pair[1].last_q_error or 0.0),
        )[:limit]
        if not rows:
            return "(empty ledger)"
        lines = [
            f"{'subplan':<40}  {'observed':>12}  {'last est':>12}  "
            f"{'q-err':>8}  {'hits':>5}"
        ]
        lines.append("-" * len(lines[0]))
        for _, entry in rows:
            label = "{" + ", ".join(entry.relations) + "}"
            q = entry.last_q_error
            lines.append(
                f"{label:<40}  {entry.ewma_rows:>12,.0f}  "
                f"{entry.last_est_rows:>12,.0f}  "
                f"{(f'{q:.2f}x' if q is not None else '-'):>8}  "
                f"{entry.hits:>5}"
            )
        total = len(self)
        if total > limit:
            lines.append(f"... ({total} subplans total)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# accuracy reporting
# ----------------------------------------------------------------------
def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over a sorted copy (no numpy dependency)."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class AccuracyReport:
    """Per-workload estimation-accuracy summary over one ledger.

    ``summary`` aggregates the *latest* q-error of every observed
    subplan; ``worst`` lists the offenders (largest latest q-error
    first) with their relation sets spelled out.
    """

    observations: int  # total folds across all entries
    subplans: int  # distinct (universe, mask) entries
    summary: dict  # {count, median, p90, max} over latest q-errors
    worst: list[dict]  # top offenders, largest q-error first

    def to_dict(self) -> dict:
        return {
            "observations": self.observations,
            "subplans": self.subplans,
            "summary": dict(self.summary),
            "worst": [dict(w) for w in self.worst],
        }

    def render(self) -> str:
        lines = [
            f"observations: {self.observations} over {self.subplans} subplans"
        ]
        s = self.summary
        if s["count"]:
            lines.append(
                f"q-error: count={s['count']} median={s['median']:.2f}x "
                f"p90={s['p90']:.2f}x max={s['max']:.2f}x"
            )
        else:
            lines.append("q-error: (no measurable estimates yet)")
        if self.worst:
            lines.append("worst subplans:")
            for w in self.worst:
                label = "{" + ", ".join(w["relations"]) + "}"
                lines.append(
                    f"  {label:<40} q-err {w['q_error']:.2f}x  "
                    f"est {w['est_rows']:,.0f} -> actual {w['actual_rows']:,.0f}"
                    f"  (hits {w['hits']})"
                )
        return "\n".join(lines)


def accuracy_report(
    ledger: CardinalityLedger, worst_limit: int = 5
) -> AccuracyReport:
    """Summarize estimation accuracy across everything a ledger holds."""
    latest: list[float] = []
    offenders: list[dict] = []
    observations = 0
    subplans = 0
    for _, entry in ledger.entries():
        subplans += 1
        observations += entry.hits
        q = entry.last_q_error
        if q is None:
            continue
        latest.append(q)
        offenders.append(
            {
                "relations": list(entry.relations),
                "mask": entry.mask,
                "q_error": q,
                "est_rows": entry.last_est_rows,
                "actual_rows": entry.observed_rows,
                "hits": entry.hits,
            }
        )
    offenders.sort(key=lambda w: (-w["q_error"], w["mask"]))
    summary = (
        {
            "count": len(latest),
            "median": _percentile(latest, 0.5),
            "p90": _percentile(latest, 0.9),
            "max": max(latest),
        }
        if latest
        else {"count": 0, "median": None, "p90": None, "max": None}
    )
    return AccuracyReport(
        observations=observations,
        subplans=subplans,
        summary=summary,
        worst=offenders[:worst_limit],
    )


# ----------------------------------------------------------------------
# feedback-driven re-costing
# ----------------------------------------------------------------------
@dataclass
class FeedbackReport:
    """The chosen-plan delta of one feedback-driven optimization.

    Costs tagged ``_feedback`` are measured under the *observed*
    cardinality assignment (ledger EWMA where an observation exists, the
    static estimate elsewhere) — the closest available proxy for true
    cost.  ``improvement_factor >= 1`` always holds when the memo search
    is exact: the feedback plan minimizes exactly that assignment.
    """

    plan_changed: bool  # did feedback change the chosen plan?
    substituted: int  # join-level groups whose estimate was replaced
    baseline_cost: float  # estimate-chosen plan under static estimates
    baseline_cost_feedback: float  # estimate-chosen plan under observed cards
    feedback_cost: float  # feedback-chosen plan under observed cards
    improvement_factor: float  # baseline_cost_feedback / feedback_cost

    def to_dict(self) -> dict:
        return {
            "plan_changed": self.plan_changed,
            "substituted": self.substituted,
            "baseline_cost": self.baseline_cost,
            "baseline_cost_feedback": self.baseline_cost_feedback,
            "feedback_cost": self.feedback_cost,
            "improvement_factor": self.improvement_factor,
        }

    def describe(self) -> str:
        changed = "changed the plan" if self.plan_changed else "kept the plan"
        return (
            f"feedback: {self.substituted} subplan cardinalities observed, "
            f"{changed}; cost under observed cards "
            f"{self.baseline_cost_feedback:,.1f} -> {self.feedback_cost:,.1f} "
            f"({self.improvement_factor:.2f}x)"
        )


def plan_cost_under_ledger(
    plan, memo, binding: LedgerBinding, cost_model
) -> float:
    """Cost an assembled plan under the observed cardinality assignment.

    Every node whose memo group is join-level (``("rels", mask)``) and
    observed in ``binding`` is priced at the observed (EWMA) rows; every
    other node keeps the cardinality baked into the plan.  Because the
    assignment is a function of ``binding`` alone, two plans for the
    same query are directly comparable — this is the figure of merit the
    feedback benchmark calls "cost under true cardinalities" when the
    binding comes from :func:`true_cardinality_ledger`.
    """

    def rows(node) -> float:
        key = memo.group(node.group_id).key
        if key[0] == "rels":
            observed = binding.rows_for_mask(key[1])
            if observed is not None:
                return observed
        return node.cardinality

    total = 0.0
    stack = [plan]
    operator_cost = cost_model.operator_cost
    while stack:
        node = stack.pop()
        children = node.children
        total += operator_cost(
            node.op, rows(node), tuple(rows(child) for child in children)
        )
        stack.extend(children)
    return total


def true_cardinality_ledger(result, database) -> CardinalityLedger:
    """The feedback oracle: observe every join-level group's true rows.

    Executes the cheapest subplan of each ``("rels", mask)`` group once
    against ``database`` (any subplan of a group produces the same rows
    — that is what a memo group *means*), folding the actual row counts
    into a fresh ledger.  The subplans come from the best-plan DP over
    the result's columnar store, so a pruned result (whose store is
    detached) has no oracle.  Exponential in the join-graph size like
    the memo itself; intended for benchmark/test workloads, not serving.
    """
    # Deferred: keep repro.obs import-light (the executor and best-plan
    # search pull in the whole physical layer).
    from repro.executor.executor import PlanExecutor
    from repro.optimizer.bestplan import ColumnarBestPlanSearch

    store = result.memo.columnar
    if store is None:
        raise ReproError(
            "true_cardinality_ledger needs the result's columnar store "
            "(pruning detaches it): optimize without a prune factor"
        )
    ledger = CardinalityLedger()
    universe = result.graph.universe.order
    search = ColumnarBestPlanSearch(store, result.cost_model).run()
    executor = PlanExecutor(database)
    for group in result.memo.groups:
        if group.key[0] != "rels":
            continue
        plan = search.group_plan(group.gid)
        if plan is None:  # pragma: no cover - groups are always implemented
            continue
        actual = len(executor.execute(plan).rows)
        ledger.observe(
            universe,
            group.key[1],
            actual_rows=float(actual),
            est_rows=float(group.cardinality or 0.0),
        )
    return ledger
