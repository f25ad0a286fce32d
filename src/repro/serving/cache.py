"""The two-tier plan cache: final plans and per-template artifacts.

**Plan tier** — the finished :class:`~repro.optimizer.optimizer.
OptimizationResult` of one exact optimization, keyed by ``(template,
parameter vector, catalog signature, config signature, feedback?)``.
The parameter vector is part of the key on purpose: range selectivities
interpolate literal values against column bounds and the chosen plan's
predicates embed the literals, so serving ``x = 5``'s plan for ``x =
7`` would be both wrong and non-byte-identical.  There is no parameter
sniffing — a different literal vector is a plan-tier miss.

**Template tier** — the reusable, *literal-free* artifacts of one query
template: the explored logical store's split columns (shared read-only
and replayed onto fresh memos by
:func:`repro.memo.columnar.replay_logical_store`), the oriented-equality
:class:`~repro.planspace.implicit.edges.EdgeCatalog` (cloned per use —
its memo caches are mutable), and the implicit plan-space count.  All
are functions of the join graph alone, so even a cost-relevant miss (new
literals, a moved stats epoch) skips exploration entirely.

**Invalidation** — feedback-costed plan entries record the ledger's
``stats_epoch`` at admission.  :meth:`CardinalityLedger.observe` bumps
the epoch when an observation crosses the q-error threshold
(:data:`repro.obs.feedback.EPOCH_Q_THRESHOLD`), and a lookup under a
moved epoch explicitly evicts the stale entry (counted as an
invalidation) and falls back to the template tier, so the plan is
re-costed under the new bound stats instead of served stale.
:meth:`PlanCache.invalidate_epoch` does the same eagerly for every
feedback-keyed entry after a ledger update.

Both tiers are bounded LRU (``OrderedDict`` under one re-entrant lock —
the thread-pool front end shares a single cache across sessions), with
hit/miss/eviction/invalidation counters mirrored into any
:class:`repro.obs.Metrics` registry the caller passes per operation.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.serving.fingerprint import (
    catalog_signature,
    fingerprint_sql,
    options_signature,
    template_digest,
)

__all__ = [
    "CacheIdentity",
    "CacheInfo",
    "CacheKey",
    "PlanCache",
    "TemplateArtifacts",
    "probe_plan",
]


@dataclass(frozen=True)
class CacheKey:
    """Template-level cache identity: normalized text + environment."""

    template: str  # literal-normalized statement (fingerprint_sql)
    catalog: str  # statistics snapshot digest (catalog_signature)
    config: str  # optimizer configuration digest (options_signature)


class CacheIdentity:
    """The environment half of every cache key.  The catalog is
    immutable for the life of a session (feedback flows through the
    ledger, not the stats), so its signature is computed once; the
    configuration's varies only by the per-call ``prune_factor``."""

    def __init__(self, catalog, options):
        self.catalog = catalog
        self.options = options
        self._catalog_sig: str | None = None
        self._config_sigs: dict = {}

    def key(self, template: str, prune_factor=None) -> CacheKey:
        if self._catalog_sig is None:
            self._catalog_sig = catalog_signature(self.catalog)
        config = self._config_sigs.get(prune_factor)
        if config is None:
            config = options_signature(self.options, prune_factor)
            self._config_sigs[prune_factor] = config
        return CacheKey(template, self._catalog_sig, config)


@dataclass(frozen=True)
class CacheInfo:
    """How one ``Session.optimize`` call interacted with the plan cache.

    Attached to ``result.cache`` whenever the session has a cache.
    ``tier`` is ``"plan"`` (the final plan was served from cache —
    no optimization ran), ``"template"`` (plan-tier miss, but cached
    per-template artifacts skipped exploration), or ``"miss"`` (cold:
    the full pipeline ran, and the cache was populated).
    """

    tier: str
    fingerprint: str  # short template digest (QueryFingerprint.digest)
    template_age_s: float | None = None  # age of the reused entry
    hits: int = 0  # serve count of the plan entry (plan tier only)

    def describe(self) -> str:
        age = (
            f", age {self.template_age_s:.3f}s"
            if self.template_age_s is not None
            else ""
        )
        return f"cache: {self.tier} [{self.fingerprint}]{age}"


@dataclass
class _LogicalTemplate:
    """Detached snapshot of a completed ``ColumnarLogicalStore`` — the
    duck-typed argument :func:`repro.memo.columnar.replay_logical_store`
    consumes.  Holds only arrays/dicts of ints, never the source memo,
    so caching a template does not pin a multi-hundred-MB cold run."""

    universe_order: tuple[str, ...]
    allow_cross_products: bool
    subset_masks: list[int]
    sl: object  # array('i'), shared read-only
    sr: object
    range_by_gid: dict[int, tuple[int, int]]
    initial_by_gid: dict[int, tuple[int, int]]
    gid_by_mask: dict[int, int]


@dataclass
class TemplateArtifacts:
    """The literal-free reusables of one query template."""

    logical: _LogicalTemplate | None = None
    edges: object | None = None  # EdgeCatalog snapshot (clone per use)
    implicit_count: int | None = None
    created_s: float = field(default_factory=time.monotonic)
    replays: int = 0

    @classmethod
    def capture(cls, result) -> "TemplateArtifacts | None":
        """Snapshot the reusable artifacts off a finished exact result.

        Returns ``None`` when the run left nothing reusable (object-path
        exploration has no columnar logical store to replay).
        """
        memo = getattr(result, "memo", None)
        logical_store = getattr(memo, "columnar_logical", None)
        if (
            memo is None
            or logical_store is None
            or not getattr(logical_store, "complete", False)
            or memo.universe is None
        ):
            return None
        logical = _LogicalTemplate(
            universe_order=tuple(memo.universe.order),
            allow_cross_products=logical_store.allow_cross_products,
            subset_masks=logical_store.subset_masks,
            sl=logical_store.sl,
            sr=logical_store.sr,
            range_by_gid=logical_store._range_by_gid,
            initial_by_gid=logical_store.initial_by_gid,
            gid_by_mask=logical_store.gid_by_mask,
        )
        physical = getattr(memo, "columnar", None)
        edges = getattr(physical, "edges", None)
        if edges is not None:
            # Snapshot by clone: the live store keeps interning columns
            # through this catalog; the cached copy must stay frozen.
            edges = edges.clone()
        return cls(logical=logical, edges=edges)

    def take_edges(self, graph):
        """A private edge-catalog clone bound to ``graph`` (or ``None``
        when no catalog was captured or the universe drifted)."""
        if self.edges is None:
            return None
        from repro.errors import PlanSpaceError

        try:
            return self.edges.clone(graph)
        except PlanSpaceError:
            return None

    def age_s(self) -> float:
        return time.monotonic() - self.created_s


@dataclass
class _PlanEntry:
    result: object  # OptimizationResult (trace/cache stripped)
    epoch: int | None  # ledger stats_epoch at admission (feedback only)
    fingerprint: str  # template digest, hashed once at admission
    created_s: float = field(default_factory=time.monotonic)
    hits: int = 0

    def age_s(self) -> float:
        return time.monotonic() - self.created_s

    def tagged(self):
        """What a hit returns: a shallow copy of the cached result (same
        memo, byte-identical plan) with ``cache`` set — through
        ``__dict__``; ``dataclasses.replace`` re-runs ``__init__`` over
        every field, at several times the cost of the lookup."""
        stored = self.result
        result = object.__new__(type(stored))
        result.__dict__.update(stored.__dict__)
        result.cache = CacheInfo("plan", self.fingerprint, self.age_s(), self.hits)
        return result


class PlanCache:
    """Bounded, thread-safe, two-tier LRU plan cache."""

    def __init__(self, max_plans: int = 128, max_templates: int = 32):
        if max_plans < 1 or max_templates < 1:
            raise ValueError("cache capacities must be at least 1")
        self.max_plans = max_plans
        self.max_templates = max_templates
        self._lock = threading.RLock()
        self._plans: OrderedDict[tuple, _PlanEntry] = OrderedDict()
        self._templates: OrderedDict[CacheKey, TemplateArtifacts] = OrderedDict()
        self._counters = {
            "plan.hits": 0,
            "plan.misses": 0,
            "plan.evictions": 0,
            "plan.invalidations": 0,
            "template.hits": 0,
            "template.misses": 0,
            "template.evictions": 0,
        }

    # ------------------------------------------------------------------
    def _count(self, name: str, metrics=None) -> None:
        self._counters[name] += 1
        if metrics is not None:
            metrics.inc("plancache." + name)

    @staticmethod
    def _plan_key(key: CacheKey, params, feedback: bool) -> tuple:
        return (key, params, feedback)

    # ------------------------------------------------------------------
    # plan tier
    # ------------------------------------------------------------------
    def lookup_plan(
        self, key: CacheKey, params, feedback: bool, epoch=None, metrics=None,
        count_miss: bool = True,
    ) -> _PlanEntry | None:
        """The cached final plan for this exact request, or ``None``.

        A hit under a moved stats epoch (feedback-keyed entries only) is
        *invalidated*, not served: the entry is evicted, the
        invalidation counted, and the caller re-costs via the template
        tier.  ``count_miss=False`` is for a probe whose miss another
        lookup of the same request follows (``PlanServer``'s caller-side
        probe, then its worker's): hits + misses == requests.
        """
        plan_key = self._plan_key(key, params, feedback)
        with self._lock:
            entry = self._plans.get(plan_key)
            if entry is None:
                if count_miss:
                    self._count("plan.misses", metrics)
                return None
            if feedback and entry.epoch != epoch:
                del self._plans[plan_key]
                self._count("plan.invalidations", metrics)
                self._count("plan.misses", metrics)
                return None
            self._plans.move_to_end(plan_key)
            entry.hits += 1
            self._count("plan.hits", metrics)
            return entry

    def store_plan(
        self, key: CacheKey, params, result, feedback: bool, epoch=None
    ) -> _PlanEntry:
        plan_key = self._plan_key(key, params, feedback)
        entry = _PlanEntry(
            result=result,
            epoch=epoch if feedback else None,
            fingerprint=template_digest(key.template),
        )
        with self._lock:
            self._plans[plan_key] = entry
            self._plans.move_to_end(plan_key)
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self._counters["plan.evictions"] += 1
        return entry

    def invalidate_epoch(self, epoch: int, metrics=None) -> int:
        """Eagerly drop every feedback-keyed plan cached under a
        different stats epoch (the ledger moved past the q-error
        threshold).  Returns the number of entries invalidated."""
        dropped = 0
        with self._lock:
            for plan_key in list(self._plans):
                _key, _params, is_feedback = plan_key
                if is_feedback and self._plans[plan_key].epoch != epoch:
                    del self._plans[plan_key]
                    self._count("plan.invalidations", metrics)
                    dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # template tier
    # ------------------------------------------------------------------
    def lookup_template(
        self, key: CacheKey, metrics=None
    ) -> TemplateArtifacts | None:
        with self._lock:
            artifacts = self._templates.get(key)
            if artifacts is None:
                self._count("template.misses", metrics)
                return None
            self._templates.move_to_end(key)
            artifacts.replays += 1
            self._count("template.hits", metrics)
            return artifacts

    def store_template(self, key: CacheKey, artifacts: TemplateArtifacts) -> None:
        with self._lock:
            existing = self._templates.get(key)
            if existing is not None:
                # Fill gaps instead of resetting age/replay history.
                if existing.logical is None:
                    existing.logical = artifacts.logical
                if existing.edges is None:
                    existing.edges = artifacts.edges
                if existing.implicit_count is None:
                    existing.implicit_count = artifacts.implicit_count
                self._templates.move_to_end(key)
                return
            self._templates[key] = artifacts
            while len(self._templates) > self.max_templates:
                self._templates.popitem(last=False)
                self._counters["template.evictions"] += 1

    # ------------------------------------------------------------------
    # implicit-count convenience (template tier)
    # ------------------------------------------------------------------
    def implicit_count(self, key: CacheKey, metrics=None) -> int | None:
        """The cached implicit plan-space count for a template."""
        with self._lock:
            artifacts = self._templates.get(key)
            count = None if artifacts is None else artifacts.implicit_count
            if count is None:
                self._count("template.misses", metrics)
                return None
            self._templates.move_to_end(key)
            self._count("template.hits", metrics)
            return count

    def store_implicit_count(self, key: CacheKey, count: int) -> None:
        with self._lock:
            artifacts = self._templates.get(key)
            if artifacts is None:
                self.store_template(key, TemplateArtifacts(implicit_count=count))
            else:
                artifacts.implicit_count = count
                self._templates.move_to_end(key)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready counters plus current tier sizes."""
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["plan.size"] = len(self._plans)
            snapshot["template.size"] = len(self._templates)
            snapshot["plan.capacity"] = self.max_plans
            snapshot["template.capacity"] = self.max_templates
        return snapshot

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._templates.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


def probe_plan(
    cache: PlanCache,
    identity: CacheIdentity,
    sql: str,
    fingerprint=None,
    prune_factor=None,
    ledger=None,
    metrics=None,
    count_miss: bool = True,
):
    """The hit path, whole — fingerprint -> identity -> plan-tier lookup
    -> tagged result — for ``Session.optimize`` and ``PlanServer`` both.

    Returns ``(result, fingerprint, key)``; ``result`` is ``None`` on a
    miss, which goes on with the other two.  A caller that already
    scanned the statement passes its ``fingerprint``.
    """
    if fingerprint is None:
        fingerprint = fingerprint_sql(sql)
    key = identity.key(fingerprint.template, prune_factor)
    epoch = ledger.stats_epoch if ledger is not None else None
    entry = cache.lookup_plan(
        key, fingerprint.params, ledger is not None, epoch, metrics, count_miss
    )
    return (None if entry is None else entry.tagged()), fingerprint, key
