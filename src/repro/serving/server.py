"""The concurrent plan-serving front end.

A :class:`PlanServer` is what the cache exists for: many clients firing
statements at one database, most of them literal variants of a few
templates.  A request first probes the shared plan cache **on the
caller's thread** (:func:`~repro.serving.cache.probe_plan`, the hit path
``Session.optimize`` runs too): a hit needs no optimizer state, so it is
answered there, for the price of scanning its text.  Only misses (and
every call with arguments) cross to the thread pool, carrying the
fingerprint already computed.  Every worker thread
owns a private :class:`~repro.api.Session` (sessions are not
thread-safe); all share the read-only database, one thread-safe
:class:`~repro.serving.cache.PlanCache` and one cardinality ledger — a
plan cached by any worker serves every caller, and a feedback epoch bump
invalidates for all at once.  ``README.md`` has the threading contract.

A request's arguments pass through to ``Session.optimize`` unchanged,
which checks them; the server's ``deadline_s`` and ``on_budget`` only
fill in what the caller left out.  An exhaustive request's deadline
rides the resilience ladder, so an overloaded or pathological request
degrades (``result.resilience``) instead of stalling the pool, and the
cache tag (``result.cache``) reports how much work it actually did.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

from repro.obs.feedback import CardinalityLedger
from repro.optimizer.optimizer import OptimizerOptions
from repro.serving.cache import CacheIdentity, PlanCache, probe_plan

__all__ = ["PlanServer"]


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


class PlanServer:
    """Front end serving plans out of a shared cache: hits on the
    caller's thread, everything else on a pool of ``workers`` threads.

    ``cache`` is a :class:`PlanCache` to share (e.g. across servers),
    ``None`` for a private default-sized cache, or ``False`` to serve
    uncached (every request optimizes from scratch — the cold baseline
    the benchmark compares against).  ``deadline_s`` and ``on_budget``
    are defaults, used where a request gives none: the deadline applies
    to exhaustive requests only (a ``method="sampled"`` request takes
    ``budget_s``).  Every other argument passes through to
    ``Session.optimize``, which checks them.  Use as a context manager,
    or call :meth:`close`.
    """

    def __init__(
        self,
        database,
        options=None,
        workers: int = 8,
        cache=None,
        deadline_s: float | None = None,
        on_budget: str = "degrade",
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.database = database
        self.options = options if options is not None else OptimizerOptions()
        self.workers = workers
        # identity tests: an empty PlanCache is falsy (``__len__``)
        if cache is None:
            cache = PlanCache()
        self.cache = None if cache is False else cache
        self.deadline_s = deadline_s
        self.on_budget = on_budget
        #: one ledger shared by every worker session: feedback observed
        #: through any of them re-costs (and epoch-invalidates) for all
        self.ledger = CardinalityLedger()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._identity = CacheIdentity(database.catalog, self.options)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sessions: list = []
        self._served_inline = 0
        self._served_pooled = 0
        self._errors = 0
        self._latencies: deque = deque(maxlen=4096)
        self._closed = False

    # ------------------------------------------------------------------
    def _session(self):
        """This worker thread's private session (created on first use)."""
        session = getattr(self._local, "session", None)
        if session is None:
            from repro.api import Session

            session = Session(
                self.database, options=self.options, plan_cache=self.cache
            )
            session.ledger = self.ledger
            with self._lock:
                self._sessions.append(session)
            self._local.session = session
        return session

    def _serve(self, sql, kwargs):
        """One pooled request, on a worker thread: the caller's
        arguments over the server's defaults."""
        request = {"on_budget": self.on_budget, **kwargs}
        if (
            request.get("deadline_s") is None
            and request.get("method", "exhaustive") == "exhaustive"
        ):
            request["deadline_s"] = self.deadline_s
        start = time.perf_counter()
        try:
            result = self._session().optimize(sql, **request)
        except Exception:
            with self._lock:
                self._served_pooled += 1
                self._errors += 1
            raise
        elapsed = time.perf_counter() - start
        with self._lock:
            self._served_pooled += 1
            self._latencies.append(elapsed)
        return result

    def _route(self, sql: str, kwargs: dict):
        """``(result, None)`` for a plan-tier hit, answered here on the
        caller's thread, else ``(None, future)`` of the pooled request.
        Only a request with no arguments is probed here; the probe
        leaves its miss to the worker's own lookup (which may hit:
        another request's admit can land while this one queues)."""
        if self._closed:
            raise RuntimeError("PlanServer is closed")
        if not kwargs and self.cache is not None:
            start = time.perf_counter()
            result, fingerprint, _key = probe_plan(
                self.cache, self._identity, sql, count_miss=False
            )
            if result is not None:
                elapsed = time.perf_counter() - start
                with self._lock:
                    self._served_inline += 1
                    self._latencies.append(elapsed)
                return result, None
            kwargs = {"fingerprint": fingerprint}
        return None, self._pool.submit(self._serve, sql, kwargs)

    # ------------------------------------------------------------------
    def submit(self, sql: str, **kwargs) -> Future:
        """Enqueue one statement (``Session.optimize`` arguments pass
        through); the Future resolves to the optimization result
        (``result.cache`` / ``result.resilience`` report how it was
        served) and is already done on a plan-tier hit."""
        result, future = self._route(sql, kwargs)
        if future is None:
            future = Future()
            future.set_result(result)
        return future

    def optimize(self, sql: str, **kwargs):
        """Serve one statement synchronously (a hit never leaves the
        caller's thread)."""
        result, future = self._route(sql, kwargs)
        return result if future is None else future.result()

    def map(self, statements, **kwargs) -> list:
        """Serve a batch concurrently; results in submission order."""
        futures = [self.submit(sql, **kwargs) for sql in statements]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def observe_execution(self, stats, memo, universe) -> int:
        """Feed executor feedback into the shared ledger, then drop any
        cached plan the resulting stats-epoch move just invalidated.
        Returns the number of plan entries invalidated."""
        self.ledger.record_execution(stats, memo, universe)
        return self.invalidate_stale()

    def invalidate_stale(self) -> int:
        """Eagerly evict feedback-keyed plans from superseded epochs."""
        if self.cache is None:
            return 0
        return self.cache.invalidate_epoch(self.ledger.stats_epoch)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Request counters, latency percentiles, cache counters."""
        with self._lock:
            latencies = sorted(self._latencies)
            data = {
                "workers": self.workers,
                "requests": self._served_inline + self._served_pooled,
                "served_inline": self._served_inline,
                "served_pooled": self._served_pooled,
                "errors": self._errors,
                "sessions": len(self._sessions),
            }
        data["latency_p50_ms"] = _percentile(latencies, 0.50) * 1000.0
        data["latency_p99_ms"] = _percentile(latencies, 0.99) * 1000.0
        if self.cache is not None:
            data["cache"] = self.cache.stats()
        return data

    # ------------------------------------------------------------------
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
