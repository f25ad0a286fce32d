"""A lightweight metrics registry: counters, gauges, histograms.

One :class:`Metrics` instance belongs to one :class:`~repro.api.Session`
(a fresh session starts from a clean registry; :meth:`Metrics.reset`
clears one in place).  It is fed from two directions:

* **hot-loop counters** arrive through the resilience layer's existing
  ``BudgetScope.checkpoint(site, units)`` calls — the same sites
  the fault-injection registry (:data:`repro.resilience.faults.FAULT_SITES`)
  names.  A metrics-observing scope turns each checkpoint into
  ``<site>.polls`` (+1) and ``<site>.units`` (+units) counters, so
  expression emission, batch counts and checkpoint cadence fall out of
  instrumentation the loops already carry, with zero new code in them;
* **phase-level facts** (memo group/expression gauges, sampler draws,
  degradation triggers, executor row counts) are set explicitly by the
  orchestration layers when observation is enabled.

Histograms are summary-only (count/sum/min/max) — enough to answer
"how big do batches run" without bucket configuration.

Everything here is plain dicts and floats; :meth:`snapshot` is
JSON-ready.
"""

from __future__ import annotations

__all__ = ["Metrics"]


class Metrics:
    """Counters, gauges and summary histograms under dotted names."""

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: int | float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: int | float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: int | float) -> None:
        summary = self._histograms.get(name)
        if summary is None:
            self._histograms[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
            return
        summary["count"] += 1
        summary["sum"] += value
        if value < summary["min"]:
            summary["min"] = value
        if value > summary["max"]:
            summary["max"] = value

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> dict[str, float] | None:
        summary = self._histograms.get(name)
        return dict(summary) if summary is not None else None

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # ------------------------------------------------------------------
    def record_checkpoint(self, site: str, units: int = 0) -> None:
        """The ``BudgetScope`` observer hook: one checkpoint poll at
        ``site`` accounting ``units`` work items (the same unit the
        budget's expression ceiling counts)."""
        counters = self._counters
        counters["checkpoint.polls"] = counters.get("checkpoint.polls", 0) + 1
        key = site + ".polls"
        counters[key] = counters.get(key, 0) + 1
        if units:
            key = site + ".units"
            counters[key] = counters.get(key, 0) + units

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready view: ``{"counters", "gauges", "histograms"}``."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: dict(v) for k, v in self._histograms.items()},
        }

    def reset(self) -> None:
        """Clear every series (sessions reuse one registry across calls;
        tests reset between cases)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text exposition (format 0.0.4) of the registry.

        Dotted series names become underscore-separated metric names
        under ``prefix``; counters carry the conventional ``_total``
        suffix, histograms are exposed summary-style (``_count`` /
        ``_sum``, plus ``_min``/``_max`` gauges — the registry keeps no
        quantiles).  Deterministic: series are sorted by name.
        """

        def metric(name: str) -> str:
            return prefix + "_" + name.replace(".", "_").replace("-", "_")

        lines: list[str] = []
        for name in sorted(self._counters):
            m = metric(name) + "_total"
            lines.append(f"# TYPE {m} counter")
            lines.append(f"{m} {self._counters[name]:g}")
        for name in sorted(self._gauges):
            m = metric(name)
            lines.append(f"# TYPE {m} gauge")
            lines.append(f"{m} {self._gauges[name]:g}")
        for name in sorted(self._histograms):
            s = self._histograms[name]
            m = metric(name)
            lines.append(f"# TYPE {m} summary")
            lines.append(f"{m}_count {s['count']:g}")
            lines.append(f"{m}_sum {s['sum']:g}")
            for bound in ("min", "max"):
                lines.append(f"# TYPE {m}_{bound} gauge")
                lines.append(f"{m}_{bound} {s[bound]:g}")
        return "\n".join(lines) + "\n" if lines else ""

    def render(self) -> str:
        lines = []
        if self._counters:
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(f"  {name} = {self._counters[name]:g}")
        if self._gauges:
            lines.append("gauges:")
            for name in sorted(self._gauges):
                lines.append(f"  {name} = {self._gauges[name]:g}")
        if self._histograms:
            lines.append("histograms:")
            for name in sorted(self._histograms):
                s = self._histograms[name]
                lines.append(
                    f"  {name}: count={s['count']:g} sum={s['sum']:g} "
                    f"min={s['min']:g} max={s['max']:g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
