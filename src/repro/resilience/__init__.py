"""Deadline-aware resilient optimization.

Public surface:

* :mod:`repro.resilience.budget` — :class:`Budget`,
  :class:`CancellationToken`, :class:`BudgetScope`, shared budget
  argument validators;
* :mod:`repro.resilience.faults` — deterministic fault injection
  (:func:`fault_point`, :func:`inject`, the :data:`FAULT_SITES`
  registry);
* :mod:`repro.resilience.degrade` — the degradation ladder
  (:func:`optimize_resilient`, :class:`DegradationPolicy`,
  :class:`ResilienceReport`);
* :mod:`repro.resilience.heuristic` — the greedy join order last-resort
  tier (:func:`optimize_heuristic`).

``degrade`` and ``heuristic`` import the optimizer stack, which itself
imports this package for :func:`fault_point` — so they are exposed
lazily here rather than at import time.
"""

from __future__ import annotations

from repro.resilience.budget import (
    Budget,
    BudgetScope,
    CancellationToken,
    validate_budget_s,
    validate_samples,
)
from repro.resilience.faults import (
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    fault_point,
    inject,
)

__all__ = [
    "Budget",
    "BudgetScope",
    "CancellationToken",
    "DegradationPolicy",
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "ResilienceReport",
    "fault_point",
    "inject",
    "optimize_heuristic",
    "optimize_resilient",
    "validate_budget_s",
    "validate_samples",
]

_LAZY = {
    "DegradationPolicy": "repro.resilience.degrade",
    "ResilienceReport": "repro.resilience.degrade",
    "optimize_resilient": "repro.resilience.degrade",
    "optimize_heuristic": "repro.resilience.heuristic",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
