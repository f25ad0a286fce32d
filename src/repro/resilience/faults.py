"""Deterministic fault injection for resilience testing.

Production hot loops call :func:`fault_point` with a *site* name (e.g.
``"explore.batch"``).  In normal operation the call is two attribute
loads and a ``None`` compare — effectively free.  Under
:func:`inject`, a :class:`FaultInjector` counts hits per site and, on
the configured Nth hit, performs the configured action:

``raise``
    raise :class:`InjectedFault` (a plain ``RuntimeError`` subclass on
    purpose: production code must not special-case injected faults, so
    they must not be :class:`~repro.errors.ReproError`);
``delay``
    sleep ``delay_s`` seconds, then continue — models a stall, used to
    prove deadline checkpoints fire even when a phase goes slow;
``corrupt``
    call the site's ``context`` mutator (sites that support corruption
    pass a callable) — models in-flight state damage.

Everything is deterministic: hits are counted per site in call order,
no randomness, so a failing matrix case replays exactly.

The registry below (:data:`FAULT_SITES`) is the contract between the
production code and the test matrix: adding a ``fault_point`` to a hot
loop means adding its name here, and ``tests/resilience`` iterates the
registry so new sites are exercised automatically.

This module lives under ``repro.resilience`` (not ``repro.testing``) so
production modules can import it without dragging test helpers in;
``repro.testing.faults`` re-exports it as the public harness entry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
    "inject",
]

#: site name -> description.  The resilience test matrix iterates this.
FAULT_SITES: dict[str, str] = {
    "explore.batch": "per-subset group creation after the csg–cmp kernel",
    "implement.columnar": "per-group during columnar physical store build",
    "bestplan.layer": "per join layer / group in the columnar best-plan DP",
    "implicit.count": "per-phase inside implicit plan-space counting",
    "sampled.batch": "per-batch in the sampled optimizer loop",
    "execute.operator": "per-operator result in the plan executor",
}


class InjectedFault(RuntimeError):
    """Raised by a ``raise``-mode fault.  Deliberately *not* a
    ``ReproError``: resilience code paths must recover from arbitrary
    exceptions, not just the library's own taxonomy."""


@dataclass
class FaultSpec:
    """One armed fault: fire at ``site`` on the ``nth`` hit (1-based)."""

    site: str
    action: str = "raise"  # "raise" | "delay" | "corrupt"
    nth: int = 1
    delay_s: float = 0.0
    corrupt: Callable[[object], None] | None = None

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: "
                + ", ".join(sorted(FAULT_SITES))
            )
        if self.action not in ("raise", "delay", "corrupt"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.action == "corrupt" and self.corrupt is None:
            raise ValueError("corrupt action needs a corrupt callable")


@dataclass
class FaultInjector:
    """Counts fault-point hits and fires armed specs deterministically."""

    specs: tuple[FaultSpec, ...]
    hits: dict[str, int] = field(default_factory=dict)
    fired: list[str] = field(default_factory=list)

    def on_hit(self, site: str, context: object | None) -> None:
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        for spec in self.specs:
            if spec.site != site or spec.nth != count:
                continue
            self.fired.append(f"{site}#{count}:{spec.action}")
            if spec.action == "raise":
                raise InjectedFault(f"injected fault at {site} (hit {count})")
            if spec.action == "delay":
                time.sleep(spec.delay_s)
            elif spec.action == "corrupt" and context is not None:
                spec.corrupt(context)  # type: ignore[misc]


#: the currently armed injector; ``None`` in production (the fast path).
_ACTIVE: FaultInjector | None = None


def fault_point(site: str, context: object | None = None) -> None:
    """Production hook.  Free when no injector is armed."""
    injector = _ACTIVE
    if injector is not None:
        injector.on_hit(site, context)


@contextmanager
def inject(*specs: FaultSpec) -> Iterator[FaultInjector]:
    """Arm ``specs`` for the duration of the ``with`` block.

    Nested use is rejected — deterministic replay relies on a single
    counter stream.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault injection is already active")
    injector = FaultInjector(specs=tuple(specs))
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
