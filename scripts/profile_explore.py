"""cProfile wrapper for the optimizer pipeline — the perf-PR measurement.

Profiles one ``Session.optimize`` call on a synthetic workload and prints
the top functions by cumulative time, so that future performance PRs can
reproduce the measurements this PR's numbers were taken with::

    PYTHONPATH=src python scripts/profile_explore.py                 # star 12
    PYTHONPATH=src python scripts/profile_explore.py --shape clique --n 10
    PYTHONPATH=src python scripts/profile_explore.py --cross --sort tottime
    PYTHONPATH=src python scripts/profile_explore.py --shape clique --n 12 --count-only

It also prints the per-phase wall timings (un-profiled, best of
``--repeat`` runs), read off the observability layer's span tree
(``repro.obs``): every mode runs traced and reports the root span's
direct children, so the phase split here and the output of
``repro trace`` are the same measurement by construction — cProfile
inflates everything several-fold, so treat the profile as *where* the
time goes and the span timings as *how much* time there is.

``--count-only`` profiles the implicit plan-space pipeline instead of the
full optimizer: layout simulation + analytic counting, no physical memo.
Its numbers are directly comparable to the default mode's (same workload
construction, same best-of-N protocol), which is how the implicit
engine's headline wins are measured.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from repro.api import Session
from repro.obs import Span, Tracer, tracing
from repro.optimizer.optimizer import OptimizerOptions
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)

WORKLOADS = {
    "chain": chain_query,
    "star": star_query,
    "clique": clique_query,
    "cycle": cycle_query,
}


def _phase_line(root: Span) -> str:
    """One line of ``phase elapsed`` pairs from the root's children.

    The fused implement+bestplan pass keeps its sub-phases as children of
    a ``fused`` span; flatten those so the report has one column per
    phase."""
    parts = []
    for child in root.children:
        if child.name == "fused" and child.children:
            parts.extend(
                (sub.name, sub.elapsed_s) for sub in child.children
            )
        else:
            parts.append((child.name, child.elapsed_s))
    return "  ".join(f"{name} {seconds:.4f}s" for name, seconds in parts)


def _best_of(run, repeat: int) -> tuple[object, Span]:
    """Run ``run`` (returning ``(outcome, root span)``) ``repeat`` times;
    keep the outcome of the last run and the span tree of the fastest."""
    best_root = None
    outcome = None
    for _ in range(repeat):
        outcome, root = run()
        if best_root is None or root.elapsed_s < best_root.elapsed_s:
            best_root = root
    return outcome, best_root


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(WORKLOADS), default="star")
    parser.add_argument("--n", type=int, default=12)
    parser.add_argument("--cross", action="store_true")
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--sort", choices=["cumulative", "tottime"], default="cumulative"
    )
    parser.add_argument(
        "--count-only",
        action="store_true",
        help="profile the implicit (count-only) pipeline instead of the "
        "full optimizer",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.shape](args.n, rows=5, seed=0)
    options = OptimizerOptions(allow_cross_products=args.cross)
    session = Session(workload.database, options=options)

    mode = " count-only" if args.count_only else ""
    if args.count_only:
        from repro.planspace.implicit import ImplicitPlanSpace

        def run():
            tracer = Tracer()
            with tracing(tracer), tracer.span("count"):
                space = ImplicitPlanSpace.from_sql(
                    workload.catalog, workload.sql, options=options
                )
            return space, tracer.root

        def summarize(space):
            return (
                f"implicit space: {space.group_count()} groups, "
                f"{space.physical_operator_count()} virtual physical "
                f"operators, N = {space.count():,}\n"
            )

    else:

        def run():
            result = session.optimize(workload.sql, trace=True)
            return result, result.trace

        def summarize(result):
            return (
                f"memo: {len(result.memo.groups)} groups, "
                f"{result.memo.expression_count()} expressions\n"
            )

    # Un-profiled span timings first (best of N; the root span's children
    # are the per-phase split).
    outcome, root = _best_of(run, args.repeat)
    print(
        f"{workload.name} cross={'on' if args.cross else 'off'}{mode}: "
        f"total {root.elapsed_s:.4f}s  {_phase_line(root)}"
    )
    print(summarize(outcome))

    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
