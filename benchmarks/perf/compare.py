"""Spread of repeated runs and the A/B verdict later PRs quote.

A *run file* (written by ``run --out``) holds, per workload and
end-to-end metric, the list of values of its repetitions.  ``compare``
prints one row per workload x metric with both medians, both quartile
pairs, the metric's bound and a verdict:

* ``unresolved`` — either side's own spread (quartile distance over
  median) is wider than the bound: the runs cannot tell;
* ``worse`` / ``better`` — B's median is beyond A's by more than the bound,
  in the metric's bad / good direction;
* ``within`` — otherwise.

Every ratio is printed with its base (A's median).
"""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for a constant)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a, b, bound: float, better: str) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    change = (new - base) / abs(base) if base else 0.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def compare_rows(run_a: dict, run_b: dict, bounds: dict, directions: dict):
    """Yield one dict per workload x end-to-end metric present in both."""
    for workload, entry_a in run_a["workloads"].items():
        entry_b = run_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric, values_a in entry_a["end_to_end"].items():
            values_b = entry_b["end_to_end"].get(metric)
            if not values_b or metric not in bounds:
                continue
            qa, qb = quartiles(values_a), quartiles(values_b)
            yield {
                "workload": workload,
                "metric": metric,
                "a": qa,
                "b": qb,
                "ratio": qb[1] / qa[1] if qa[1] else float("nan"),
                "bound": bounds[metric],
                "verdict": verdict(values_a, values_b, bounds[metric], directions[metric]),
            }


def format_rows(rows) -> str:
    lines = [
        f"{'workload':<14} {'metric':<16} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'B/A':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        a = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["a"])
        b = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["b"])
        lines.append(
            f"{row['workload']:<14} {row['metric']:<16} {a:>34} {b:>34} "
            f"{row['ratio']:>7.3f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)
