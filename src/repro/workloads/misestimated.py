"""Misestimation workloads: queries whose first plan pick is wrong.

The execution-feedback loop (:mod:`repro.obs.feedback`) only matters
when static statistics mislead the optimizer, so its tests and the CI
feedback smoke run where they deliberately do: the TPC-H micro database
with catalog statistics skewed by :func:`corrupt_statistics` *after*
data generation.  The data itself is untouched — execution still returns
the true rows — so every instrumented run feeds the ledger actuals that
contradict the catalog, and feedback-driven re-costing has something
real to correct.

The skew is multiplicative and per-table (row counts and distinct
counts scaled together, keeping per-row selectivities consistent),
drawn deterministically from a seed: the same ``(workload, seed,
factor)`` triple always produces the same wrong statistics, the same
wrong first plan, and the same recovery trajectory.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import ColumnStats, TableStats
from repro.storage.database import Database
from repro.storage.datagen import generate_tpch
from repro.util.rng import make_rng

__all__ = ["corrupt_statistics", "misestimated_tpch"]


def corrupt_statistics(
    catalog: Catalog,
    tables: list[str] | None = None,
    seed: int = 0,
    factor: float = 64.0,
) -> dict[str, float]:
    """Skew ``catalog``'s statistics so join ordering goes wrong.

    Every table's row count and per-column distinct counts are scaled
    by a seeded per-table factor in ``[1, factor]`` (inflation only:
    deflated statistics make *unobserved* subplans look falsely cheap,
    which turns the feedback loop into a worst-case exploration problem
    rather than a convergence demo).  Because the factors differ per
    table, the *relative* sizes — what join ordering actually ranks on
    — are shuffled, not just the absolute scale.  Returns the applied
    ``{table: factor}`` map for reporting.
    """
    names = sorted(tables if tables is not None else catalog.table_names())
    rng = make_rng(("misestimate", seed, factor))
    applied: dict[str, float] = {}
    for name in names:
        stats = catalog.table_stats(name)
        scale = factor ** rng.random()
        applied[name] = scale
        new_rows = max(1, int(stats.row_count * scale))
        columns = {
            cname: ColumnStats(
                distinct=max(1, min(new_rows, int(col.distinct * scale))),
                lo=col.lo,
                hi=col.hi,
                null_fraction=col.null_fraction,
            )
            for cname, col in stats.columns.items()
        }
        catalog.set_stats(name, TableStats(row_count=new_rows, columns=columns))
    return applied


def misestimated_tpch(seed: int = 0, factor: float = 64.0) -> Database:
    """The micro TPC-H database with seeded-lie statistics.

    Data generation uses the *correct* statistics (the generator sizes
    tables off the catalog), and only then are the statistics skewed —
    so executions observe the honest micro-database cardinalities while
    the optimizer plans against the lies.
    """
    database = generate_tpch(seed=seed)
    corrupt_statistics(database.catalog, seed=seed, factor=factor)
    return database
