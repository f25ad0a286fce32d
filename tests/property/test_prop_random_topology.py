"""Randomized-topology equivalence fuzzing.

The chain/star/clique/cycle sweeps pin the engines to four canonical
topologies; this suite drives the same equivalence obligations across
*seeded random connected join graphs* (:func:`repro.workloads.synthetic.
random_query`), so enumeration-order or cut-key bugs that only surface on
irregular shapes (asymmetric trees, partial cliques, bridged cycles)
cannot hide.  For every graph, in both cross-product modes:

* the default (columnar) engine and the object oracle of
  ``tests/reference_pipeline.py`` produce byte-identical memos (full
  render — group ids, expression order, local ids), identical best plans
  and costs;
* the implicit plan-space engine's exact ``N`` equals the materialized
  count over either memo;
* per-operator censuses agree across all three engines.

The n=8 sweeps run under ``-m slow``; the smoke tier keeps a spread of
sizes and densities below that.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.space import PlanSpace
from repro.workloads.synthetic import random_query
from tests.reference_pipeline import (
    assert_matches_reference,
    operator_census,
    optimize_reference,
)

# (n, edge_density, seed, allow_cross_products) — ~20 seeded topologies.
# Cross-product spaces grow like the clique's regardless of density, so
# they stay at n <= 5 in the smoke tier (same cap as the canonical
# sweeps); the no-cross cases sweep density from tree to clique.
FAST_CASES = [
    (4, 0.0, 0, False),
    (4, 0.6, 1, False),
    (5, 0.0, 2, False),
    (5, 0.3, 3, False),
    (5, 1.0, 4, False),
    (6, 0.0, 5, False),
    (6, 0.2, 6, False),
    (6, 0.4, 7, False),
    (6, 0.8, 8, False),
    (7, 0.0, 9, False),
    (7, 0.2, 10, False),
    (7, 0.5, 11, False),
    (4, 0.0, 12, True),
    (4, 0.5, 13, True),
    (4, 1.0, 14, True),
    (5, 0.0, 15, True),
    (5, 0.3, 16, True),
    (5, 0.7, 17, True),
]

SLOW_CASES = [
    (8, 0.0, 20, False),
    (8, 0.25, 21, False),
    (8, 0.5, 22, False),
    (8, 0.75, 23, False),
    (6, 0.4, 24, True),
    (7, 0.3, 25, True),
]


def _check_topology(n: int, density: float, seed: int, cross: bool) -> None:
    workload = random_query(n, edge_density=density, seed=seed, rows=5)
    tag = (workload.name, cross)
    options = OptimizerOptions(allow_cross_products=cross)

    batched = Session(workload.database, options=options).optimize(workload.sql)
    objectpath = optimize_reference(workload.catalog, workload.sql, options)
    assert batched.engine == "columnar", tag
    assert batched.memo.columnar_logical is not None, tag

    # Best plan byte-identical, same cost to the bit; counts answered
    # from the arrays before anything materializes; then — strongest of
    # all — the full memo dump, through the lazy facade.
    assert_matches_reference(batched, objectpath, tag)

    # Materialized plan-space totals over both memos, and the implicit
    # engine's N against them.
    total = PlanSpace.from_result(batched).count()
    assert PlanSpace.from_result(objectpath).count() == total, tag
    implicit = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=options
    )
    assert implicit.count() == total, tag

    # Per-operator censuses: columnar memo vs object memo, and the
    # implicit engine's virtual total vs the memo's.
    assert operator_census(batched.memo) == operator_census(objectpath.memo), tag
    assert (
        implicit.physical_operator_count()
        == batched.memo.physical_expression_count()
    ), tag


@pytest.mark.parametrize("n,density,seed,cross", FAST_CASES)
def test_random_topology_equivalence(n, density, seed, cross):
    _check_topology(n, density, seed, cross)


@pytest.mark.slow
@pytest.mark.parametrize("n,density,seed,cross", SLOW_CASES)
def test_random_topology_equivalence_large(n, density, seed, cross):
    _check_topology(n, density, seed, cross)
