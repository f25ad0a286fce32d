"""Equivalence of the implicit plan-space engine against the
materialized pipeline.

The implicit engine (:mod:`repro.planspace.implicit`) promises the
*numerically and structurally identical* plan space as the materialized
path — same total ``N``, same per-operator counts ``N(v)``, same
rank -> plan bijection (down to the memo's ``group.local`` identifiers),
same sampled rank streams — computed without ever creating a physical
``GroupExpr``.  These sweeps assert exactly that over chain/star/clique/
cycle shapes in both cross-product modes (the count pass itself is
diffed against the per-pair oracle in ``tests/planspace/test_counting.py``):

* ``N`` and the virtual physical-operator census match the memo;
* every group's implicit operator table matches the materialized linked
  space row for row: local id, operator identity, and count ``N(v)``;
* sampled ranks round-trip (``rank(unrank(r)) == r``) and unrank to
  byte-identical plans in both engines;
* the shared-seed sampler contract holds across engines.

Smaller sizes run in the smoke tier; the n in {7, 8} sweeps are marked
``slow`` (run with ``pytest -m slow`` or ``-m ""``).
"""

from __future__ import annotations

import random

import pytest

from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    star_query,
)
from tests.planspace.materialized.space import PlanSpace

SHAPES = {
    "chain": chain_query,
    "star": star_query,
    "clique": clique_query,
    "cycle": cycle_query,
}

FAST_CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (3, 4, 5, 6)
    for cross in (False, True)
    if not (shape == "clique" and cross and n > 5)  # keep the smoke tier quick
]

SLOW_CASES = [
    (shape, n, cross)
    for shape in SHAPES
    for n in (7, 8)
    for cross in (False, True)
]

SAMPLED_RANKS = 25


def _check_equivalence(shape: str, n: int, allow_cross: bool) -> None:
    workload = SHAPES[shape](n, rows=5, seed=0)
    options = OptimizerOptions(allow_cross_products=allow_cross)
    result = Optimizer(workload.catalog, options).optimize_sql(workload.sql)
    materialized = PlanSpace.from_result(result)

    implicit = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=options
    )
    tag = (shape, n, allow_cross)

    # space totals and the operator census
    total = materialized.count()
    assert implicit.count() == total, tag
    assert (
        implicit.physical_operator_count()
        == result.memo.physical_expression_count()
    ), tag

    # per-group, per-operator counts: the implicit tables must match
    # the materialized linked space row for row
    tables = implicit.unranker.tables
    for group in result.memo.groups:
        table = tables.table(group.gid)
        physical = group.physical_exprs()
        assert len(table.counts) == len(physical), (tag, group.gid)
        for expr in physical:
            linked = materialized.linked.operators[
                (group.gid, expr.local_id)
            ]
            row = table.row_by_local(expr.local_id)
            assert row.local_id == expr.local_id, (tag, expr.id_str)
            assert row.count == linked.count, (tag, expr.id_str)
            op = tables.operator(group.gid, row)
            assert op.key() == expr.op.key(), (tag, expr.id_str)

    # rank -> plan bijection on a sampled rank set (plus both ends)
    rng = random.Random(f"{shape}/{n}/{allow_cross}")
    ranks = sorted(
        {0, total - 1, *(rng.randrange(total) for _ in range(SAMPLED_RANKS))}
    )
    cost_model = result.cost_model
    for rank in ranks:
        mat_plan = materialized.unrank(rank)
        imp_plan = implicit.unrank(rank)
        assert imp_plan.fingerprint() == mat_plan.fingerprint(), (tag, rank)
        assert imp_plan.render() == mat_plan.render(), (tag, rank)
        assert implicit.rank(imp_plan) == rank, (tag, rank)
        assert materialized.rank(imp_plan) == rank, (tag, rank)
        # cardinality parity: both engines annotate every node with
        # the same real estimate (never a 0.0 placeholder), so both
        # plans price identically under one cost model
        for imp_node, mat_node in zip(
            imp_plan.iter_nodes(), mat_plan.iter_nodes()
        ):
            assert imp_node.cardinality == pytest.approx(
                mat_node.cardinality, rel=1e-12
            ), (tag, rank, imp_node.expr_id)
            assert mat_node.cardinality > 0.0, (tag, rank)
        assert cost_model.plan_cost(imp_plan) == pytest.approx(
            cost_model.plan_cost(mat_plan), rel=1e-12
        ), (tag, rank)

    # shared-seed sampler contract
    assert materialized.sample_ranks(40, seed=7) == implicit.sample_ranks(
        40, seed=7
    ), tag


@pytest.mark.parametrize("shape,n,cross", FAST_CASES)
def test_implicit_equivalence(shape, n, cross):
    _check_equivalence(shape, n, cross)


@pytest.mark.slow
@pytest.mark.parametrize("shape,n,cross", SLOW_CASES)
def test_implicit_equivalence_slow(shape, n, cross):
    _check_equivalence(shape, n, cross)
