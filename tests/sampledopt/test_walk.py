"""The sampled optimizer's one walk per drawn rank against the old path.

``FragmentPool.add_ranks`` walks each rank once
(``ImplicitUnranker.descend``), pooling its rows and summing their local
costs; the oracle (``tests/sampledopt/reference_costing.py``) unranks
each rank into a ``PlanNode`` tree, prices the batch with
``CostModel.plan_costs`` and pools the trees with ``add_plan``.  Costs
must agree as exact floats, the pools in their insertion order (``solve``
breaks ties by it), and whole optimize results byte for byte — over
every shape and every option that changes which join rows exist or
what kind they are.
"""

from __future__ import annotations

import functools

import pytest

from repro.catalog.tpch import tpch_catalog
from repro.errors import RankOutOfRangeError
from repro.obs.trace import Tracer, tracing
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.planspace.implicit.space import ImplicitPlanSpace
from repro.planspace.implicit.tables import JOIN_KINDS
from repro.sampledopt import search
from repro.sampledopt.costing import SampledPlanCoster
from repro.sampledopt.search import FIRST_TOUCH, FragmentPool, SampledOptimizer
from repro.sampledopt.strata import StratifiedSampler
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    cycle_query,
    random_query,
    star_query,
)
from repro.workloads.tpch_queries import tpch_query
from tests.sampledopt.reference_costing import ReferencePlanCoster, ReferencePool


def _synthetic(build):
    def make():
        workload = build()
        return workload.catalog, workload.sql

    return make


@functools.cache
def _tpch_catalog():
    return tpch_catalog(scale_factor=1.0)


def _tpch(name):
    return lambda: (_tpch_catalog(), tpch_query(name).sql)


SHAPES = {
    "chain5": _synthetic(lambda: chain_query(5, rows=5, seed=0)),
    "star5": _synthetic(lambda: star_query(5, rows=5, seed=0)),
    "cycle5": _synthetic(lambda: cycle_query(5, rows=5, seed=0)),
    "clique5": _synthetic(lambda: clique_query(5, rows=5, seed=0)),
    "dense6": _synthetic(lambda: random_query(6, edge_density=0.5, rows=5)),
    "Q5": _tpch("Q5"),
    "Q9": _tpch("Q9"),
}


def _config(**flags):
    return OptimizerOptions(implementation=ImplementationConfig(**flags))


#: name -> (options, include_redundant_sorts); the last three change
#: which join kinds a row can have, or which rows an enforcer ranges over
VARIANTS = {
    "default": (OptimizerOptions(), True),
    "cross": (OptimizerOptions(allow_cross_products=True), True),
    "index-nl": (_config(enable_index_nl_join=True), True),
    "no-nlj": (_config(enable_nested_loop_join=False), True),
    "no-hash": (_config(enable_hash_join=False), True),
    "no-sorts": (_config(enable_sort_enforcers=False), True),
    "no-redundant-sorts": (OptimizerOptions(), False),
}

SAMPLES = 24


def _space(catalog, sql, options, redundant):
    return ImplicitPlanSpace.from_sql(
        catalog, sql, options=options, include_redundant_sorts=redundant
    )


def _pool_layout(pool):
    """The pool's contexts and rows, in insertion order, minus operators
    (the oracle's rows carry theirs, the walk's need none)."""
    return [
        (
            ctx,
            [
                (local, row.kind, row.payload, row.count, row.slots, row.prefix)
                for local, row in rows.items()
            ],
        )
        for ctx, rows in pool.fragments.items()
    ]


def _result(result):
    return (
        repr(result.best_cost),
        result.best_sampled_cost,
        result.best_sampled_rank,
        result.best_plan.render(),
    )


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("shape", list(SHAPES))
def test_walk_matches_the_assembled_plans(shape, variant, monkeypatch):
    catalog, sql = SHAPES[shape]()
    options, redundant = VARIANTS[variant]
    walked = _space(catalog, sql, options, redundant)
    oracle = _space(catalog, sql, options, redundant)
    pool = FragmentPool(
        walked, SampledPlanCoster(catalog, walked, options.cost_params)
    )
    reference = ReferencePool(
        oracle, ReferencePlanCoster(catalog, oracle, options.cost_params)
    )
    uniform = walked.sample_ranks(SAMPLES, seed=3)
    stratified = StratifiedSampler(walked, seed=3).sample_ranks(SAMPLES)
    for ranks in (uniform, stratified):
        costs = pool.add_ranks(ranks)
        assert costs == reference.add_ranks(ranks)
        assert costs == [
            reference.coster.cost_model.plan_cost(oracle.unrank(rank))
            for rank in ranks
        ]
        assert _pool_layout(pool) == _pool_layout(reference)
        (cost, choice), (expected, expected_choice) = pool.solve(), reference.solve()
        assert (cost, choice) == (expected, expected_choice)
    assert pool.assemble(choice).render() == reference.assemble(choice).render()

    # whole optimize calls: the one walk, then the old loop (a space's
    # caches hold no result, so each side reuses its space)
    def optimize(space, stratified):
        return _result(
            SampledOptimizer(catalog, options).optimize_sql(
                sql,
                samples=SAMPLES,
                batch_size=SAMPLES // 2,
                seed=7,
                stratified=stratified,
                space=space,
            )
        )

    walks = [optimize(walked, stratified) for stratified in (True, False)]
    monkeypatch.setattr(search, "SampledPlanCoster", ReferencePlanCoster)
    monkeypatch.setattr(search, "FragmentPool", ReferencePool)
    assert walks == [optimize(oracle, stratified) for stratified in (True, False)]


def test_descend_checks_the_rank_range():
    workload = chain_query(4, rows=5, seed=0)
    space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
    pool = FragmentPool(space, SampledPlanCoster(workload.catalog, space))
    for rank in (-1, space.count()):
        with pytest.raises(RankOutOfRangeError):
            space.unrank(rank)
        with pytest.raises(RankOutOfRangeError):
            pool.add_ranks([rank])
    assert pool.fragments == {}


#: (tables, candidate_lists, rows_built, distinct join pairs among the
#: rows built, scan operators) after a 100-sample request at seed 0.
#: Pricing join and sort rows without operators leaves the first three as
#: assembling every drawn plan had them; the fourth is how many join
#: pairs assembling every drawn plan builds operators for.  The scans are
#: every leaf's, built in the operator cache when the space was counted;
#: sampling builds no operator (pricing sort rows through their
#: operators built 1,058 and 908 ``Sort``s more)
FIRST_TOUCH_PINS = {
    "dense10": (218, 461, 1765, 517, 50),
    "clique8": (126, 266, 1457, 375, 44),
}


@pytest.mark.parametrize(
    "name, build",
    [
        ("dense10", lambda: random_query(10, edge_density=21 / 36, rows=5)),
        ("clique8", lambda: clique_query(8, rows=5)),
    ],
)
def test_join_operators_are_built_for_the_returned_plan_only(name, build):
    workload = build()
    space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql)
    with tracing(Tracer()) as tracer:
        result = SampledOptimizer(workload.catalog).optimize_sql(
            workload.sql, samples=100, seed=0, space=space
        )
    tables = space.unranker.tables
    operators = space.state.operators
    layout = space.state.layout
    drawn_pairs = {
        row.payload[:2]
        for table in tables._tables.values()
        for row in table._rows.values()
        if row.kind in JOIN_KINDS
    }
    scans = sum(
        len(ops)
        for gid, ops in operators._groups.items()
        if layout.group(gid).kind == "leaf"
    )
    assert (
        tables.tables,
        tables.candidate_lists,
        tables.rows_built,
        len(drawn_pairs),
        scans,
    ) == FIRST_TOUCH_PINS[name]
    plan_pairs = set()
    plan_sorts = set()
    for node in result.best_plan.iter_nodes():
        row = tables.table(node.group_id).row_by_local(node.local_id)
        if row.kind in JOIN_KINDS:
            plan_pairs.add(row.payload[:2])
        elif row.kind == "sort":
            plan_sorts.add(row.payload[0])
    assert len(plan_pairs) == workload.relations - 1
    assert set(operators._joins) == plan_pairs
    assert set(operators._sorts) == plan_sorts
    # the trace splits the count: the space built every leaf's scans and
    # tower group's operators, sampling builds none, the assembly the
    # returned plan's join and sort operators
    spans = {span.name: span.counters for span in tracer.roots}
    join_ops = sum(len(ops) for ops in operators._joins.values())
    group_ops = sum(len(ops) for ops in operators._groups.values())
    assert set(operators._groups) == {
        group.gid for group in layout.groups if group.kind != "join"
    }
    assert spans["assemble"]["operators_built"] == join_ops + len(plan_sorts)
    assert spans["sample"]["operators_built"] == 0
    assert spans["strata"]["operators_built"] == 0
    assert group_ops + join_ops + len(plan_sorts) == tables.operators_built
    assert [
        spans["strata"][name] + spans["sample"][name] for name in FIRST_TOUCH[:3]
    ] == [tables.tables, tables.candidate_lists, tables.rows_built]
