"""Count pins for the paper's claims and the reproduction's ablations.

Every number here is exact: plan counts, operator counts, trace steps
and distinct sampled costs repeat bit for bit across runs and hosts,
where a timing does not.

* E5  — counting is linear in the memo: every operator is computed
  exactly once (Section 3.2).
* E6  — unranking is O(m): one trace step per operator of the plan
  (Section 3.3).
* E8  — small queries have degenerate spaces and a handful of distinct
  costs; join-intensive Q5 spans a continuum (Section 5).
* E11 — cost-bound pruning shrinks the space but keeps the optimum.
* E12 — index nested-loop joins widen the space and can only lower the
  best cost.
* E14 — dropping sorts over already-sorted inputs (the semantics the
  paper's Figure 3 annotations rule out) shrinks the space, identically
  on both engines.
"""

import pytest

from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.pruning import prune_memo
from repro.planspace.implicit import ImplicitPlanSpace
from repro.workloads.synthetic import chain_query, clique_query
from repro.workloads.tpch_queries import tpch_query
from tests.planspace.materialized import counting
from tests.planspace.materialized.links import materialize_links
from tests.planspace.materialized.space import PlanSpace

Q5_PLANS = 140_951_971_740_672

NATION_REGION = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)

SYNTHETIC = {
    "chain2": lambda: chain_query(2, rows=10),
    "chain5": lambda: chain_query(5, rows=10),
    "chain8": lambda: chain_query(8, rows=10),
    "clique3": lambda: clique_query(3, rows=10),
    "clique6": lambda: clique_query(6, rows=10),
}


def _optimize(catalog, sql, cross=False):
    return Optimizer(
        catalog, OptimizerOptions(allow_cross_products=cross)
    ).optimize_sql(sql)


# E5: memo operators; synthetic queries allow cross products (the largest memos)
@pytest.mark.parametrize(
    "name, cross, operators",
    [
        ("Q5", False, 508),
        ("Q5", True, 2_056),
        ("Q7", False, 509),
        ("Q7", True, 1_943),
        ("Q8", False, 805),
        pytest.param("Q8", True, 18_927, marks=pytest.mark.slow),
        ("Q9", False, 449),
        ("Q9", True, 1_822),
        ("chain2", True, 15),
        ("chain5", True, 564),
        pytest.param("chain8", True, 18_261, marks=pytest.mark.slow),
        ("clique3", True, 58),
        ("clique6", True, 2_541),
    ],
)
def test_counting_computes_each_operator_once(
    catalog, monkeypatch, name, cross, operators
):
    if name in SYNTHETIC:
        workload = SYNTHETIC[name]()
        result = _optimize(workload.catalog, workload.sql, cross)
    else:
        result = _optimize(catalog, tpch_query(name).sql, cross)
    space = materialize_links(result.memo, root_required=result.root_order)
    computed = []
    compute = counting._compute_node

    def counted(node):
        computed.append(node)
        compute(node)

    monkeypatch.setattr(counting, "_compute_node", counted)
    counting.annotate_counts(space)
    assert len(space.operators) == operators
    assert len(computed) == operators
    assert len({id(node) for node in computed}) == operators


# E6: 20 drawn ranks per query, each unranked one operator per step, pre-order
@pytest.mark.parametrize("name", ["Q5", "Q7", "Q8", "Q9"])
def test_unranking_takes_one_step_per_operator(catalog, name):
    space = PlanSpace.from_result(_optimize(catalog, tpch_query(name).sql))
    for rank in space.sample_ranks(20, seed=0):
        plan, trace = space.unrank_with_trace(rank)
        assert len(trace.steps) == plan.size()
        assert trace.operator_ids() == plan.operator_ids()


# E8: N and distinct scaled costs among 2,000 draws at seed 0
@pytest.mark.parametrize(
    "name, plans, distinct",
    [("Q6", 5, 3), ("nation-region", 120, 59), ("Q5", Q5_PLANS, 2_000)],
)
def test_small_queries_degenerate(cost_distribution, name, plans, distinct):
    sql = NATION_REGION if name == "nation-region" else None
    dist = cost_distribution(name, sql=sql)
    assert dist.total_plans == plans
    assert len(set(dist.scaled_costs)) == distinct
    assert dist.minimum() >= 1.0


# E11: Q5 pruned at a cost factor -> plans left, operators removed
@pytest.mark.parametrize(
    "factor, plans, removed",
    [
        (1.0, 1_244_160, 399),
        (1.5, 18_557_304_768, 280),
        (2.0, 95_877_556_224, 228),
        (5.0, 2_479_998_962_304, 192),
        (20.0, 11_461_118_856_960, 162),
    ],
)
def test_pruning_keeps_the_optimum(catalog, factor, plans, removed):
    result = _optimize(catalog, tpch_query("Q5").sql)
    assert PlanSpace.from_result(result).count() == Q5_PLANS
    assert prune_memo(result.memo, result.cost_model, factor=factor) == removed
    space = PlanSpace.from_result(result)
    assert space.count() == plans
    best = result.best_plan
    assert space.unrank(space.rank(best)).render() == best.render()
    assert result.cost_model.plan_cost(best) == result.best_cost


# E12: plans without -> with index nested-loop joins
@pytest.mark.parametrize(
    "name, without, with_index_joins",
    [
        ("Q3", 183_216, 197_436),
        ("Q5", Q5_PLANS, 163_830_567_957_672),
        ("Q9", 9_281_551_627_776, 11_627_000_376_216),
    ],
)
def test_index_nl_joins_widen_the_space(catalog, name, without, with_index_joins):
    sql = tpch_query(name).sql
    best_costs = []
    for enabled, plans in ((False, without), (True, with_index_joins)):
        options = OptimizerOptions(
            allow_cross_products=False,
            implementation=ImplementationConfig(enable_index_nl_join=enabled),
        )
        result = Optimizer(catalog, options).optimize_sql(sql)
        implicit = ImplicitPlanSpace.from_sql(catalog, sql, options=options)
        assert PlanSpace.from_result(result).count() == implicit.count() == plans
        best_costs.append(result.best_cost)
    assert best_costs[1] <= best_costs[0]


# E14: plans without redundant sorts
@pytest.mark.parametrize(
    "name, plans",
    [
        ("Q3", 109_184),
        ("Q5", 43_835_309_395_968),
        ("Q9", 2_749_623_598_272),
    ],
)
def test_strict_sort_semantics(catalog, name, plans):
    sql = tpch_query(name).sql
    result = _optimize(catalog, sql)
    strict = PlanSpace.from_result(result, include_redundant_sorts=False)
    implicit = ImplicitPlanSpace.from_sql(
        catalog,
        sql,
        options=OptimizerOptions(allow_cross_products=False),
        include_redundant_sorts=False,
    )
    assert strict.count() == implicit.count() == plans
    assert plans < PlanSpace.from_result(result).count()
