"""The sampled optimizer: recombination, stopping, determinism."""

import sys

import pytest

from repro.executor.executor import PlanExecutor
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.plan import PlanNode
from repro.planspace.implicit import ImplicitPlanSpace
from repro.sampledopt import (
    FixedSamples,
    FragmentPool,
    QuantileTarget,
    SampledOptimizer,
    SampledPlanCoster,
)
from repro.testing import canonical_result
from repro.workloads.synthetic import (
    chain_query,
    clique_query,
    random_query,
    star_query,
)


@pytest.fixture(scope="module")
def chain3():
    return chain_query(3, rows=5, seed=0)


@pytest.fixture(scope="module")
def chain3_optimum(chain3):
    return Optimizer(chain3.catalog, OptimizerOptions()).optimize_sql(chain3.sql)


class TestRecombinationExactness:
    def test_full_coverage_recovers_the_true_optimum(
        self, chain3, chain3_optimum
    ):
        """Sampling enough to cover the space, the recombination DP must
        find exactly the materialized optimizer's best cost: the DP over
        all fragments *is* the memo's best-plan search."""
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=4000, batch_size=1000
        )
        assert result.best_cost == pytest.approx(
            chain3_optimum.best_cost, rel=1e-12
        )

    def test_recombined_never_worse_than_best_sampled(self, chain3):
        for seed in range(3):
            result = SampledOptimizer(chain3.catalog).optimize_sql(
                chain3.sql, samples=40, seed=seed
            )
            assert result.best_cost <= result.best_sampled_cost + 1e-9

    def test_never_better_than_true_optimum(self, chain3, chain3_optimum):
        for seed in range(3):
            result = SampledOptimizer(chain3.catalog).optimize_sql(
                chain3.sql, samples=40, seed=seed
            )
            assert result.best_cost >= chain3_optimum.best_cost - 1e-9

    def test_plan_cost_matches_reported_cost(self, chain3):
        """The DP's cost and the assembled plan's CostModel price agree."""
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=60, seed=1
        )
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        coster = SampledPlanCoster(chain3.catalog, space)
        assert coster.cost(result.best_plan) == pytest.approx(
            result.best_cost, rel=1e-12
        )

    def test_best_plan_belongs_to_the_space(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=60, seed=2
        )
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        rank = space.rank(result.best_plan)
        assert space.unrank(rank).fingerprint() == result.best_plan.fingerprint()

    def test_sampled_plan_executes_like_the_optimum(
        self, chain3, chain3_optimum
    ):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=30, seed=0
        )
        executor = PlanExecutor(chain3.database)
        sampled = executor.execute(result.best_plan)
        exhaustive = executor.execute(chain3_optimum.best_plan)
        assert canonical_result(
            sampled.columns, sampled.rows
        ) == canonical_result(exhaustive.columns, exhaustive.rows)


class TestFragmentPool:
    def test_pool_grows_monotonically_and_solve_improves(self, chain3):
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        coster = SampledPlanCoster(chain3.catalog, space)
        pool = FragmentPool(space, coster)
        plans = space.sample(40, seed=5)
        previous = float("inf")
        for i, plan in enumerate(plans):
            pool.add_plan(plan)
            cost, choice = pool.solve()
            assert cost <= previous + 1e-9  # monotone in the pool
            previous = cost
        assembled = pool.assemble(choice)
        assert coster.cost(assembled) == pytest.approx(cost, rel=1e-12)

    def test_single_plan_pool_reproduces_that_plan(self, chain3):
        space = ImplicitPlanSpace.from_sql(
            chain3.catalog, chain3.sql, options=OptimizerOptions()
        )
        coster = SampledPlanCoster(chain3.catalog, space)
        pool = FragmentPool(space, coster)
        plan = space.unrank(123)
        pool.add_plan(plan)
        cost, choice = pool.solve()
        assert cost == pytest.approx(coster.cost(plan), rel=1e-12)
        assert pool.assemble(choice).fingerprint() == plan.fingerprint()


def _assemble_recursive(pool, choice):
    """``FragmentPool.assemble`` as a recursive closure — the reference
    the explicit-stack walk must reproduce (and, being a closure that
    refers to itself and to the pool, the shape that used to pin every
    request's space until the cycle collector ran)."""
    tables = pool.tables

    def build(ctx):
        gid = ctx[0]
        row = pool.fragments[ctx][choice[ctx]]
        children = tuple(build(slot) for slot in row.slots)
        return PlanNode(
            op=tables.operator(gid, row),
            children=children,
            group_id=gid,
            local_id=choice[ctx],
            cardinality=tables.cardinality(gid),
        )

    return build(pool.root_ctx)


def _pool_of(workload, plans):
    space = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=OptimizerOptions()
    )
    pool = FragmentPool(space, SampledPlanCoster(workload.catalog, space))
    for plan in plans(space):
        pool.add_plan(plan)
    return pool


class TestIterativeAssemble:
    @pytest.mark.parametrize(
        "workload",
        [
            pytest.param(lambda: chain_query(3, rows=5, seed=0), id="chain3"),
            pytest.param(lambda: star_query(6, rows=5, seed=0), id="star6"),
            pytest.param(lambda: clique_query(6, rows=5, seed=0), id="clique6"),
            *(
                pytest.param(
                    lambda d=density, s=seed: random_query(
                        6, edge_density=d, seed=s, rows=5
                    ),
                    id=f"random6-{density}-{seed}",
                )
                for density, seed in [(0.0, 1), (0.4, 2), (0.8, 3)]
            ),
        ],
    )
    def test_same_plan_as_the_recursive_reference(self, workload):
        pool = _pool_of(workload(), lambda space: space.sample(80, seed=4))
        _cost, choice = pool.solve()
        plan = pool.assemble(choice)
        reference = _assemble_recursive(pool, choice)
        assert plan.render() == reference.render()
        assert plan.operator_ids() == reference.operator_ids()
        assert plan == reference  # ops, ids and cardinalities, node for node

    def test_depth_is_not_bounded_by_the_interpreter_stack(self):
        """A 24-relation chain plan is deeper than the frames left under
        the recursion limit: the walk does not care, recursion does."""
        pool = _pool_of(
            chain_query(24, rows=5, seed=0),
            lambda space: [max(space.sample(20, seed=0), key=PlanNode.depth)],
        )
        _cost, choice = pool.solve()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 30)
        try:
            plan = pool.assemble(choice)
            with pytest.raises(RecursionError):
                _assemble_recursive(pool, choice)
        finally:
            sys.setrecursionlimit(limit)
        assert plan.operator_ids() == _assemble_recursive(pool, choice).operator_ids()


class TestDriverLoop:
    def test_seed_determinism(self, chain3):
        a = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, seed=9
        )
        b = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, seed=9
        )
        assert a.best_cost == b.best_cost
        assert a.best_plan.render() == b.best_plan.render()
        assert [p.best_cost for p in a.history] == [
            p.best_cost for p in b.history
        ]

    def test_fixed_rule_draws_exactly_k(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=70, batch_size=32
        )
        assert result.samples == 70  # 32 + 32 + 6
        assert result.batches == 3
        assert result.stopped_because == "rule"

    def test_quantile_rule_sets_the_budget(self, chain3):
        rule = QuantileTarget(quantile=0.05, confidence=0.9)
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, rule=rule, batch_size=16
        )
        assert result.samples >= rule.required_samples
        assert result.stopped_because == "rule"
        # the rule forces the i.i.d. uniform stream, so the certificate
        # exists, at the rule's own confidence
        assert not result.stratified
        assert result.confidence == 0.9
        assert result.quantile_certificate() <= 0.05 + 1e-9
        assert "90% confidence" in result.describe()

    def test_quantile_rule_rejects_explicit_stratification(self, chain3):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="uniform"):
            SampledOptimizer(chain3.catalog).optimize_sql(
                chain3.sql,
                rule=QuantileTarget(quantile=0.05),
                stratified=True,
            )

    def test_stratified_runs_carry_no_iid_certificate(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=30, stratified=True
        )
        assert result.quantile_certificate() is None
        assert "no i.i.d. quantile certificate" in result.describe()

    def test_nonpositive_budgets_rejected(self, chain3):
        from repro.errors import ReproError

        optimizer = SampledOptimizer(chain3.catalog)
        with pytest.raises(ReproError):
            optimizer.optimize_sql(chain3.sql, samples=0)
        with pytest.raises(ReproError):
            optimizer.optimize_sql(
                chain3.sql, samples=0, rule=QuantileTarget(quantile=0.05)
            )
        with pytest.raises(ReproError):
            optimizer.optimize_sql(chain3.sql, samples=10, batch_size=0)

    def test_budget_stops_the_loop(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql,
            samples=10_000,
            batch_size=8,
            budget_s=1e-9,  # expires after the first batch
        )
        assert result.stopped_because == "budget"
        assert result.samples == 8

    def test_invalid_wallclock_budget_rejected(self, chain3):
        from repro.errors import BudgetError

        optimizer = SampledOptimizer(chain3.catalog)
        for bad in (0.0, -1.0, float("nan"), float("inf"), "1.0", True):
            with pytest.raises(BudgetError):
                optimizer.optimize_sql(chain3.sql, samples=8, budget_s=bad)

    def test_history_is_anytime(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=64, batch_size=16
        )
        assert [point.samples for point in result.history] == [16, 32, 48, 64]
        costs = [point.best_cost for point in result.history]
        assert costs == sorted(costs, reverse=True)  # monotone improvement
        for point in result.history:
            assert point.best_cost <= point.best_sampled_cost + 1e-9

    def test_uniform_and_stratified_both_work(self, chain3):
        uniform = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, stratified=False
        )
        stratified = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=50, stratified=True
        )
        assert not uniform.stratified and stratified.stratified
        assert uniform.samples == stratified.samples == 50

    def test_result_surface_matches_optimization_result(self, chain3):
        result = SampledOptimizer(chain3.catalog).optimize_sql(
            chain3.sql, samples=30
        )
        assert "best cost" in result.explain()
        assert result.timings["space"] >= 0
        assert "sampled optimization" in result.describe()
        assert result.total_plans > 0
        assert result.query.order_by is not None or True  # BoundQuery surface


class TestLargerShapes:
    @pytest.mark.parametrize("maker,n", [(star_query, 6), (clique_query, 6)])
    def test_matches_optimum_on_covered_small_spaces(self, maker, n):
        workload = maker(n, rows=5, seed=0)
        optimum = Optimizer(workload.catalog, OptimizerOptions()).optimize_sql(
            workload.sql
        )
        result = SampledOptimizer(workload.catalog).optimize_sql(
            workload.sql, samples=256, seed=0
        )
        # recombination closes most of the gap even at tiny sample sizes
        assert result.best_cost <= 2.0 * optimum.best_cost
        assert result.best_cost >= optimum.best_cost - 1e-9
