"""Tests for exact operator-participation counts.

The paper example is a hand-built memo, which only the materialized
oracle can read; real queries go through the production function over
the implicit tables.
"""

from collections import Counter

import pytest

from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.participation import participation_counts
from repro.workloads.tpch_queries import tpch_query
from tests.planspace.materialized import participation as reference
from tests.planspace.materialized.counting import annotate_counts
from tests.planspace.materialized.links import materialize_links

NO_CROSS = OptimizerOptions(allow_cross_products=False)


@pytest.fixture
def example_space(paper_example):
    space = materialize_links(paper_example.memo)
    annotate_counts(space)
    return space


@pytest.fixture(scope="module")
def q3_implicit(catalog):
    return ImplicitPlanSpace.from_sql(catalog, tpch_query("Q3").sql, options=NO_CROSS)


@pytest.fixture(scope="module")
def q5_implicit(catalog):
    return ImplicitPlanSpace.from_sql(catalog, tpch_query("Q5").sql, options=NO_CROSS)


def brute_force_participation(plans) -> Counter:
    """Count containment over an enumeration of every plan."""
    counts: Counter = Counter()
    for _, plan in plans:
        for node in plan.iter_nodes():
            counts[node.expr_id] += 1
    return counts


class TestPaperExample:
    def test_matches_brute_force(self, example_space):
        from tests.planspace.materialized.enumeration import enumerate_plans

        exact = reference.participation_counts(example_space)
        brute = brute_force_participation(enumerate_plans(example_space))
        for op_id, count in exact.items():
            assert count == brute.get(op_id, 0), op_id

    def test_known_values(self, example_space, paper_example):
        exact = reference.participation_counts(example_space)
        # Every plan passes through exactly one root (22 each).
        assert exact[paper_example.paper_ids["7.7"]] == 22
        assert exact[paper_example.paper_ids["7.8"]] == 22
        # The merge join 3.4 roots 3 sub-plans; each root pairs it with 2
        # scans of C: 2 roots x 2 x 3 = 12 plans.
        assert exact[paper_example.paper_ids["3.4"]] == 12
        # The Sort enforcer: 24 of the 44 plans (see module docstring math).
        assert exact[paper_example.paper_ids["1.4"]] == 24

    def test_participation_bounded_by_total(self, example_space):
        exact = reference.participation_counts(example_space)
        assert all(0 <= count <= 44 for count in exact.values())

    def test_report_renders(self, example_space):
        text = reference.participation_report(example_space)
        assert "44" in text
        assert "HashJoin" in text


class TestOnRealQuery:
    def test_matches_brute_force_q3_subspace(self, catalog):
        """Brute-force cross-check on a small real query's space."""
        options = OptimizerOptions(
            allow_cross_products=False,
            implementation=ImplementationConfig(
                enable_index_scans=False, enable_merge_join=False
            ),
        )
        space = ImplicitPlanSpace.from_sql(
            catalog,
            "SELECT n.n_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey",
            options=options,
        )
        exact = participation_counts(space)
        brute = brute_force_participation(space.enumerate())
        for op_id, count in exact.items():
            assert count == brute.get(op_id, 0), op_id

    def test_sampled_frequencies_converge(self, q3_implicit):
        """Uniform sampling must agree with the exact participation — a
        cross-validation of the sampler's uniformity on a real query."""
        exact = participation_counts(q3_implicit)
        total = q3_implicit.count()
        sample_size = 3_000
        plans = q3_implicit.sample(sample_size, seed=11)
        sampled: Counter = Counter()
        for plan in plans:
            for node in plan.iter_nodes():
                sampled[node.expr_id] += 1
        # Check the most common operators: sampled fraction within a few
        # standard errors of the exact fraction.
        for op_id, count in sorted(
            exact.items(), key=lambda kv: kv[1], reverse=True
        )[:10]:
            expected = count / total
            observed = sampled.get(op_id, 0) / sample_size
            stderr = (expected * (1 - expected) / sample_size) ** 0.5
            assert abs(observed - expected) < max(5 * stderr, 0.01), op_id

    def test_every_operator_reachable_or_zero(self, q5_implicit):
        exact = participation_counts(q5_implicit)
        # In a fully implemented memo every operator should be live.
        dead = [op_id for op_id, count in exact.items() if count == 0]
        assert not dead, f"dead operators: {dead[:5]}"
        assert max(exact.values()) <= q5_implicit.count()

    def test_linear_runtime_on_large_space(self, q5_implicit):
        import time

        started = time.perf_counter()
        participation_counts(q5_implicit)
        assert time.perf_counter() - started < 1.0
