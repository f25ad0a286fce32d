"""Tests for exact operator-participation counts."""

from collections import Counter

import pytest

from repro.planspace.counting import annotate_counts
from repro.planspace.links import materialize_links
from repro.planspace.participation import (
    participation_counts,
    participation_report,
)
from repro.planspace.space import PlanSpace


@pytest.fixture
def example_space(paper_example):
    space = materialize_links(paper_example.memo)
    annotate_counts(space)
    return space


def brute_force_participation(space) -> Counter:
    """Count containment by enumerating every plan."""
    from repro.planspace.enumeration import enumerate_plans

    counts: Counter = Counter()
    for _, plan in enumerate_plans(space):
        for node in plan.iter_nodes():
            counts[node.expr_id] += 1
    return counts


class TestPaperExample:
    def test_matches_brute_force(self, example_space):
        exact = participation_counts(example_space)
        brute = brute_force_participation(example_space)
        for op_id, count in exact.items():
            assert count == brute.get(op_id, 0), op_id

    def test_known_values(self, example_space, paper_example):
        exact = participation_counts(example_space)
        # Every plan passes through exactly one root (22 each).
        assert exact[paper_example.paper_ids["7.7"]] == 22
        assert exact[paper_example.paper_ids["7.8"]] == 22
        # The merge join 3.4 roots 3 sub-plans; each root pairs it with 2
        # scans of C: 2 roots x 2 x 3 = 12 plans.
        assert exact[paper_example.paper_ids["3.4"]] == 12
        # The Sort enforcer: 24 of the 44 plans (see module docstring math).
        assert exact[paper_example.paper_ids["1.4"]] == 24

    def test_participation_bounded_by_total(self, example_space):
        exact = participation_counts(example_space)
        assert all(0 <= count <= 44 for count in exact.values())

    def test_report_renders(self, example_space):
        text = participation_report(example_space)
        assert "44" in text
        assert "HashJoin" in text


class TestOnRealQuery:
    def test_matches_brute_force_q3_subspace(self, catalog):
        """Brute-force cross-check on a small real optimizer memo."""
        from repro.optimizer.implementation import ImplementationConfig
        from repro.optimizer.optimizer import Optimizer, OptimizerOptions

        options = OptimizerOptions(
            allow_cross_products=False,
            implementation=ImplementationConfig(
                enable_index_scans=False, enable_merge_join=False
            ),
        )
        result = Optimizer(catalog, options).optimize_sql(
            "SELECT n.n_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey"
        )
        space = materialize_links(result.memo)
        annotate_counts(space)
        exact = participation_counts(space)
        brute = brute_force_participation(space)
        for op_id, count in exact.items():
            assert count == brute.get(op_id, 0), op_id

    def test_sampled_frequencies_converge(self, q3_space):
        """Uniform sampling must agree with the exact participation — a
        cross-validation of the sampler's uniformity on a real query."""
        exact = participation_counts(q3_space.linked)
        total = q3_space.count()
        sample_size = 3_000
        plans = q3_space.sample(sample_size, seed=11)
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

    def test_every_operator_reachable_or_zero(self, q5_space):
        exact = participation_counts(q5_space.linked)
        # In a fully implemented memo every operator should be live.
        dead = [op_id for op_id, count in exact.items() if count == 0]
        assert not dead, f"dead operators: {dead[:5]}"
        assert max(exact.values()) <= q5_space.count()

    def test_linear_runtime_on_large_space(self, q5_space):
        import time

        started = time.perf_counter()
        participation_counts(q5_space.linked)
        assert time.perf_counter() - started < 1.0
