"""Tests for uniform sampling (and the biased baseline)."""

import math
from collections import Counter

import pytest

from repro.api import Session
from tests.planspace.materialized.links import materialize_links
from tests.planspace.materialized.sampling import UniformPlanSampler, naive_walk_sample
from tests.planspace.materialized.space import PlanSpace
from tests.planspace.materialized.unranking import Unranker


@pytest.fixture
def small_space(paper_example):
    return materialize_links(paper_example.memo)


class TestUniformity:
    def test_chi_square_uniform_over_small_space(self, small_space):
        """Sampling frequencies over all 44 plans must pass a chi-square
        uniformity check (99.9% quantile for 43 dof is ~77.4)."""
        sampler = UniformPlanSampler(small_space, seed=123)
        unranker = Unranker(small_space)
        n = 44 * 250
        counts = Counter(sampler.sample_rank() for _ in range(n))
        expected = n / 44
        chi2 = sum(
            (counts.get(rank, 0) - expected) ** 2 / expected for rank in range(44)
        )
        assert chi2 < 77.4

    def test_every_plan_reachable(self, small_space):
        sampler = UniformPlanSampler(small_space, seed=9)
        seen = {sampler.sample_rank() for _ in range(44 * 60)}
        assert seen == set(range(44))

    def test_naive_walk_is_biased(self, small_space):
        """The random-walk baseline must fail the same uniformity check —
        this is exactly why the paper's unranking approach matters."""
        unranker = Unranker(small_space)
        n = 44 * 250
        plans = naive_walk_sample(small_space, n, seed=123)
        counts = Counter(unranker.rank(plan) for plan in plans)
        expected = n / 44
        chi2 = sum(
            (counts.get(rank, 0) - expected) ** 2 / expected for rank in range(44)
        )
        assert chi2 > 77.4


class TestSamplerApi:
    def test_deterministic_given_seed(self, small_space):
        a = UniformPlanSampler(small_space, seed=5).sample_ranks(20)
        b = UniformPlanSampler(small_space, seed=5).sample_ranks(20)
        assert a == b

    def test_different_seeds_differ(self, small_space):
        a = UniformPlanSampler(small_space, seed=5).sample_ranks(20)
        b = UniformPlanSampler(small_space, seed=6).sample_ranks(20)
        assert a != b

    def test_sample_returns_plans(self, small_space):
        plans = UniformPlanSampler(small_space, seed=1).sample(10)
        assert len(plans) == 10
        assert all(plan.size() >= 1 for plan in plans)

    def test_unique_sampling_distinct(self, small_space):
        ranks = UniformPlanSampler(small_space, seed=2).sample_ranks(
            30, unique=True
        )
        assert len(set(ranks)) == 30

    def test_unique_sampling_whole_space(self, small_space):
        ranks = UniformPlanSampler(small_space, seed=2).sample_ranks(
            44, unique=True
        )
        assert sorted(ranks) == list(range(44))

    def test_unique_overflow_rejected(self, small_space):
        with pytest.raises(ValueError):
            UniformPlanSampler(small_space, seed=2).sample_ranks(45, unique=True)

    def test_sample_one(self, small_space):
        plan = UniformPlanSampler(small_space, seed=3).sample_one()
        assert plan.size() >= 1

    def test_total_property(self, small_space):
        assert UniformPlanSampler(small_space).total == 44


@pytest.mark.parametrize("unique", [False, True], ids=["replace", "unique"])
@pytest.mark.parametrize("reference", [True, False], ids=["materialized", "implicit"])
def test_negative_sample_size_rejected(micro_db, reference, unique):
    """Both engines draw through ``RankSampler``: a negative size is an
    error there, not an empty sample; a size of zero is an empty one."""
    sql = (
        "SELECT n.n_name FROM nation n, region r "
        "WHERE n.n_regionkey = r.r_regionkey"
    )
    session = Session(micro_db)
    if reference:
        space = PlanSpace.from_result(session.optimize(sql))
    else:
        space = session.plan_space(sql)
    with pytest.raises(ValueError, match="non-negative"):
        space.sample_ranks(-1, unique=unique)
    assert space.sample_ranks(0, unique=unique) == []


class TestLargeSpaceSampling:
    def test_samples_from_astronomical_space(self, q5_space):
        plans = q5_space.sample(50, seed=42)
        assert len(plans) == 50
        sizes = {plan.size() for plan in plans}
        assert len(sizes) > 1  # different shapes get sampled

    def test_rank_distribution_spans_space(self, q5_space):
        total = q5_space.count()
        ranks = q5_space.sample_ranks(200, seed=1)
        assert min(ranks) < total * 0.1
        assert max(ranks) > total * 0.9
