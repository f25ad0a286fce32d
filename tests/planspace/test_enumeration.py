"""Tests for exhaustive enumeration."""

import itertools

import pytest

from repro.errors import RankOutOfRangeError
from tests.planspace.materialized.enumeration import enumerate_plans
from tests.planspace.materialized.links import materialize_links


@pytest.fixture
def small_space(paper_example):
    return materialize_links(paper_example.memo)


class TestEnumeratePlans:
    def test_full_enumeration_yields_all(self, small_space):
        plans = list(enumerate_plans(small_space))
        assert len(plans) == 44
        assert [rank for rank, _ in plans] == list(range(44))

    def test_all_plans_distinct(self, small_space):
        fingerprints = {
            plan.fingerprint() for _, plan in enumerate_plans(small_space)
        }
        assert len(fingerprints) == 44

    def test_range_slicing(self, small_space):
        plans = list(enumerate_plans(small_space, start=10, stop=20))
        assert [rank for rank, _ in plans] == list(range(10, 20))

    def test_stride(self, small_space):
        plans = list(enumerate_plans(small_space, step=7))
        assert [rank for rank, _ in plans] == list(range(0, 44, 7))

    def test_lazy_on_huge_space(self, q5_space):
        first_three = list(
            itertools.islice(enumerate_plans(q5_space.linked), 3)
        )
        assert [rank for rank, _ in first_three] == [0, 1, 2]

    def test_stop_validated(self, small_space):
        with pytest.raises(RankOutOfRangeError):
            list(enumerate_plans(small_space, stop=45))

    def test_negative_start_rejected(self, small_space):
        with pytest.raises(RankOutOfRangeError):
            list(enumerate_plans(small_space, start=-1))

    def test_bad_step_rejected(self, small_space):
        with pytest.raises(ValueError):
            list(enumerate_plans(small_space, step=0))
