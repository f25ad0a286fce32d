"""Plan-shape strata and stratified sampling."""

import pytest

from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.sampledopt.strata import StratifiedSampler, Stratum, rank_strata
from repro.workloads.synthetic import chain_query, clique_query


@pytest.fixture(scope="module")
def chain5_space():
    workload = chain_query(5, rows=5, seed=0)
    return ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=OptimizerOptions()
    )


class TestRankStrata:
    def test_partitions_the_rank_space(self, chain5_space):
        strata = rank_strata(chain5_space, target=16)
        assert strata[0].lo == 0
        assert strata[-1].hi == chain5_space.count()
        for left, right in zip(strata, strata[1:]):
            assert left.hi == right.lo  # contiguous, no gaps or overlaps
        assert all(stratum.size > 0 for stratum in strata)

    def test_reaches_target_when_possible(self, chain5_space):
        strata = rank_strata(chain5_space, target=16)
        assert len(strata) >= 16

    def test_target_one_is_whole_space(self, chain5_space):
        strata = rank_strata(chain5_space, target=1)
        assert len(strata) == 1
        assert strata[0].size == chain5_space.count()

    def test_labels_are_operator_prefixes(self, chain5_space):
        strata = rank_strata(chain5_space, target=16)
        # every refined label is a /-joined chain of gid.local ids
        refined = [s for s in strata if s.label != "(root)"]
        assert refined
        for stratum in refined:
            for part in stratum.label.split("/"):
                gid, local = part.split(".")
                assert gid.isdigit() and local.isdigit()

    def test_plans_in_stratum_share_prefix(self, chain5_space):
        """All plans of a stratum start with the stratum's operator chain."""
        strata = rank_strata(chain5_space, target=8)
        widest = max(strata, key=lambda s: s.size)
        prefix = widest.label.split("/")
        for rank in (widest.lo, (widest.lo + widest.hi) // 2, widest.hi - 1):
            plan = chain5_space.unrank(rank)
            node = plan
            for expected in prefix:
                assert node.expr_id == expected
                if node.children:
                    node = node.children[-1]  # the slowest-varying slot

    def test_deep_strata_on_clique(self):
        workload = clique_query(6, rows=5, seed=0)
        space = ImplicitPlanSpace.from_sql(
            workload.catalog, workload.sql, options=OptimizerOptions()
        )
        strata = rank_strata(space, target=64)
        assert sum(stratum.size for stratum in strata) == space.count()


class TestStratifiedSampler:
    def test_allocation_is_proportional_and_exact(self, chain5_space):
        sampler = StratifiedSampler(chain5_space, seed=0, target=16)
        counts = sampler.allocate(100)
        assert sum(counts) == 100
        total = chain5_space.count()
        for stratum, count in zip(sampler.strata, counts):
            ideal = 100 * stratum.size / total
            assert abs(count - ideal) <= 1  # largest-remainder rounding

    def test_allocation_ranks_remainders_exactly(self):
        """Largest remainders compared as integers: 2 draws over strata
        of 2**78, 2**78 + 1 and 2**79 - 1 ranks.  The remainders of the
        first two (2**79 and 2**79 + 2, over 2**80) are equal as floats;
        the second is larger."""

        class Space:
            def count(self):
                return 2**80

        bounds = [0, 2**78, 2**79 + 1, 2**80]
        strata = [Stratum(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        sampler = StratifiedSampler(Space(), strata=strata)
        assert sampler.allocate(2) == [0, 1, 1]

    def test_ranks_fall_in_their_strata(self, chain5_space):
        sampler = StratifiedSampler(chain5_space, seed=7, target=16)
        ranks = sampler.sample_ranks(200)
        assert len(ranks) == 200
        position = 0
        for stratum, count in zip(sampler.strata, sampler.allocate(200)):
            for rank in ranks[position : position + count]:
                assert stratum.lo <= rank < stratum.hi
            position += count

    def test_deterministic_per_seed(self, chain5_space):
        first = StratifiedSampler(chain5_space, seed=3).sample_ranks(50)
        second = StratifiedSampler(chain5_space, seed=3).sample_ranks(50)
        third = StratifiedSampler(chain5_space, seed=4).sample_ranks(50)
        assert first == second
        assert first != third

    def test_sample_returns_plans(self, chain5_space):
        plans = StratifiedSampler(chain5_space, seed=0).sample(5)
        assert len(plans) == 5
        for plan in plans:
            assert chain5_space.rank(plan) >= 0
