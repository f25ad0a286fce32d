"""Integration tests: the full pipeline on realistic queries.

These are the paper's claims, executed end to end:

1. the memo compactly encodes an astronomically large space (Section 3.2);
2. every plan extracted from it is valid and result-equivalent (Section 4);
3. uniform samples characterize cost distributions (Section 5).
"""

import pytest

from repro.api import Session
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.testing.diff import canonical_rows
from repro.testing.harness import PlanValidator
from repro.workloads.tpch_queries import tpch_query
from tests.optimizer.reference_transformation import TransformationExplorer
from tests.planspace.materialized.space import PlanSpace
from tests.reference_pipeline import optimize_reference


@pytest.fixture(scope="module")
def session():
    return Session.tpch(seed=0, options=OptimizerOptions(allow_cross_products=False))


class TestSpaceMagnitudes:
    def test_q5_space_is_astronomical(self, q5_space):
        # Paper: 68,572,049 without cross products under SQL Server's rules;
        # our rule set yields more.  The point: far beyond exhaustive testing.
        assert q5_space.count() > 10**7

    def test_compact_encoding(self, q5_result, q5_space):
        # The memo stores thousands of operators, not trillions of plans —
        # the paper's footnote 2.
        operators = q5_result.memo.physical_expression_count()
        assert operators < 10_000
        assert q5_space.count() / operators > 10**6


class TestResultEquivalence:
    @pytest.mark.parametrize("name", ["Q3", "Q10"])
    def test_sampled_plans_equivalent(self, session, name):
        validator = PlanValidator(session.database, session.options)
        report = validator.validate_sql(
            tpch_query(name).sql, max_exhaustive=150, sample_size=60, seed=4
        )
        assert report.all_equal, report.render()

    def test_q5_sampled_plans_equivalent(self, session):
        validator = PlanValidator(session.database, session.options)
        report = validator.validate_sql(
            tpch_query("Q5").sql, max_exhaustive=0, sample_size=25, seed=9
        )
        assert report.all_equal, report.render()

    def test_cross_product_space_also_equivalent(self):
        session = Session.tpch(
            seed=0, options=OptimizerOptions(allow_cross_products=True)
        )
        validator = PlanValidator(session.database, session.options)
        report = validator.validate_sql(
            tpch_query("Q3").sql, max_exhaustive=0, sample_size=25, seed=2
        )
        assert report.all_equal, report.render()

    def test_q7_disjunctive_predicate_equivalent(self, session):
        """Q7's FRANCE/GERMANY disjunction spans two nation instances —
        the executor must evaluate the OR identically in every plan."""
        validator = PlanValidator(session.database, session.options)
        report = validator.validate_sql(
            tpch_query("Q7").sql, max_exhaustive=0, sample_size=20, seed=6
        )
        assert report.all_equal, report.render()

    def test_q8_eight_way_join_equivalent(self, session):
        validator = PlanValidator(session.database, session.options)
        report = validator.validate_sql(
            tpch_query("Q8").sql, max_exhaustive=0, sample_size=15, seed=8
        )
        assert report.all_equal, report.render()

    def test_q9_composite_edge_equivalent(self, session):
        validator = PlanValidator(session.database, session.options)
        report = validator.validate_sql(
            tpch_query("Q9").sql, max_exhaustive=0, sample_size=15, seed=10
        )
        assert report.all_equal, report.render()


class TestStrategiesProduceSameSpace:
    def test_enumeration_vs_transformation_q3(self, catalog):
        """The optimizer's explorer against the rule-engine oracle."""
        sql = tpch_query("Q3").sql
        options = OptimizerOptions(allow_cross_products=False)
        enumeration = Optimizer(catalog, options).optimize_sql(sql)
        transformation = optimize_reference(
            catalog, sql, options, explorer=TransformationExplorer()
        )
        assert (
            PlanSpace.from_result(enumeration).count()
            == PlanSpace.from_result(transformation).count()
        )


class TestUseplanReproducibility:
    def test_same_rank_same_plan_across_runs(self, session):
        sql = tpch_query("Q3").sql
        space_a = session.plan_space(sql)
        space_b = session.plan_space(sql)
        rank = 12_345 % space_a.count()
        assert (
            space_a.unrank(rank).fingerprint()
            == space_b.unrank(rank).fingerprint()
        )

    def test_failing_rank_would_be_reproducible(self, session):
        # The Section 4 workflow: a rank identifies a plan exactly, so a
        # failure report can be replayed with OPTION (USEPLAN rank).
        sql = tpch_query("Q3").sql
        space = session.plan_space(sql)
        rank = 7 % space.count()
        plan = space.unrank(rank)
        via_option = session.execute_detailed(
            f"{sql} OPTION (USEPLAN {rank})"
        )
        direct = session.executor.execute(plan)
        assert canonical_rows(via_option.result.rows) == canonical_rows(
            direct.rows
        )
