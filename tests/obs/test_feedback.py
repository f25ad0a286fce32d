"""The cardinality ledger: feeding, persistence, accuracy reporting,
and feedback-driven re-costing — plus the byte-identical default path."""

import json

import pytest

from repro.api import Session
from repro.errors import PlanSpaceError, ReproError
from repro.obs import (
    CardinalityLedger,
    accuracy_report,
    plan_cost_under_ledger,
    true_cardinality_ledger,
)
from repro.obs.feedback import Q_ERROR_HISTORY, LedgerEntry
from repro.workloads.misestimated import misestimated_tpch
from repro.workloads.synthetic import cycle_query
from repro.workloads.tpch_queries import tpch_query
from tests.reference_pipeline import reference_true_cardinality_ledger

Q3 = tpch_query("Q3").sql
TWO_TABLE = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)
UNIVERSE = ("a", "b", "c")


@pytest.fixture(scope="module")
def session():
    return Session.tpch(seed=0)


class TestLedgerMechanics:
    def test_observe_creates_then_folds_ewma(self):
        ledger = CardinalityLedger()
        entry = ledger.observe(UNIVERSE, 0b011, actual_rows=100.0, est_rows=400.0)
        assert entry.relations == ("a", "b")
        assert entry.ewma_rows == 100.0  # first observation seeds the EWMA
        assert entry.hits == 1
        assert entry.last_q_error == 4.0
        entry = ledger.observe(UNIVERSE, 0b011, actual_rows=200.0, est_rows=100.0)
        assert entry.hits == 2
        assert entry.ewma_rows == pytest.approx(150.0)  # 0.5 * 200 + 0.5 * 100
        assert entry.observed_rows == 200.0

    def test_q_error_none_when_either_side_zero(self):
        ledger = CardinalityLedger()
        entry = ledger.observe(UNIVERSE, 0b001, actual_rows=0.0, est_rows=50.0)
        assert entry.last_q_error is None
        assert entry.q_errors == []
        entry = ledger.observe(UNIVERSE, 0b001, actual_rows=10.0, est_rows=0.0)
        assert entry.q_errors == []

    def test_q_error_history_capped(self):
        ledger = CardinalityLedger()
        for i in range(Q_ERROR_HISTORY + 10):
            ledger.observe(UNIVERSE, 0b001, actual_rows=1.0, est_rows=2.0 + i)
        (entry,) = [e for _, e in ledger.entries()]
        assert len(entry.q_errors) == Q_ERROR_HISTORY
        assert entry.q_errors[-1] == pytest.approx(2.0 + Q_ERROR_HISTORY + 9)

    def test_binding_lookup_and_floor(self):
        ledger = CardinalityLedger()
        ledger.observe(UNIVERSE, 0b011, actual_rows=0.0, est_rows=10.0)
        binding = ledger.binding(UNIVERSE)
        assert binding.rows_for_mask(0b011) == 1.0  # floored at one row
        assert binding.rows_for_mask(0b111) is None
        assert binding.rows_for(("a", "b")) == 1.0
        # An alias outside the universe can never have been observed.
        assert binding.rows_for(("a", "z")) is None

    def test_universes_isolated(self):
        ledger = CardinalityLedger()
        ledger.observe(("a", "b"), 0b11, actual_rows=5.0, est_rows=5.0)
        ledger.observe(("x", "y"), 0b11, actual_rows=9.0, est_rows=9.0)
        assert len(ledger) == 2
        assert ledger.binding(("a", "b")).rows_for_mask(0b11) == 5.0
        assert ledger.binding(("x", "y")).rows_for_mask(0b11) == 9.0
        assert ledger.universes() == [("a", "b"), ("x", "y")]

    def test_bool_and_render(self):
        ledger = CardinalityLedger()
        assert not ledger
        assert ledger.render() == "(empty ledger)"
        ledger.observe(UNIVERSE, 0b011, actual_rows=3.0, est_rows=30.0)
        assert ledger
        assert "{a, b}" in ledger.render()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ledger = CardinalityLedger()
        ledger.observe(UNIVERSE, 0b011, actual_rows=100.0, est_rows=400.0)
        ledger.observe(UNIVERSE, 0b011, actual_rows=120.0, est_rows=90.0)
        ledger.observe(("x", "y"), 0b11, actual_rows=7.0, est_rows=7.0)
        path = tmp_path / "ledger.json"
        ledger.save(path)
        restored = CardinalityLedger.load(path)
        assert restored.to_dict() == ledger.to_dict()
        assert restored.binding(UNIVERSE).rows_for_mask(0b011) == pytest.approx(
            ledger.binding(UNIVERSE).rows_for_mask(0b011)
        )

    def test_load_rejects_bad_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ReproError, match="version"):
            CardinalityLedger.load(path)

    def test_load_rejects_missing_and_invalid(self, tmp_path):
        with pytest.raises(ReproError, match="no cardinality ledger"):
            CardinalityLedger.load(tmp_path / "absent.json")
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="not valid JSON"):
            CardinalityLedger.load(path)


class TestRecordExecution:
    def test_records_rels_groups_only(self, session):
        executed = session.execute_detailed(Q3, analyze=True, feedback=False)
        ledger = CardinalityLedger()
        memo = executed.optimization.memo
        universe = executed.optimization.graph.universe.order
        recorded = ledger.record_execution(
            executed.result.stats, memo, universe
        )
        assert recorded == len(ledger) > 0
        rels_masks = {
            memo.group(n.group_id).key[1]
            for n in executed.result.stats.root.iter_nodes()
            if memo.group(n.group_id).key[0] == "rels"
        }
        assert {e.mask for _, e in ledger.entries()} == rels_masks

    def test_session_autofeeds_on_analyze(self):
        session = Session.tpch(seed=0)
        assert not session.ledger
        session.execute_detailed(TWO_TABLE, analyze=True)
        assert len(session.ledger) == 3  # n, r, and the join

    def test_feedback_false_analyzes_without_feeding(self):
        session = Session.tpch(seed=0)
        executed = session.execute_detailed(
            TWO_TABLE, analyze=True, feedback=False
        )
        assert executed.result.stats is not None
        assert not session.ledger

    def test_execute_feedback_flag(self):
        session = Session.tpch(seed=0)
        session.execute(TWO_TABLE, feedback=True)
        assert len(session.ledger) == 3
        # Plain execute stays bare: no stats, no feeding.
        before = session.ledger.to_dict()
        assert session.execute(TWO_TABLE).stats is None
        assert session.ledger.to_dict() == before


class TestAccuracyReport:
    def test_summary_and_worst(self):
        ledger = CardinalityLedger()
        ledger.observe(UNIVERSE, 0b001, actual_rows=10.0, est_rows=100.0)  # 10x
        ledger.observe(UNIVERSE, 0b010, actual_rows=10.0, est_rows=20.0)  # 2x
        ledger.observe(UNIVERSE, 0b100, actual_rows=0.0, est_rows=5.0)  # None
        report = accuracy_report(ledger, worst_limit=1)
        assert report.subplans == 3
        assert report.observations == 3
        assert report.summary["count"] == 2  # the zero-actual entry is skipped
        assert report.summary["max"] == 10.0
        assert len(report.worst) == 1
        assert report.worst[0]["relations"] == ["a"]
        text = report.render()
        assert "q-error" in text and "10.00x" in text

    def test_empty_ledger(self):
        report = accuracy_report(CardinalityLedger())
        assert report.summary == {
            "count": 0,
            "median": None,
            "p90": None,
            "max": None,
        }
        assert "no measurable estimates" in report.render()
        assert report.to_dict()["worst"] == []

    def test_session_surface(self):
        session = Session.tpch(seed=0)
        session.execute(TWO_TABLE, feedback=True)
        report = session.estimation_report()
        assert report.subplans == 3
        assert report.summary["count"] >= 1


class TestFeedbackRecosting:
    def test_default_path_identical_and_unreported(self):
        session = Session.tpch(seed=0)
        plain = session.optimize(Q3)
        assert plain.feedback is None
        assert plain.estimator.feedback_hits == 0
        again = session.optimize(Q3, feedback=None)
        assert again.best_plan.fingerprint() == plain.best_plan.fingerprint()
        assert again.best_cost == plain.best_cost
        # An empty session ledger resolves to no feedback at all.
        with_empty = session.optimize(Q3, feedback=True)
        assert with_empty.feedback is None
        assert with_empty.best_plan.fingerprint() == plain.best_plan.fingerprint()

    def test_feedback_changes_mispicked_plan(self):
        database = misestimated_tpch(seed=0)
        session = Session(database)
        plain = session.optimize(Q3)
        session.execute(Q3, feedback=True)
        result = session.optimize(Q3, feedback=True)
        report = result.feedback
        assert report is not None
        assert report.substituted > 0
        assert report.plan_changed == (
            result.best_plan.fingerprint() != plain.best_plan.fingerprint()
        )
        # Exact search under the observed assignment can never lose to
        # the estimate-chosen plan under that same assignment.
        assert report.feedback_cost <= report.baseline_cost_feedback + 1e-9
        assert report.improvement_factor >= 1.0 - 1e-12
        assert "feedback:" in report.describe()

    def test_feedback_accepts_ledger_and_path(self, tmp_path):
        session = Session.tpch(seed=0)
        session.execute(Q3, feedback=True)
        from_instance = session.optimize(Q3, feedback=session.ledger)
        assert from_instance.feedback is not None
        path = tmp_path / "ledger.json"
        session.ledger.save(path)
        fresh = Session.tpch(seed=0)
        from_path = fresh.optimize(Q3, feedback=str(path))
        assert from_path.feedback is not None
        assert (
            from_path.best_plan.fingerprint()
            == from_instance.best_plan.fingerprint()
        )

    def test_sampled_method_rejects_feedback(self):
        session = Session.tpch(seed=0)
        session.execute(Q3, feedback=True)
        with pytest.raises(PlanSpaceError, match="feedback"):
            session.optimize(Q3, method="sampled", feedback=True)

    def test_resilient_exact_tier_carries_feedback(self):
        session = Session.tpch(seed=0)
        session.execute(Q3, feedback=True)
        result = session.optimize(Q3, deadline_s=60.0, feedback=True)
        assert result.resilience.tier == "exact"
        assert result.feedback is not None

    def test_degraded_tier_skips_feedback_report(self):
        session = Session.tpch(seed=0)
        session.execute(Q3, feedback=True)
        result = session.optimize(Q3, max_expressions=1, feedback=True)
        assert result.resilience.degraded
        assert result.feedback is None


class TestPlanCostUnderLedger:
    def test_empty_binding_matches_static_plan_cost(self, session):
        result = session.optimize(Q3)
        binding = CardinalityLedger().binding(result.graph.universe.order)
        assert plan_cost_under_ledger(
            result.best_plan, result.memo, binding, result.cost_model
        ) == pytest.approx(result.cost_model.plan_cost(result.best_plan))

    def test_true_cardinality_ledger_covers_every_rels_group(self, session):
        result = session.optimize(TWO_TABLE)
        oracle = true_cardinality_ledger(result, session.database)
        rels = [g for g in result.memo.groups if g.key[0] == "rels"]
        assert len(oracle) == len(rels)
        # Single-table groups observe the table's actual micro-database
        # row count.
        binding = oracle.binding(result.graph.universe.order)
        n_rows = len(session.database.table("nation").rows)
        (n_group,) = [
            g for g in rels if g.relations == frozenset(("n",))
        ]
        assert binding.rows_for_mask(n_group.mask) == float(n_rows)


    @pytest.mark.parametrize("name", ["Q3", "Q5", "cycle5"])
    def test_true_cardinality_ledger_matches_the_oracle_driven_one(
        self, session, name
    ):
        """The ledger oracle reads each group's cheapest subplan off the
        production DP; the object search over the same memo picks the
        same subplans, so every entry is equal."""
        if name == "cycle5":
            workload = cycle_query(5, rows=5, seed=0)
            session, sql = Session(workload.database), workload.sql
        else:
            sql = tpch_query(name).sql
        result = session.optimize(sql)
        ledger = true_cardinality_ledger(result, session.database)
        reference = reference_true_cardinality_ledger(result, session.database)
        assert len(ledger) == len(reference) > 0
        assert ledger.to_dict() == reference.to_dict()

    def test_true_cardinality_ledger_needs_an_unpruned_result(self, session):
        pruned = session.optimize(TWO_TABLE, prune_factor=2.0)
        with pytest.raises(ReproError, match="columnar store"):
            true_cardinality_ledger(pruned, session.database)


class TestLedgerEntrySerialization:
    def test_entry_round_trip(self):
        entry = LedgerEntry(
            mask=5,
            relations=("a", "c"),
            observed_rows=10.0,
            ewma_rows=12.5,
            hits=3,
            last_est_rows=40.0,
            q_errors=[4.0, 3.2],
        )
        assert LedgerEntry.from_dict(entry.to_dict()) == entry
