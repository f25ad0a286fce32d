"""CLI surface of the observability layer: ``repro trace``,
``repro explain --analyze``, ``repro optimize -v``, and the feedback
commands (``accuracy``, ``metrics``, ``optimize --feedback``)."""

import io
import json

from repro.api import Session
from repro.cli import main
from repro.workloads.tpch_queries import tpch_query


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTraceCommand:
    def test_exact(self):
        code, text = run_cli("trace", "Q3")
        assert code == 0
        assert text.startswith("optimize:")
        for phase in ("parse", "bind", "explore", "implement", "bestplan"):
            assert phase in text
        assert "checkpoint.polls" in text
        assert "memo.groups" in text

    def test_sampled(self):
        code, text = run_cli("trace", "Q3", "--sampled")
        assert code == 0
        for phase in ("space", "sample", "recombine", "assemble"):
            assert phase in text
        for counter in (
            "rows_built=", "tables=", "candidate_lists=", "operators_built="
        ):
            assert counter in text

    def test_deadline_traces_tiers(self):
        code, text = run_cli("trace", "Q3", "--deadline-s", "30")
        assert code == 0
        assert "tier.exact" in text
        assert "served from the" in text

    def test_json_round_trips(self):
        code, text = run_cli("trace", "Q3", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["trace"]["name"] == "optimize"
        names = [c["name"] for c in payload["trace"]["children"]]
        assert "fused" in names
        fused = next(
            c for c in payload["trace"]["children"] if c["name"] == "fused"
        )
        assert "bestplan" in [c["name"] for c in fused["children"]]
        assert payload["metrics"]["counters"]["checkpoint.polls"] > 0

    def test_sampled_rejects_deadline(self):
        code, _ = run_cli("trace", "Q3", "--sampled", "--deadline-s", "1")
        assert code == 2

    def test_chrome_trace_export(self, tmp_path):
        out = tmp_path / "trace.json"
        code, text = run_cli("trace", "Q3", "--chrome-trace", str(out))
        assert code == 0
        assert "wrote" in text and str(out) in text
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert events[0]["name"] == "optimize"
        assert events[0]["ph"] == "X"
        assert {"parse", "bind", "explore", "bestplan"} <= {
            e["name"] for e in events
        }


class TestFeedbackCommands:
    def test_execute_feedback_out_then_optimize_feedback(self, tmp_path):
        path = tmp_path / "ledger.json"
        code, text = run_cli("execute", "Q3", "--feedback-out", str(path))
        assert code == 0
        assert "ledger:" in text and str(path) in text
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["spaces"][0]["entries"]

        code, text = run_cli("optimize", "Q3", "--feedback", str(path), "-v")
        assert code == 0
        assert "feedback:" in text
        assert "plan_changed=" in text and "improvement=" in text

    def test_feedback_out_folds_into_existing(self, tmp_path):
        path = tmp_path / "ledger.json"
        run_cli("execute", "Q3", "--feedback-out", str(path))
        first = json.loads(path.read_text())
        run_cli("execute", "Q3", "--feedback-out", str(path))
        second = json.loads(path.read_text())
        hits = lambda p: p["spaces"][0]["entries"][0]["hits"]
        assert hits(second) == hits(first) + 1

    def test_optimize_feedback_foreign_ledger_reports_no_observations(
        self, tmp_path
    ):
        path = tmp_path / "ledger.json"
        run_cli("execute", "Q3", "--feedback-out", str(path))
        code, text = run_cli("optimize", "Q5", "--feedback", str(path))
        assert code == 0
        assert "no observations" in text

    def test_optimize_feedback_missing_ledger_errors(self, tmp_path):
        code, _ = run_cli(
            "optimize", "Q3", "--feedback", str(tmp_path / "absent.json")
        )
        assert code == 2

    def test_sampled_rejects_feedback(self, tmp_path):
        path = tmp_path / "ledger.json"
        run_cli("execute", "Q3", "--feedback-out", str(path))
        code, _ = run_cli(
            "optimize", "Q3", "--sampled", "--feedback", str(path)
        )
        assert code == 2


class TestAccuracyCommand:
    def test_from_queries(self):
        code, text = run_cli("accuracy", "--queries", "Q3")
        assert code == 0
        assert "observations:" in text
        assert "q-error:" in text

    def test_from_ledger_json(self, tmp_path):
        path = tmp_path / "ledger.json"
        run_cli("execute", "Q3", "--feedback-out", str(path))
        code, text = run_cli(
            "accuracy", "--ledger", str(path), "--worst", "2", "--json"
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["subplans"] > 0
        assert len(payload["worst"]) <= 2
        assert set(payload["summary"]) == {"count", "median", "p90", "max"}


class TestMetricsCommand:
    def test_prometheus_text(self):
        code, text = run_cli("metrics", "Q3")
        assert code == 0
        assert "# TYPE repro_checkpoint_polls_total counter" in text
        assert "repro_memo_groups" in text

    def test_execute_adds_operator_series(self):
        code, text = run_cli("metrics", "Q3", "--execute")
        assert code == 0
        assert "repro_execute_operator_polls_total" in text

    def test_json_snapshot(self):
        code, text = run_cli("metrics", "Q3", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["counters"]["checkpoint.polls"] > 0
        assert payload["gauges"]["memo.groups"] > 0


class TestExplainAnalyze:
    def test_table(self):
        code, text = run_cli("explain", "Q3", "--analyze")
        assert code == 0
        assert "best cost" in text
        assert "actual" in text and "q-err" in text and "TOTAL" in text

    def test_json(self):
        code, text = run_cli("explain", "Q3", "--analyze", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["best_cost"] > 0
        root = payload["stats"]["root"]
        assert root["actual_rows"] >= 0
        assert root["est_rows"] > 0
        assert payload["stats"]["operators"] >= 1

    def test_json_requires_analyze(self):
        code, _ = run_cli("explain", "Q3", "--json")
        assert code == 2

    def test_analyze_excludes_verbose(self):
        code, _ = run_cli("explain", "Q3", "--analyze", "--verbose")
        assert code == 2


class TestOptimizeVerbose:
    def test_exact_verbose(self):
        code, text = run_cli("optimize", "Q3", "-v")
        assert code == 0
        assert "engine: columnar" in text
        assert "pruned_states=" in text
        assert "timings:" in text and "bestplan" in text

    def test_resilient_verbose_lists_attempts(self):
        code, text = run_cli(
            "optimize", "Q3", "-v", "--deadline-s", "30"
        )
        assert code == 0
        assert "resilience: tier=" in text
        assert "exact: served" in text

    def test_sampled_verbose(self):
        code, text = run_cli("optimize", "Q3", "--sampled", "-v")
        assert code == 0
        assert "timings:" in text
        # first-touch work in counts, next to the wall times
        (line,) = [ln for ln in text.splitlines() if ln.startswith("first touch:")]
        counts = dict(item.split("=") for item in line.split()[2:])
        assert list(counts) == [
            "tables", "candidate_lists", "rows_built", "operators_built"
        ]
        assert 0 < int(counts["tables"]) <= int(counts["candidate_lists"])
        assert int(counts["candidate_lists"]) <= 3 * int(counts["tables"])
        assert 0 < int(counts["rows_built"])
        # drawing builds rows, never an operator; the column is the
        # request's operator cache after assembly: the leaves' scans and
        # the tower's operators, built with the space, plus the returned
        # plan's joins and sorts (the ``assemble`` span's own count)
        session = Session.tpch()
        sql = tpch_query("Q3").sql
        group_ops = session.implicit_plan_space(sql).state.operators.built
        traced = session.optimize(sql, method="sampled", seed=0, trace=True)
        plan_ops = traced.trace.find("assemble").counters["operators_built"]
        assert 0 < group_ops and 0 < plan_ops
        assert int(counts["operators_built"]) == group_ops + plan_ops
