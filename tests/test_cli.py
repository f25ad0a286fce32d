"""Tests for the command-line interface."""

import io

import pytest

from repro.api import Session
from repro.cli import main
from repro.sampledopt import distribution_report
from repro.workloads.tpch_queries import tpch_query

TWO_TABLE = (
    "SELECT n.n_name, r.r_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCount:
    def test_named_query(self):
        code, text = run_cli("count", "Q3")
        assert code == 0
        assert "plans:" in text

    def test_raw_sql(self):
        code, text = run_cli("count", TWO_TABLE)
        assert code == 0
        assert "groups:" in text

    def test_cross_products_flag(self):
        _, no_cross = run_cli("count", "Q3")
        _, with_cross = run_cli("--cross-products", "count", "Q3")
        plans_no = int(no_cross.split("plans: ")[1].replace(",", ""))
        plans_with = int(with_cross.split("plans: ")[1].replace(",", ""))
        assert plans_with > plans_no

    def test_unknown_query_name(self):
        code, _ = run_cli("count", "Q99")
        assert code == 2


class TestExplainAndUnrank:
    def test_explain(self):
        code, text = run_cli("explain", "Q3")
        assert code == 0
        assert "best cost" in text

    def test_explain_verbose(self):
        code, text = run_cli("explain", "Q3", "--verbose")
        assert code == 0
        assert "est. rows" in text and "TOTAL" in text

    def test_unrank(self):
        code, text = run_cli("unrank", "Q3", "13")
        assert code == 0
        assert "[" in text  # memo ids rendered

    def test_unrank_with_trace(self):
        code, text = run_cli("unrank", "Q3", "13", "--trace")
        assert code == 0
        assert "unranked rank 13" in text


class TestSampleAndExecute:
    def test_sample(self):
        code, text = run_cli("sample", "Q3", "-n", "5", "--seed", "1")
        assert code == 0
        assert text.count("#") >= 5

    def test_sample_analyze(self):
        code, text = run_cli("sample", "Q3", "-n", "5", "--analyze")
        assert code == 0
        assert "join-tree shapes" in text

    def test_execute(self):
        code, text = run_cli("execute", TWO_TABLE, "--limit", "3")
        assert code == 0
        assert "n_name" in text

    def test_execute_with_useplan(self):
        code, text = run_cli(
            "execute", TWO_TABLE + " OPTION (USEPLAN 3)", "--limit", "3"
        )
        assert code == 0


class TestOptimize:
    def test_exhaustive_default(self):
        code, text = run_cli("optimize", "Q3")
        assert code == 0
        assert "best cost" in text
        assert "sampled" not in text
        assert "engine:" not in text  # the default engine needs no -v line

    def test_fallback_engine_is_never_silent(self):
        """The only fallback left is the ladder's heuristic tier, and it
        says so without ``-v``; 25 relations are not one — the one engine
        serves them, so nothing is printed."""
        aliases = [f"n{i}" for i in range(25)]
        sql = (
            "SELECT n0.n_name FROM "
            + ", ".join(f"nation {alias}" for alias in aliases)
            + " WHERE "
            + " AND ".join(
                f"{a}.n_nationkey = {b}.n_nationkey"
                for a, b in zip(aliases, aliases[1:])
            )
        )
        code, text = run_cli("optimize", sql)
        assert code == 0
        assert "fallback" not in text and "engine:" not in text
        assert "best cost" in text
        code, text = run_cli("optimize", sql, "-v")
        assert code == 0
        assert "engine: columnar\n" in text
        code, text = run_cli("optimize", "Q5", "--deadline-s", "0.000001")
        assert code == 0
        assert (
            "engine: heuristic (fallback: greedy join order tier "
            "(no exploration))"
        ) in text
        assert "best cost" in text

    def test_sampled(self):
        code, text = run_cli(
            "optimize", "Q3", "--sampled", "--samples", "40", "--seed", "1"
        )
        assert code == 0
        assert "sampled optimization: 40 samples" in text
        assert "best cost" in text
        assert "recombined" in text

    def test_sampled_seed_determinism(self):
        import re

        def strip_timings(text: str) -> str:
            # The report embeds wall-clock seconds ("; 0.06s"), which are
            # genuinely nondeterministic — everything else must match.
            return re.sub(r"\d+\.\d+s", "_s", text)

        _, first = run_cli(
            "optimize", "Q3", "--sampled", "--samples", "30", "--seed", "5"
        )
        _, second = run_cli(
            "optimize", "Q3", "--sampled", "--samples", "30", "--seed", "5"
        )
        assert strip_timings(first) == strip_timings(second)

    def test_sampled_budget_flag(self):
        # A deadline that has already passed when the first batch's
        # post-batch check runs: one batch completes, then the run stops.
        code, text = run_cli(
            "optimize", "Q3", "--sampled", "--budget-s", "1e-9"
        )
        assert code == 0
        assert "stopped: budget" in text

    def test_sampled_rule_quantile(self):
        code, text = run_cli(
            "optimize",
            "Q3",
            "--sampled",
            "--rule",
            "quantile",
            "--quantile",
            "0.05",
            "--confidence",
            "0.9",
        )
        assert code == 0
        assert "quantile-target" in text

    def test_sampled_uniform_flag(self):
        code, text = run_cli(
            "optimize", "Q3", "--sampled", "--samples", "20", "--uniform"
        )
        assert code == 0
        assert "sampled optimization: 20 samples" in text

    def test_sampling_flags_require_sampled(self):
        for flags in (
            ["--samples", "10"],
            ["--seed", "5"],
            ["--budget-s", "1"],
            ["--rule", "plateau"],
            ["--quantile", "0.01"],
            ["--confidence", "0.9"],
            ["--uniform"],
        ):
            code, _ = run_cli("optimize", "Q3", *flags)
            assert code == 2, flags

    def test_fixed_rule_requires_samples(self):
        code, _ = run_cli("optimize", "Q3", "--sampled", "--rule", "fixed")
        assert code == 2

    def test_quantile_flags_require_quantile_rule(self):
        code, _ = run_cli(
            "optimize", "Q3", "--sampled", "--samples", "10",
            "--quantile", "0.01",
        )
        assert code == 2


class TestDistribution:
    def test_memo_free_default(self):
        code, text = run_cli("distribution", "Q3", "--samples", "80")
        assert code == 0
        assert "best known plan" in text
        assert "quantiles:" in text
        assert "within factor:" in text

    def test_materialized_scales_to_optimum(self):
        code, text = run_cli(
            "distribution", "Q3", "--samples", "80", "--materialized"
        )
        assert code == 0
        assert "scaled to the optimum" in text

    def test_stratified(self):
        code, text = run_cli(
            "distribution", "Q3", "--samples", "80", "--stratified"
        )
        assert code == 0
        assert "N = " in text

    def test_stratified_with_materialized_prints_the_api_distribution(self):
        code, text = run_cli(
            "distribution", "Q3", "--samples", "60", "--seed", "3",
            "--materialized", "--stratified",
        )
        assert code == 0
        dist = Session.tpch().cost_distribution(
            tpch_query("Q3").sql,
            query_name="Q3",
            sample_size=60,
            seed=3,
            materialized=True,
            stratified=True,
        )
        assert text == distribution_report(dist, scaled_to_optimum=True) + "\n"

    def test_seed_determinism(self):
        _, first = run_cli("distribution", "Q3", "--samples", "60", "--seed", "2")
        _, second = run_cli("distribution", "Q3", "--samples", "60", "--seed", "2")
        assert first == second


class TestValidate:
    def test_validate_passes(self):
        code, text = run_cli("validate", TWO_TABLE, "--sample", "20")
        assert code == 0
        assert "identical results" in text


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "Q3", "--sample", "-1"),
        ("validate", "Q3", "--sample", "0"),
        ("sample", "Q3", "-n", "-2"),
        ("sample", "Q3", "-n", "0"),
    ],
    ids=["validate-negative", "validate-zero", "sample-negative", "sample-zero"],
)
def test_sample_size_must_be_positive(argv, capsys):
    """A sample of no plans validates nothing: refused at the parser
    (exit 2), never reported as a pass."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


class TestParticipationAndDiff:
    def test_participation(self):
        code, text = run_cli("participation", TWO_TABLE)
        assert code == 0
        assert "participation" in text
        assert "%" in text

    def test_diff_identical(self):
        code, text = run_cli("diff", "Q3")
        assert code == 0
        assert "identical" in text

    def test_diff_variant(self):
        code, text = run_cli("diff", "Q3", "--no-merge-join")
        assert code == 0
        assert "removed" in text

    def test_diff_index_joins(self):
        code, text = run_cli("diff", "Q3", "--index-joins")
        assert code == 0
        assert "added" in text


def _oracle_output(argv: list[str]) -> str:
    """What the materialized oracle prints for a diagnostic command."""
    from repro.api import Session
    from repro.optimizer.implementation import ImplementationConfig
    from repro.optimizer.optimizer import Optimizer, OptimizerOptions
    from repro.workloads.tpch_queries import tpch_query
    from tests.planspace.materialized.diff import diff_spaces
    from tests.planspace.materialized.participation import participation_report
    from tests.planspace.materialized.space import PlanSpace

    cross = argv[0] == "--cross-products"
    command, query, *rest = argv[cross:]
    catalog = Session.tpch(seed=0).catalog
    sql = tpch_query(query).sql

    def space(**config) -> PlanSpace:
        options = OptimizerOptions(
            allow_cross_products=cross,
            implementation=ImplementationConfig(**config),
        )
        return PlanSpace.from_result(Optimizer(catalog, options).optimize_sql(sql))

    if command == "participation":
        return participation_report(space().linked) + "\n"
    if command == "unrank":
        plan, trace = space().unrank_with_trace(int(rest[0]))
        return trace.render() + "\n\n" + plan.render() + "\n"
    flags = {
        "--no-merge-join": {"enable_merge_join": False},
        "--index-joins": {"enable_index_nl_join": True},
    }
    candidate = space(**{k: v for flag in rest for k, v in flags[flag].items()})
    return diff_spaces(space().linked, candidate.linked).render() + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["participation", "Q3"],
        ["--cross-products", "participation", "Q3"],
        ["diff", "Q3", "--no-merge-join"],
        ["diff", "Q5", "--index-joins"],
        ["unrank", "Q3", "13", "--trace"],
    ],
    ids=" ".join,
)
def test_diagnostics_print_the_oracles_rendering(argv):
    """The diagnostics read the implicit tables, and print byte for byte
    what the materialized oracle's walk over its links prints."""
    code, text = run_cli(*argv)
    assert code == 0
    assert text == _oracle_output(argv)


class TestCorpusCommands:
    def test_build_and_verify(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        code, text = run_cli(
            "corpus-build", path, "--queries", "Q3", "--plans", "8"
        )
        assert code == 0
        assert "recorded 8 golden plans" in text
        code, text = run_cli("corpus-verify", path)
        assert code == 0
        assert "all digests match" in text

    def test_verify_fails_on_different_data(self, tmp_path):
        path = str(tmp_path / "corpus.json")
        run_cli(
            "corpus-build",
            path,
            "--queries",
            "SELECT c.c_name, n.n_name FROM customer c, nation n "
            "WHERE c.c_nationkey = n.n_nationkey",
            "--plans",
            "5",
        )
        code, text = run_cli("--data-seed", "77", "corpus-verify", path)
        assert code == 1
        assert "FAIL" in text


class TestExperimentCommands:
    def test_table1_single_query(self):
        code, text = run_cli("table1", "--samples", "50", "--queries", "Q3")
        assert code == 0
        assert "no-cross" in text and "+cross" in text

    def test_figure4(self):
        code, text = run_cli("figure4", "Q3", "--samples", "200")
        assert code == 0
        assert "#" in text
        assert "gamma shape" in text
