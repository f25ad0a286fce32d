"""Experiment E11 (ablation) — cost-bound pruning vs the full space.

The paper recommends keeping *every* alternative for testing ("it is
useful to have the optimizer keep each alternative generated").  This
ablation quantifies the trade-off: how many plans survive pruning at
various cost budgets, and that the optimum always survives.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_report
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.optimizer.pruning import prune_memo
from repro.planspace.space import PlanSpace
from repro.workloads.tpch_queries import tpch_query

_ROWS = []


def _fresh(catalog, name="Q5"):
    return Optimizer(
        catalog, OptimizerOptions(allow_cross_products=False)
    ).optimize_sql(tpch_query(name).sql)


@pytest.mark.parametrize("factor", [1.0, 1.5, 2.0, 5.0, 20.0])
def test_pruning_factor_sweep(benchmark, catalog, factor):
    def run():
        result = _fresh(catalog)
        full = PlanSpace.from_result(result).count()
        removed = prune_memo(result.memo, result.cost_model, factor=factor)
        space = PlanSpace.from_result(result)
        pruned = space.count()
        # The optimum extracted before pruning is still a member of the
        # pruned space (rank raises otherwise), at the cost it had.
        space.rank(result.best_plan)
        best_after = result.cost_model.plan_cost(result.best_plan)
        return full, pruned, removed, result.best_cost, best_after

    full, pruned, removed, best_before, best_after = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    _ROWS.append((factor, full, pruned, removed))
    assert pruned <= full
    assert best_after == pytest.approx(best_before)
    if factor <= 1.5:
        assert pruned < full / 100  # tight budgets decimate the space


def test_pruning_report(benchmark):
    def noop():
        return len(_ROWS)

    benchmark.pedantic(noop, rounds=1, iterations=1)
    lines = [
        "Pruning ablation (E11) on TPC-H Q5 (no cross products):",
        f"{'factor':>7}  {'full space':>18}  {'pruned space':>18}  {'ops removed':>11}",
    ]
    for factor, full, pruned, removed in sorted(_ROWS):
        lines.append(
            f"{factor:>7.1f}  {full:>18,}  {pruned:>18,}  {removed:>11}"
        )
    lines.append(
        "\nThe optimizer's best plan survives every budget; the testing "
        "surface collapses, which is why the paper disables pruning when "
        "validating."
    )
    write_report("pruning_ablation.txt", "\n".join(lines))
