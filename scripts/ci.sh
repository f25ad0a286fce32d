#!/usr/bin/env bash
# Repository check: the tier-1 test suite plus smokes that guard the
# implicit plan-space engine against regressing into re-materialization,
# exact optimization against falling off the columnar engine, the plan
# cache's tiers, the sampled optimizer's quality/laziness, the Section 4
# plan-testing loop, explain --analyze and feedback re-costing, plus a
# run of every example.  Every smoke asserts counts, costs and tiers,
# never a wall clock: performance is measured by benchmarks/perf, whose
# self-tests run here too.
#
#     bash scripts/ci.sh            # tier-1 + smokes
#     CI_SLOW=1 bash scripts/ci.sh  # additionally run the -m slow tier
#                                   # (the only variable read here)
#
# The count smoke asserts the one count pass's numbers: clique10's
# pinned N and virtual operator census, and the pinned N of a 25- and a
# 63-relation chain (universes past the count pass's old 18-relation
# word tables).

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

if [[ "${CI_SLOW:-0}" != "0" ]]; then
    echo "== slow tier =="
    python -m pytest -x -q -m slow
fi

echo "== implicit count smoke =="
python - <<'EOF'
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.workloads.synthetic import chain_query, clique_query

CHAIN63 = int(
    "8167755965813083143140197799737229305467342982980824989059202073"
    "1497884647211757320061047220049129028879676076311245387068192074"
    "2644570907973139644201225529851904"
)
for workload, expected, census in (
    (
        clique_query(10, rows=5, seed=0),
        2171074081505474005104170938254011092792438446472041794816,
        251009,
    ),
    (
        chain_query(25, rows=5, seed=0),
        15574360364329420776240810664552159216788423621366556127133696,
        None,
    ),
    (chain_query(63, rows=5, seed=0), CHAIN63, None),
):
    space = ImplicitPlanSpace.from_sql(
        workload.catalog, workload.sql, options=OptimizerOptions()
    )
    total = space.count()
    physical = space.physical_operator_count()
    print(f"{workload.name} no-cross: N={total:.3e} physical={physical}")
    assert total == expected, f"implicit {workload.name} count changed: {total}"
    assert census in (None, physical), (
        f"implicit {workload.name} operator census changed: {physical}"
    )
EOF

echo "== exact-path engine smoke =="
python - <<'EOF'
from repro.api import Session
from repro.workloads.synthetic import chain_query, clique_query, star_query

# The exact path must stay on its one engine, asserted in counts (wall
# time is benchmarks/perf's business): default options select the
# columnar engine end to end — batched logical store, array-backed
# physical store — and the hardest exact workload (clique12 no-cross,
# 523k logical joins, a 2.4M-physical-expression space) still lands on
# its known optimum to the bit.  The csg–cmp kernel's split counts are
# Moerkotte & Neumann's closed forms: (n-1)2^(n-2) for the star,
# (3^n - 2^(n+1) + 1)/2 for the clique, (n^3 - n)/6 for the 63-chain.
for workload, logical, splits, best_cost in (
    (star_query(12, rows=5, seed=0), 22542, 11264, None),
    (clique_query(12, rows=5, seed=0), 523264, 261625, 156.56),
):
    result = Session(workload.database).optimize(workload.sql)
    memo = result.memo
    print(
        f"{workload.name} no-cross: engine={result.engine} "
        f"logical={memo.logical_expression_count()} "
        f"physical={memo.physical_expression_count()} "
        f"best_cost={result.best_cost!r} "
        f"pruned_states={result.dp_stats['pruned']}"
    )
    assert result.engine == "columnar", (
        f"{workload.name} fell off the columnar engine: {result.fallback_reason}"
    )
    assert memo.columnar is not None and memo.columnar_logical is not None
    assert memo.logical_expression_count() == logical, (
        f"{workload.name} logical memo changed: "
        f"{memo.logical_expression_count()} != {logical}"
    )
    assert best_cost is None or result.best_cost == best_cost, (
        f"{workload.name} optimal cost changed: "
        f"{result.best_cost!r} != {best_cost}"
    )
    assert memo.columnar_logical.row_count == splits, (
        f"{workload.name} csg–cmp splits changed: "
        f"{memo.columnar_logical.row_count} != {splits}"
    )

chain63 = chain_query(63, rows=5, seed=0)
graph = Session(chain63.database).optimize(chain63.sql).graph
subsets, left, right, offsets = graph.enumeration_universe(False)
print(f"{chain63.name} no-cross: {len(subsets)} subsets, {len(left)} splits")
assert (len(subsets), len(left)) == (2016, 41664), (
    f"{chain63.name} csg–cmp universe changed: {len(subsets)} subsets, "
    f"{len(left)} splits"
)
EOF

echo "== engine limits smoke =="
# One engine up to the kernels' limit, one refusal past it — asserted on
# what the CLI prints and returns, not on how long it takes.  25 aliases
# (past the old 24-relation fork) are served with no fallback line; 64
# are refused with the error naming the limit and a non-zero exit.
chain_sql() {
    python - "$1" <<'EOF'
import sys
aliases = [f"n{i}" for i in range(int(sys.argv[1]))]
print(
    "SELECT n0.n_name FROM "
    + ", ".join(f"nation {a}" for a in aliases)
    + " WHERE "
    + " AND ".join(
        f"{a}.n_nationkey = {b}.n_nationkey" for a, b in zip(aliases, aliases[1:])
    )
)
EOF
}
served=$(python -m repro optimize "$(chain_sql 25)" -v)
[ "$(grep -c "fallback" <<<"$served" || true)" -eq 0 ]
[ "$(grep -c "^engine: columnar$" <<<"$served")" -eq 1 ]
[ "$(grep -c "^best cost" <<<"$served")" -eq 1 ]
if refused=$(python -m repro optimize "$(chain_sql 64)" 2>&1); then
    echo "a 64-relation query was served: $refused" >&2
    exit 1
fi
[ "$(grep -c "limit of 63 relations (64 given)" <<<"$refused")" -eq 1 ]
echo "chain25 served by the columnar engine; chain64 refused: $refused"

echo "== plan-serving smoke =="
python - <<'EOF'
from repro.api import Session
from repro.serving import PlanCache
from repro.workloads.synthetic import clique_query

# A warm plan-cache hit must come from the plan tier and be
# byte-identical to the cold optimization it replaces.  The literal
# variant then proves the template tier: exploration is replayed, not
# re-enumerated, and the plan still matches an uncached reference.
# Asserted on tiers and spans, not on timings; what a hit costs is
# measured by the serve-hot workload of benchmarks/perf.
workload = clique_query(10, rows=5, seed=0)
session = Session(workload.database, plan_cache=PlanCache())
sql = workload.sql + " AND t0.val < 999"

cold = session.optimize(sql)
warm = session.optimize(sql)
print(f"clique10 no-cross: warm tier={warm.cache.tier}")
assert warm.cache.tier == "plan", (
    f"second identical request served from tier {warm.cache.tier!r}, "
    "not the plan cache"
)
assert warm.explain() == cold.explain(), (
    "warm cache hit is not byte-identical to the cold plan"
)
assert warm.best_cost == cold.best_cost

# Same template, different literal: must skip enumeration via the
# cached logical store (span explore.cached, never explore).
variant = session.optimize(
    workload.sql + " AND t0.val < 1000000", trace=True
)
names = set()
stack = [variant.trace]
while stack:
    span = stack.pop()
    names.add(span.name)
    stack.extend(span.children)
assert variant.cache.tier == "template", (
    f"literal variant served from tier {variant.cache.tier!r}, not the "
    "template tier"
)
assert "explore.cached" in names and "explore" not in names, (
    "template-tier serve re-ran exploration instead of replaying the "
    "cached logical store"
)

# Through the front end: every warm request is answered on the caller's
# thread (none crosses the pool), byte-identical to an uncached
# optimization.  Counts, not timings.
from repro.serving import PlanServer

warm_requests = 50
reference = Session(workload.database).optimize(sql)
with PlanServer(workload.database, workers=2, cache=session.plan_cache) as server:
    results = [server.optimize(sql) for _ in range(warm_requests)]
    stats = server.stats()
print(
    f"PlanServer: {stats['served_inline']} of {warm_requests} warm requests "
    f"answered on the caller's thread, {stats['served_pooled']} pooled"
)
assert (stats["served_inline"], stats["served_pooled"]) == (warm_requests, 0), (
    "a warm request crossed the thread pool: the caller-side probe missed "
    "a plan the cache holds"
)
for result in results:
    assert result.cache.tier == "plan"
    assert result.best_plan.render() == reference.best_plan.render()
    assert repr(result.best_cost) == repr(reference.best_cost)
EOF

echo "== sampled optimize smoke =="
python - <<'EOF'
import gc
import weakref

from repro.obs.trace import Tracer, tracing
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.planspace.implicit import ImplicitPlanSpace
from repro.planspace.implicit.tables import JOIN_KINDS
from repro.sampledopt import SampledOptimizer
from repro.workloads.synthetic import clique_query

# The sampled optimizer must stay O(plan) where the memo is O(space):
# on clique10 no-cross it lands within the cost factor (2x) of
# the true optimum, seed-deterministically, and its unranking tables
# construct rows only for the operators its draws select -- at most one
# per pooled fragment plus the (<= 64) rows the strata descend through,
# a small share of the space's virtual operators -- and at most three
# candidate lists per touched group table (a group's sort enforcers
# share one).  Its operators come from the space's one operator cache:
# every leaf's and tower group's, built with the space, plus the join
# and sort operators of the returned plan -- drawing builds none.  The
# request also pays for its own space: with the cycle collector off,
# dropping the space and the result frees the count state by reference
# count and leaves no CountState / ImplicitLayout / TableSet /
# PhysicalOperators for a later collection.  All of these are counts: they repeat
# exactly on a shared host, where a wall-clock budget does not.
# The materialized optimizer runs afterwards to provide the optimum.
factor_cap = 2.0
options = OptimizerOptions()
warm = clique_query(4, rows=5, seed=0)  # lazy imports, process-wide caches
SampledOptimizer(warm.catalog, options).optimize_sql(warm.sql, samples=8, seed=0)
workload = clique_query(10, rows=5, seed=0)
gc.collect()
gc.disable()
space = ImplicitPlanSpace.from_sql(workload.catalog, workload.sql, options=options)
operators = space.physical_operator_count()
state = weakref.ref(space.state)

tracer = Tracer()
with tracing(tracer), tracer.span("smoke") as root:
    result = SampledOptimizer(workload.catalog, options).optimize_sql(
        workload.sql, seed=0, space=space
    )
sample = root.find("sample").counters
rows_built, tables, lists = (
    sample[name] for name in ("rows_built", "tables", "candidate_lists")
)
fragments = root.find("recombine").counters["fragments"]
best_cost, samples = result.best_cost, result.samples

cache, layout = space.state.operators, space.state.layout
group_ops = sum(
    len(cache.group(group.gid)) for group in layout.groups if group.kind != "join"
)
pairs, sorts = set(), set()
for node in result.best_plan.iter_nodes():
    row = space.unranker.tables.table(node.group_id).row_by_local(node.local_id)
    if row.kind in JOIN_KINDS:
        pairs.add(row.payload[:2])
    elif row.kind == "sort":
        sorts.add(row.payload[0])
plan_ops = sum(len(cache.joins(*pair)) for pair in pairs) + len(sorts)
operators_built = space.unranker.tables.operators_built
assert sample["operators_built"] == 0, (
    f"sampling built {sample['operators_built']} operators -- drawn plans "
    "must be priced without building join or sort operators"
)
assert operators_built == group_ops + plan_ops, (
    f"the request built {operators_built} operators, not the space's "
    f"{group_ops} leaf and tower operators plus the returned plan's "
    f"{plan_ops} join and sort operators"
)
del cache, layout, row, node

del space, result
assert state() is None, (
    "the count state outlived its space and result with the collector off "
    "-- an ownership cycle is back on the sampled route"
)
gc.set_debug(gc.DEBUG_SAVEALL)
gc.collect()
pinned = sorted(
    {type(obj).__name__ for obj in gc.garbage}
    & {"CountState", "ImplicitLayout", "TableSet", "PhysicalOperators"}
)
gc.set_debug(0)
gc.garbage.clear()
gc.enable()
assert not pinned, f"left for the cycle collector: {pinned}"

# The exact optimizer owns its memo the same way: the memo owns its
# columnar stores and operator cache, which read it back weakly, so the
# dropped optimum leaves no Memo / Group / store / cache for the collector.
gc.collect()
gc.disable()
optimum = Optimizer(workload.catalog, options).optimize_sql(workload.sql)
optimum_cost = optimum.best_cost
del optimum
gc.set_debug(gc.DEBUG_SAVEALL)
gc.collect()
pinned = sorted(
    {type(obj).__name__ for obj in gc.garbage}
    & {"Memo", "Group", "ColumnarPhysicalStore", "PhysicalOperators"}
)
gc.set_debug(0)
gc.garbage.clear()
gc.enable()
assert not pinned, (
    f"the dropped exact result left {pinned} for the cycle collector "
    "-- a memo <-> store cycle is back on the exact route"
)
factor = best_cost / optimum_cost
print(
    f"clique10 no-cross: sampled {best_cost:,.1f} vs optimum "
    f"{optimum_cost:,.1f} ({factor:.2f}x, cap {factor_cap:g}x); "
    f"{samples} samples built {rows_built} rows for {fragments} "
    f"fragments, of {operators} virtual operators; {lists} candidate "
    f"lists over {tables} group tables; {operators_built} operators "
    f"built ({group_ops} leaf/tower, {plan_ops} for the plan, 0 while "
    "sampling); space and exact memo freed by reference count"
)
assert factor <= factor_cap, (
    f"sampled optimization regressed to {factor:.2f}x the optimum "
    f"(> {factor_cap:g}x) — recombination or sampling quality broke"
)
assert rows_built <= fragments + 64 and rows_built < 0.25 * operators, (
    f"sampling built {rows_built} table rows ({fragments} fragments, "
    f"{operators} virtual operators) — did the unranking tables start "
    "materializing whole groups?"
)
assert lists <= 3 * tables, (
    f"{lists} candidate lists over {tables} group tables — are enforcer "
    "children back to one list per sort kid?"
)
EOF

echo "== plan-testing smoke =="
python - <<'EOF'
# The paper's Section 4 loop, in counts (no timing threshold): uniformly
# drawn plans of one query must all return the best plan's rows; a
# defective executor must still be caught, and the rank it reports must
# replay through OPTION (USEPLAN n) as the very plan it flagged; and the
# executor's compiled expressions must come out of its bounded code
# cache, not the compiler.
from repro.api import Session
from repro.executor.scalar import CODE_CACHE_SIZE, code_object
from repro.storage.datagen import generate_tpch
from repro.testing.diff import canonical_rows
from repro.testing.faults import IgnoredResidualExecutor
from repro.workloads.tpch_queries import TPCH_QUERIES
from tests.testing.test_faults import RESIDUAL_SQL, _validate as validate_with

database = generate_tpch(seed=0)
session = Session(database)
code_object.cache_clear()
for name in ("Q5", "Q9"):
    sql = TPCH_QUERIES[name].sql
    expected = canonical_rows(session.execute(sql).rows)
    plans = session.iterate_plans(sql, sample=200, seed=14)
    wrong = [rank for rank, result in plans if canonical_rows(result.rows) != expected]
    print(f"tpch {name}: 200 sampled plans executed, {len(wrong)} differ from the best plan")
    assert not wrong, f"{name}: plans {wrong[:5]} return different rows"

report = validate_with(database, IgnoredResidualExecutor(database), RESIDUAL_SQL)
print(f"ignored-residual executor: {len(report.mismatches)} mismatching plans reported")
assert len(report.mismatches) >= 1, "the harness no longer catches a forgotten residual"
flagged = report.mismatches[0]
useplan = session.plan_space(RESIDUAL_SQL).unrank(flagged.rank)
assert flagged.plan.render() == useplan.render(), (
    f"plan #{flagged.rank} as reported is not the plan USEPLAN {flagged.rank} runs"
)
executed = session.execute_detailed(f"{RESIDUAL_SQL} OPTION (USEPLAN {flagged.rank})")
assert executed.used_rank == flagged.rank and executed.rows
print(f"mismatch #{flagged.rank} replayed through USEPLAN: {len(executed.rows)} rows")

info = code_object.cache_info()
print(f"executor code cache: {info.hits} hits, {info.misses} misses, {info.currsize} kept")
assert info.hits > 10 * info.misses, f"compiled expressions are not being reused: {info}"
assert info.currsize <= CODE_CACHE_SIZE == info.maxsize, info
EOF

echo "== examples =="
# Each example must run to completion (exit status only: their output is
# prose for a reader, not a pinned figure), so an example that still
# imports a removed name fails here.
python - <<'EOF'
import pathlib
import subprocess
import sys

for example in sorted(pathlib.Path("examples").glob("*.py")):
    print(f"-- {example}")
    subprocess.run([sys.executable, str(example)], check=True, stdout=subprocess.DEVNULL)
EOF

echo "== benchmark self-tests =="
python -m pytest benchmarks/perf/tests -q

echo "== explain analyze smoke =="
python - <<'EOF'
import io
import json

from repro.cli import main

# repro explain --analyze --json on a TPC-H query must emit valid JSON
# whose per-operator actuals are populated.
out = io.StringIO()
code = main(["explain", "Q3", "--analyze", "--json"], out=out)
assert code == 0, f"explain --analyze --json exited {code}"
payload = json.loads(out.getvalue())
root = payload["stats"]["root"]
assert payload["best_cost"] > 0
assert payload["stats"]["operators"] >= 1
assert root["est_rows"] > 0
def walk(node):
    yield node
    for child in node.get("children", []):
        yield from walk(child)

scans = [n for n in walk(root) if n["op"].endswith("Scan")]
assert scans and all(n["actual_rows"] > 0 for n in scans), (
    "no scan operator reported actual rows"
)
print(
    f"Q3 explain analyze: {payload['stats']['operators']} operators, "
    f"root actual={root['actual_rows']} rows, valid JSON"
)
EOF

echo "== feedback re-costing smoke =="
python - <<'EOF'
from repro.api import Session
from repro.obs.feedback import plan_cost_under_ledger, true_cardinality_ledger
from repro.workloads.misestimated import misestimated_tpch
from repro.workloads.tpch_queries import tpch_query

# Close the loop on a seeded misestimated catalog: optimize, execute
# (feeding the session ledger), then optimize again with feedback.  The
# second choice, costed under *true* cardinalities, must be no worse
# than the first — and on this workload (inflated stats mispick Q3 by
# ~18x) it must actually land within the factor cap of the optimum.
factor_cap = 1.05
database = misestimated_tpch(seed=0)
session = Session(database)
sql = tpch_query("Q3").sql

first = session.optimize(sql)
oracle = true_cardinality_ledger(first, database)
binding = oracle.binding(first.graph.universe.order)
optimum_result = session.optimize(sql, feedback=oracle)
optimum = plan_cost_under_ledger(
    optimum_result.best_plan, optimum_result.memo,
    oracle.binding(optimum_result.graph.universe.order),
    optimum_result.cost_model,
)

def true_factor(result):
    cost = plan_cost_under_ledger(
        result.best_plan, result.memo,
        oracle.binding(result.graph.universe.order), result.cost_model,
    )
    return cost / optimum

first_factor = true_factor(first)
session.execute(sql, feedback=True)
second = session.optimize(sql, feedback=True)
second_factor = true_factor(second)
print(
    f"misestimated tpch Q3: true-cardinality cost factor "
    f"{first_factor:.4f}x -> {second_factor:.4f}x with feedback "
    f"(cap {factor_cap:g}x, {second.feedback.substituted} subplans "
    f"substituted)"
)
assert first_factor > 1.0 + 1e-9, (
    "the misestimated catalog no longer mispicks Q3 — the smoke lost "
    "its signal; re-seed workloads/misestimated.py"
)
assert second_factor <= first_factor + 1e-9, (
    f"feedback re-costing chose a worse plan ({first_factor:.4f}x -> "
    f"{second_factor:.4f}x under true cardinalities)"
)
assert second_factor <= factor_cap, (
    f"feedback re-costing left Q3 at {second_factor:.4f}x the true "
    f"optimum (> {factor_cap:g}x cap) — observed cardinalities are not "
    "reaching the estimator"
)
assert second.feedback is not None and second.feedback.substituted > 0, (
    "the second optimize reported no substituted cardinalities — the "
    "execution did not feed the session ledger"
)
EOF

echo "CI OK"
