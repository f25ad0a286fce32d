"""ROADMAP's standing rule as a test: no knob, no environment variable,
no second engine.

There is one explorer, one exact engine, one emitter, one count pass and
one plan numbering.  These guards fail in tier-1 — not in review — when
an engine selector comes back as an optimizer option, an explorer or
store-builder argument, a count-state field, a plan-space keyword or CLI
flag, or an environment lookup (in ``src/`` or in ``scripts/ci.sh``,
which also keeps no timer), when the deleted rule engine, object
best-plan path, per-pair reference count pass, Python csg–cmp
enumerator, the two callers' own key-interning chains, the scalar
emission loop, the drawn-plan costing path, a second unranking descent,
a byte-prefix order test anywhere, a second owner of the kid universe,
a second copy of a cost formula or of the group-cardinality dispatch,
a second Section 5 pricing path, or a second operator cache (a rule
constructor or ``Sort`` called outside ``PhysicalOperators``) — or a
result served by any of them — reappears under ``src/``, or when
the materialized plan
space — now an oracle under ``tests/`` — is back in ``src/`` or imported
by it.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.api import PlanSpaceHandle, Session
from repro.cli import build_parser
from repro.kernel.vector import cut_key_table
from repro.memo.columnar import (
    build_columnar_store,
    build_logical_store,
    build_pair_record,
)
from repro.optimizer.cost import CostParameters
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import CountState, ImplicitPlanSpace
from repro.resilience.faults import FAULT_SITES
from repro.workloads.synthetic import chain_query, cycle_query, star_query
from repro.workloads.tpch_queries import tpch_query

SRC = Path(repro.__file__).resolve().parent
CI_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ci.sh"

#: the object best-plan path, moved under ``tests/`` as the oracle
DELETED_ENGINE = {
    "BestPlanSearch",
    "find_best_plan",
    "implement_memo",
    "_insert_enforcers",
    "_extract_best",
}


@functools.cache
def _src_trees() -> tuple[tuple[Path, ast.Module], ...]:
    """``src/`` parsed once for all the guards."""
    return tuple(
        (path.relative_to(SRC), ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(SRC.rglob("*.py"))
    )


def _src_nodes():
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            yield path, node


def _names_used(node) -> list[str]:
    """The names ``node`` defines, imports, references or spells as a
    string (``__all__`` entries, ``getattr`` keys)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        names = [a.name.rpartition(".")[2] for a in node.names]
        return names + [a.asname for a in node.names if a.asname]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    return []


def _src_uses(deleted) -> list[str]:
    """Every ``path:line: name`` under ``src/`` whose name ``deleted``
    accepts."""
    return [
        f"{path}:{node.lineno}: {name}"
        for path, node in _src_nodes()
        for name in _names_used(node)
        if deleted(name)
    ]


def test_optimizer_options_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(OptimizerOptions)) == (
        "allow_cross_products",
        "implementation",
        "cost_params",
        "pruning_factor",
        "prune_dominated",
    )


def test_enumeration_explorer_takes_no_arguments():
    assert not inspect.signature(EnumerationExplorer).parameters


def test_src_reads_no_environment_variables():
    offenders = []
    for path, node in _src_nodes():
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv", "putenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and any(a.name in ("environ", "getenv") for a in node.names)
        ):
            offenders.append(f"{path}:{node.lineno}")
    assert not offenders, offenders


def test_ci_script_reads_no_clock_and_one_knob():
    """``scripts/ci.sh`` asserts counts, costs and tiers — never a wall
    clock — and its one setting is ``CI_SLOW``.  A shell variable it
    assigns itself (``PYTHONPATH`` is extended with ``src``) is not a
    setting."""
    text = CI_SCRIPT.read_text()
    assert "perf_counter" not in text and "time.time" not in text
    assert not re.search(r"\b(environ|getenv)\b", text)
    read = set(re.findall(r"\$\{?([A-Za-z_]\w*)", text))
    assigned = set(re.findall(r"^\s*(?:if\s+|export\s+)?(\w+)=", text, re.M))
    assert read - assigned == {"CI_SLOW"}


def test_src_neither_defines_nor_imports_the_object_engine():
    offenders = _src_uses(DELETED_ENGINE.__contains__)
    assert not offenders, offenders


#: the per-pair count pass and its selectors, moved under ``tests/`` as
#: the oracle (``tests/planspace/reference_counting.py``), and the hash
#: interning whose collision fell back to it
DELETED_COUNT_PASS = {
    "_MAX_UNIVERSE_BITS",
    "turbo_used",
    "_count_rels_groups",
    "OrderIndex",
    "HashCollision",
    "intern_rows",
}


def test_count_pass_takes_no_selector():
    fields = {f.name for f in dataclasses.fields(CountState)}
    assert "use_turbo" not in fields
    for build in (ImplicitPlanSpace.from_query, ImplicitPlanSpace.from_sql):
        assert "use_turbo" not in inspect.signature(build).parameters


def test_src_defines_no_second_count_pass():
    offenders = []
    for path, node in _src_nodes():
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                t.id if isinstance(t, ast.Name) else t.attr
                for t in targets
                if isinstance(t, (ast.Name, ast.Attribute))
            ]
        else:
            continue
        offenders += [
            f"{path}:{node.lineno}: {name}"
            for name in names
            if name in DELETED_COUNT_PASS
        ]
    assert not offenders, offenders


def test_count_pass_has_no_collision_fallback():
    (turbo,) = [
        tree
        for path, tree in _src_trees()
        if path.as_posix() == "planspace/implicit/turbo.py"
    ]
    imported = {
        alias.name
        for node in ast.walk(turbo)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "HashCollision" not in imported


#: the rule engine and its selectors, moved under ``tests/`` as the
#: oracle (``tests/optimizer/reference_transformation.py``); ``RULE_*``
#: matches by prefix
DELETED_EXPLORER = {
    "TransformationExplorer",
    "ExplorationStrategy",
    "RuleSet",
    "DEFAULT_RULES",
}


def test_src_neither_defines_nor_references_the_rule_engine():
    offenders = _src_uses(
        lambda name: name in DELETED_EXPLORER or name.startswith("RULE_")
    )
    assert not offenders, offenders


#: the Python DPccp, moved under ``tests/`` as the oracle
#: (``tests/optimizer/reference_enumeration.py``): the vectorized csg–cmp
#: kernel is the one enumerator
DELETED_ENUMERATOR = {
    "_grow_connected",
    "_connected_within",
    "partitions_m",
    "cross_splits_m",
    "csg_cmp_buckets",
    "connected_subset_masks",
    "all_subset_masks",
}


def test_src_neither_defines_nor_references_the_python_enumerator():
    offenders = _src_uses(DELETED_ENUMERATOR.__contains__)
    assert not offenders, offenders
    for name in ("partitions", "connected_subsets", "all_subsets"):
        assert not hasattr(JoinGraph, name), name


def test_enumeration_takes_no_selector_or_threshold():
    """The kernel serves every graph: neither entry point grows a
    parameter that could route small graphs elsewhere."""
    assert list(inspect.signature(JoinGraph.enumeration_universe).parameters) == [
        "self",
        "allow_cross_products",
        "on_level",
    ]
    assert list(inspect.signature(build_logical_store).parameters) == [
        "memo",
        "graph",
        "allow_cross_products",
        "scope",
    ]


#: the per-chunk cut decode and the byte-row lexsort the exact emitter
#: and the count pass each chained, moved under ``tests/`` as the oracle
#: (``tests/kernel/reference_keys.py``): ``cut_key_table`` is the one
#: key table
DELETED_KEY_CHAIN = {"decode_bit_rows", "DECODE_CHUNK", "lex_unique_rows"}


def test_src_neither_defines_nor_references_the_key_chains():
    offenders = _src_uses(DELETED_KEY_CHAIN.__contains__)
    assert not offenders, offenders


#: the per-group scalar emission loop, moved under ``tests/`` as the
#: oracle (``tests/memo/reference_emission.py``): the vectorized pass is
#: the one emitter, index-lookup joins and the heuristic tier included
DELETED_EMITTER = {"_emit_rows_scalar"}


def test_src_neither_defines_nor_references_the_scalar_emitter():
    offenders = _src_uses(DELETED_EMITTER.__contains__)
    assert not offenders, offenders


#: the drawn-plan path (unrank every draw, price the trees, pool them),
#: moved under ``tests/`` as the oracle
#: (``tests/sampledopt/reference_costing.py``), and the two recursive
#: descents ``ImplicitUnranker.descend`` replaced
DELETED_DESCENTS = {"cost_ranks", "_unrank_among", "_trace_among"}


def test_src_has_one_unranking_descent():
    offenders = _src_uses(DELETED_DESCENTS.__contains__)
    assert not offenders, offenders
    # operator selection bisects a candidate list's prefix sums in one place
    selections = [
        f"{path}:{node.lineno}"
        for path, node in _src_nodes()
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("bisect_right", "bisect_left")
        and "cumulative" in ast.unparse(node.args[0])
    ]
    assert len(selections) == 1, selections
    assert selections[0].startswith("planspace/implicit/unranking.py:")


def test_group_tables_test_no_byte_prefixes():
    """Order satisfaction anywhere under ``src/`` is the pair record's
    kid interval ``q <= d < kid_hi[q]``; the bytes tests it replaced are
    oracles under ``tests/`` (``reference_satisfaction.py`` for the group
    tables), with no ``startswith`` left beside the interval."""
    offenders = [
        f"{path}:{node.lineno}"
        for path, node in _src_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "startswith"
    ]
    assert not offenders, offenders


#: the DP's second interval kernel and its dispatch, the emitter's
#: requirement tail and the count pass's own loose-order lists, and the
#: ordered-pair walk only the scalar emission oracle read — each moved
#: under ``tests/`` or deleted: the pair record owns the kid universe
DELETED_ORDER_RULES = {
    "prefix_interval_ends",
    "_interval_ends",
    "_record_tail_requirements",
    "_tower_requirement_seqs",
    "_tower_delivery_seqs",
    "ordered_pairs",
}


def test_src_has_one_order_rule():
    offenders = _src_uses(DELETED_ORDER_RULES.__contains__)
    assert not offenders, offenders
    # one interval sweep, in the one owner of the kid universe
    calls = [
        f"{path.as_posix()}:{function.name}"
        for path, tree in _src_trees()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and "prefix_intervals" in _names_used(node.func)
    ]
    assert calls == ["memo/columnar.py:build_pair_record"], calls
    assert "loose_seqs" not in inspect.signature(build_pair_record).parameters


#: ``ImplicitGroup``'s per-group split walks, read only by the count-pass
#: oracle, moved under ``tests/`` (``tests/planspace/reference_counting.py``)
DELETED_LAYOUT_HELPERS = {"splits", "ordered_exprs", "_splits"}


def test_layout_keeps_no_split_walk():
    offenders = _src_uses(DELETED_LAYOUT_HELPERS.__contains__)
    assert not offenders, offenders


def test_store_builder_takes_no_emission_selector():
    assert list(inspect.signature(build_columnar_store).parameters) == [
        "memo",
        "graph",
        "catalog",
        "config",
        "root_order",
        "scope",
        "edges",
    ]


def test_cut_key_table_takes_no_selector_or_threshold():
    """One table for every query: no parameter could route a size class
    (or a caller) to another decode."""
    assert list(inspect.signature(cut_key_table).parameters) == [
        "cut_words",
        "left_lut",
        "right_lut",
        "extra_seqs",
        "on_block",
    ]


def test_no_object_fault_site_survives():
    assert not [s for s in FAULT_SITES if s.endswith(".object")]
    assert len(FAULT_SITES) == 6


ENGINE_MATRIX = {
    "default": OptimizerOptions(),
    "cross-products": OptimizerOptions(allow_cross_products=True),
    "index-nl-join": OptimizerOptions(
        implementation=ImplementationConfig(enable_index_nl_join=True)
    ),
    "pruned": OptimizerOptions(pruning_factor=1.5),
    "no-dominated-pruning": OptimizerOptions(prune_dominated=False),
}


@pytest.mark.parametrize("options", ENGINE_MATRIX.values(), ids=ENGINE_MATRIX)
def test_result_engine_is_one_of_three(options):
    """Over options x shapes x routes, a result only ever names the exact
    engine or a degradation tier (the sampled flavour carries no
    ``engine`` field at all)."""
    workloads = [star_query(5, rows=5, seed=0), cycle_query(5, rows=5, seed=0)]
    if options == OptimizerOptions():
        # past the old 24-relation fork
        workloads.append(chain_query(25, rows=5, seed=0))
    seen = set()
    for workload in workloads:
        session = Session(workload.database, options=options)
        exact = session.optimize(workload.sql)
        assert exact.engine == "columnar" and exact.fallback_reason is None
        results = [exact, session.optimize(workload.sql, deadline_s=60.0)]
        # A deadline too short for any budgeted tier: the greedy floor.
        floor = session.optimize(workload.sql, deadline_s=1e-6)
        assert floor.engine == "heuristic" and floor.fallback_reason
        results.append(floor)
        if options.pruning_factor is None:
            results.append(
                session.optimize(workload.sql, method="sampled", samples=16)
            )
        seen |= {getattr(result, "engine", "sampled") for result in results}
    assert {"columnar", "heuristic"} <= seen <= {"columnar", "sampled", "heuristic"}


#: the materialized plan space, moved under ``tests/planspace/materialized``
#: as the oracle
MOVED_MODULES = [
    f"repro.planspace.{name}"
    for name in ("space", "links", "counting", "unranking", "enumeration", "export")
] + ["repro.workloads.paper_example"]
#: what ``repro.planspace`` exports: the one engine, the rank-drawing
#: contract and the two diagnostics that read its tables
PLANSPACE_PRODUCTION_EXPORTS = {
    "ImplicitPlanSpace",
    "RankSampler",
    "SpaceDiff",
    "diff_spaces",
    "participation_counts",
    "participation_report",
}


def test_src_imports_nothing_from_tests():
    """No ``src/`` module reaches into ``tests/`` — where the oracles,
    the materialized plan space among them, live."""
    offenders = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.as_posix()}:{node.lineno}: {name}"
                for name in names
                if name == "tests" or name.startswith("tests.")
            ]
    assert not offenders, offenders


@pytest.mark.parametrize("module", MOVED_MODULES)
def test_the_materialized_engine_left_src(module):
    assert importlib.util.find_spec(module) is None, module


def test_package_exports_no_materialized_space():
    import repro.planspace

    assert not hasattr(repro, "PlanSpace")
    assert set(repro.planspace.__all__) == PLANSPACE_PRODUCTION_EXPORTS


def test_plan_numbering_takes_no_engine_selector():
    assert list(inspect.signature(Session.count_plans).parameters) == [
        "self",
        "sql",
    ]
    assert [f.name for f in dataclasses.fields(PlanSpaceHandle)] == ["space"]
    assert not hasattr(PlanSpaceHandle, "materialize")
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action.choices, dict)
    ]
    for name, command in commands.items():
        flags = {flag for action in command._actions for flag in action.option_strings}
        assert "--implicit" not in flags, name


def test_held_keywords_select_nothing():
    """``plan_space(count_only=)`` and ``iterate_plans(implicit=)`` stay
    accepted only because ``benchmarks/perf`` passes them; ROADMAP 1(b),
    the benchmark change, deletes both (and ``PlanSpaceHandle``).  Until
    then each value runs the one code path."""
    workload = chain_query(4, rows=5, seed=0)
    session = Session(workload.database)
    on = session.plan_space(workload.sql, count_only=True)
    off = session.plan_space(workload.sql, count_only=False)
    assert type(on) is type(off) is PlanSpaceHandle
    renders = lambda space: [plan.render() for plan in space.sample(6, seed=3)]
    assert renders(on) == renders(off)

    def executed(implicit):
        plans = session.iterate_plans(
            workload.sql, sample=4, seed=3, implicit=implicit
        )
        return [(rank, result.rows) for rank, result in plans]

    assert executed(True) == executed(False)


#: the two front halves that each derived a logical store's ordered
#: pairs, cut keys, index lookups and merge registry, moved under
#: ``tests/`` as the oracle (``tests/memo/reference_pairs.py``):
#: ``build_pair_record`` is the one derivation
DELETED_PAIR_DERIVATIONS = {"emitter_front_half", "count_front_half"}
PAIR_RECORD_STEPS = ("cut_key_table", "index_lookup_matches", "union_words_by_mask")


def test_src_derives_the_pair_description_once():
    offenders = _src_uses(DELETED_PAIR_DERIVATIONS.__contains__)
    assert not offenders, offenders
    for step in PAIR_RECORD_STEPS:
        calls = []
        for path, tree in _src_trees():
            for function in ast.walk(tree):
                if not isinstance(function, ast.FunctionDef):
                    continue
                calls += [
                    f"{path.as_posix()}:{function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and step in _names_used(node.func)
                ]
        assert calls == ["memo/columnar.py:build_pair_record"], (step, calls)


def test_each_route_builds_one_key_table(monkeypatch):
    """One exact optimize, one sampled optimize and one ``count_plans``
    each build one key table and one cut-key table."""
    import repro.memo.columnar as columnar
    from repro.planspace.implicit.keys import KeyTable

    built = {"KeyTable": 0, "cut_key_table": 0}
    init = KeyTable.__init__

    def counting_init(self, *args, **kwargs):
        built["KeyTable"] += 1
        init(self, *args, **kwargs)

    def counting_table(*args, **kwargs):
        built["cut_key_table"] += 1
        return cut_key_table(*args, **kwargs)

    monkeypatch.setattr(KeyTable, "__init__", counting_init)
    monkeypatch.setattr(columnar, "cut_key_table", counting_table)
    workload = star_query(5, rows=5, seed=0)
    session = Session(workload.database)
    routes = {
        "exact": lambda: session.optimize(workload.sql),
        "sampled": lambda: session.optimize(
            workload.sql, method="sampled", samples=16
        ),
        "count": lambda: session.count_plans(workload.sql),
    }
    for name, route in routes.items():
        built.update(KeyTable=0, cut_key_table=0)
        route()
        assert built == {"KeyTable": 1, "cut_key_table": 1}, name


#: each operator constructor -> the one function under ``src/`` that
#: calls it: the operator cache's
OPERATOR_CONSTRUCTORS = {
    "scan_implementations": "optimizer/rules.py:PhysicalOperators.group",
    "unary_implementations": "optimizer/rules.py:PhysicalOperators.group",
    "join_implementations": "optimizer/rules.py:PhysicalOperators.joins",
    "index_nl_join_implementations": (
        "optimizer/rules.py:PhysicalOperators.index_joins"
    ),
    "Sort": "optimizer/rules.py:PhysicalOperators.sort",
}
#: the per-consumer operator caches the one cache replaced
DELETED_OPERATOR_CACHES = {
    "ops_by_gid",
    "group_ops",
    "join_ops",
    "inlj_ops",
    "_group_ops",
    "_join_ops",
    "_inlj_ops",
    "scan_ops",
    "_scan_ops",
    "_sort_ops",
    "_join_impls",
    "_inlj_list",
}


def _callers(name: str) -> set[str]:
    """``path:[Class.]function`` of every ``src/`` function calling
    ``name``."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in _names_used(child.func):
                found.add(f"{path.as_posix()}:{'.'.join(scope)}")
            visit(child, path, scope)

    for path, tree in _src_trees():
        visit(tree, path, ())
    return found


def test_operators_are_built_in_one_cache():
    """The four rule constructors and ``Sort`` are called from the
    operator cache only: no consumer builds or caches operators itself."""
    offenders = _src_uses(DELETED_OPERATOR_CACHES.__contains__)
    assert not offenders, offenders
    for name, home in OPERATOR_CONSTRUCTORS.items():
        assert _callers(name) == {home}, name


def test_each_route_builds_each_group_operator_once(monkeypatch):
    """One exact optimize, one sampled optimize and one ``count_plans`` of
    Q5 each create one operator cache and call the scan rule once per
    leaf (6) and the unary rule once per tower group (2)."""
    from repro.optimizer import rules

    calls = {"caches": 0, "scan": 0, "unary": 0}
    init = rules.PhysicalOperators.__init__
    scan = rules.scan_implementations
    unary = rules.unary_implementations

    def counting_init(self, *args, **kwargs):
        calls["caches"] += 1
        init(self, *args, **kwargs)

    def counting_scan(*args, **kwargs):
        calls["scan"] += 1
        return scan(*args, **kwargs)

    def counting_unary(*args, **kwargs):
        calls["unary"] += 1
        return unary(*args, **kwargs)

    monkeypatch.setattr(rules.PhysicalOperators, "__init__", counting_init)
    monkeypatch.setattr(rules, "scan_implementations", counting_scan)
    monkeypatch.setattr(rules, "unary_implementations", counting_unary)
    session = Session.tpch()
    sql = tpch_query("Q5").sql
    routes = {
        "exact": lambda: session.optimize(sql),
        "sampled": lambda: session.optimize(sql, method="sampled", samples=16),
        "count": lambda: session.count_plans(sql),
    }
    for name, route in routes.items():
        calls.update(caches=0, scan=0, unary=0)
        route()
        assert calls == {"caches": 1, "scan": 6, "unary": 2}, name


#: the estimator's three group estimates: only annotate's one per-group
#: dispatch (``group_cardinality``) calls them
GROUP_ESTIMATES = {
    "relation_set_cardinality",
    "select_cardinality",
    "aggregate_cardinality",
}
#: what prices an assembled plan tree
PLAN_PRICING = {"plan_cost", "plan_costs", "operator_cost"}


def _calls(names) -> list[str]:
    """Every ``path:line`` under ``src/`` that calls one of ``names``."""
    return [
        f"{path.as_posix()}:{node.lineno}"
        for path, node in _src_nodes()
        if isinstance(node, ast.Call) and set(_names_used(node.func)) & names
    ]


def test_cost_formulas_live_in_the_cost_model():
    """Each cost formula is written once, in ``optimizer/cost.py``: no
    other module reads a ``CostParameters`` field, and the operator
    formula table stays private to it (the DP and the sampled coster
    read the published ``CARDINALITY_FORMULAS``)."""
    fields = {field.name for field in dataclasses.fields(CostParameters)}
    # a method of the same name (``Table.index_lookup``) is not a read
    called = {
        id(node.func) for _path, node in _src_nodes() if isinstance(node, ast.Call)
    }
    reads = [
        f"{path}:{node.lineno}: {node.attr}"
        for path, node in _src_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr in fields
        and id(node) not in called
        and path.as_posix() != "optimizer/cost.py"
    ]
    assert not reads, reads
    private = [
        use
        for use in _src_uses("_FORMULAS".__eq__)
        if not use.startswith("optimizer/cost.py:")
    ]
    assert not private, private


def test_group_cardinality_is_dispatched_once():
    calls = _calls(GROUP_ESTIMATES)
    assert len(calls) == len(GROUP_ESTIMATES), calls
    assert all(call.startswith("optimizer/annotate.py:") for call in calls), calls


def test_section5_samples_are_priced_on_the_walk():
    """The materialized distribution prices its draws through the
    sampled optimizer's walk, not by unranking and pricing plan trees."""
    offenders = [
        call
        for call in _calls(PLAN_PRICING)
        if call.startswith("experiments/distributions.py:")
    ]
    assert not offenders, offenders


#: the caches join predicates once kept on themselves: each held an
#: object pointing back at its predicate
DELETED_PREDICATE_CACHES = {"_eq_analysis", "_nlj_op"}


def _self_assignments(tree):
    """``(attribute, value)`` of every ``self.<attribute> = value`` in
    ``tree``, tuple targets included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for element in target.elts if isinstance(target, ast.Tuple) else [target]:
                if (
                    isinstance(element, ast.Attribute)
                    and isinstance(element.value, ast.Name)
                    and element.value.id == "self"
                ):
                    yield element.attr, node.value


def test_columnar_stores_hold_their_memo_weakly():
    """Owners point down: the memo owns its columnar stores, so no class
    in ``memo/columnar.py`` assigns a strong ``self.memo`` — a store's
    only reference to its memo is a ``weakref.ref`` — and no predicate
    caches anything on itself."""
    tree = dict(_src_trees())[Path("memo/columnar.py")]
    offenders = [
        f"{cls.name}.{attribute}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for attribute, value in _self_assignments(cls)
        if "memo" in attribute
        and not (
            isinstance(value, ast.Call)
            and _names_used(value.func) == ["ref"]
            and isinstance(value.func, ast.Attribute)
            and _names_used(value.func.value) == ["weakref"]
        )
    ]
    assert not offenders, offenders
    assert not _src_uses(DELETED_PREDICATE_CACHES.__contains__)
