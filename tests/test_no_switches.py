"""ROADMAP's standing rule as a test: no knob, no environment variable,
no second engine.

There is one explorer, one exact engine, one count pass and one plan
numbering.  These guards fail in tier-1 — not in review — when an engine
selector comes back as an optimizer option, an explorer argument, a
count-state field, a plan-space keyword or CLI flag, or an environment
lookup (in ``src/`` or in ``scripts/ci.sh``, which also keeps no timer),
when the deleted rule engine, object best-plan path, per-pair reference
count pass, Python csg–cmp enumerator, the two callers' own key-interning
chains (or a result served by any of them) reappears under ``src/``, or
when the materialized plan space — now an oracle under ``tests/`` — is
back in ``src/`` or imported by it.
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
from repro.memo.columnar import build_logical_store
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.optimizer import OptimizerOptions
from repro.planspace.implicit import CountState, ImplicitPlanSpace
from repro.resilience.faults import FAULT_SITES
from repro.workloads.synthetic import chain_query, cycle_query, star_query

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
