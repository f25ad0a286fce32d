"""ROADMAP's standing rule as a test: no knob, no environment variable.

The exact path picks its engine from the query.  These guards fail in
tier-1 — not in review — when an engine selector comes back as an
optimizer option, an explorer argument, or an environment lookup.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.optimizer import OptimizerOptions

SRC = Path(repro.__file__).resolve().parent


def test_optimizer_options_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(OptimizerOptions)) == (
        "allow_cross_products",
        "exploration",
        "rules",
        "implementation",
        "cost_params",
        "pruning_factor",
        "prune_dominated",
    )


def test_enumeration_explorer_takes_no_arguments():
    assert not inspect.signature(EnumerationExplorer).parameters


def test_src_reads_no_environment_variables():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
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
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders, offenders
