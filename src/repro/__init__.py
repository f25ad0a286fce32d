"""repro — counting, enumerating, and sampling of execution plans in a
cost-based query optimizer.

A full reproduction of F. Waas & C. A. Galindo-Legaria, *Counting,
Enumerating, and Sampling of Execution Plans in a Cost-Based Query
Optimizer* (SIGMOD 2000), including every substrate the paper relies on:
a Cascades/Volcano-style MEMO optimizer over a TPC-H catalog, a SQL front
end with the ``OPTION (USEPLAN n)`` extension, an execution engine, the
plan-validation harness of the paper's Section 4, and the cost-
distribution experiments of Section 5.

Quickstart::

    from repro import Session

    session = Session.tpch()
    space = session.plan_space("SELECT ... FROM ... WHERE ...")
    space.count()               # exact number of plans, arbitrary precision
    plan = space.unrank(8)      # plan number 8
    space.rank(plan)            # 8 again — the mapping is a bijection
    space.sample(10_000)        # uniform random plans

    session.execute("SELECT ... OPTION (USEPLAN 8)")   # run plan 8

``Session.plan_space`` numbers plans with the implicit engine
(:mod:`repro.planspace.implicit`), which never builds the physical memo;
the paper's literal algorithm over an optimized memo lives under
``tests/`` as the oracle that numbering is tested against.
"""

from repro.api import ExecutedQuery, Session
from repro.catalog.catalog import Catalog
from repro.catalog.tpch import tpch_catalog
from repro.errors import ReproError
from repro.executor.executor import PlanExecutor, QueryResult, execute_plan
from repro.memo.memo import Memo
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
)
from repro.optimizer.explain import explain_plan
from repro.optimizer.plan import PlanNode
from repro.sampledopt import SampledOptimizationResult, SampledOptimizer
from repro.storage.database import Database
from repro.storage.datagen import generate_tpch
from repro.testing.harness import PlanValidator, ValidationReport

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "Database",
    "ExecutedQuery",
    "Memo",
    "OptimizationResult",
    "Optimizer",
    "OptimizerOptions",
    "PlanExecutor",
    "PlanNode",
    "PlanValidator",
    "QueryResult",
    "ReproError",
    "SampledOptimizationResult",
    "SampledOptimizer",
    "Session",
    "ValidationReport",
    "execute_plan",
    "explain_plan",
    "generate_tpch",
    "tpch_catalog",
    "__version__",
]
