"""Shared fixtures.

Heavy objects (the SF=1 catalog, the micro TPC-H database, optimized
results for the benchmark queries) are session-scoped: they are immutable
from the tests' perspective and expensive enough to be worth sharing.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.catalog.tpch import tpch_catalog
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.storage.datagen import generate_tpch
from repro.workloads.tpch_queries import tpch_query
from tests.planspace.materialized.paper_example import build_paper_example
from tests.planspace.materialized.space import PlanSpace

# Every property test draws the same examples on every run and in every
# checkout: examples derive from the test function alone, never from a
# seed or an on-disk example database, so two trees run side by side
# test (and spend their time on) identical inputs.  Each test's own
# ``max_examples`` still applies.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def catalog():
    """The TPC-H scale-factor-1 catalog (statistics only, no data)."""
    return tpch_catalog(scale_factor=1.0)


@pytest.fixture(scope="session")
def micro_db():
    """The deterministic micro TPC-H database with SF=1 statistics."""
    return generate_tpch(seed=0)


@pytest.fixture(scope="session")
def paper_example():
    """The reconstructed Figure 2/3 memo."""
    return build_paper_example()


@pytest.fixture(scope="session")
def q3_result(catalog):
    """TPC-H Q3 optimized without cross products (small, fast space)."""
    options = OptimizerOptions(allow_cross_products=False)
    return Optimizer(catalog, options).optimize_sql(tpch_query("Q3").sql)


@pytest.fixture(scope="session")
def q3_space(q3_result):
    return PlanSpace.from_result(q3_result)


@pytest.fixture(scope="session")
def q5_result(catalog):
    """TPC-H Q5 optimized without cross products."""
    options = OptimizerOptions(allow_cross_products=False)
    return Optimizer(catalog, options).optimize_sql(tpch_query("Q5").sql)


@pytest.fixture(scope="session")
def q5_space(q5_result):
    return PlanSpace.from_result(q5_result)
