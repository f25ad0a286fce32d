"""Shared sampled cost distributions.

Section 5's statistics, Table 1, Figure 4 and the small-query pins read
the same draws: 2,000 uniform plans at seed 0 per (query, cross-product
policy), sampled once per session.
"""

import pytest

from repro.catalog.tpch import tpch_catalog
from repro.experiments.distributions import sample_cost_distribution
from repro.workloads.tpch_queries import tpch_query


@pytest.fixture(scope="session")
def cost_distribution():
    """``cost_distribution(name, cross=False, sql=None)``: the sampled
    scaled costs of a TPC-H query (or of ``sql`` under the label
    ``name``) on the scale-factor-1 catalog."""
    catalog = tpch_catalog(scale_factor=1.0)
    cache = {}

    def get(name, cross=False, sql=None):
        key = (name, cross)
        if key not in cache:
            cache[key] = sample_cost_distribution(
                catalog,
                sql if sql is not None else tpch_query(name).sql,
                query_name=name,
                allow_cross_products=cross,
                sample_size=2_000,
                seed=0,
            )
        return cache[key]

    return get
