"""Workloads (system S12): the paper's TPC-H queries plus synthetic
chain/star/clique join queries for scaling and property-based tests."""

from repro.workloads.tpch_queries import (
    TPCH_QUERIES,
    TpchQuery,
    tpch_query,
)
from repro.workloads.misestimated import (
    corrupt_statistics,
    misestimated_tpch,
)
from repro.workloads.synthetic import (
    SyntheticWorkload,
    chain_query,
    clique_query,
    star_query,
)

__all__ = [
    "TPCH_QUERIES",
    "TpchQuery",
    "tpch_query",
    "SyntheticWorkload",
    "chain_query",
    "clique_query",
    "star_query",
    "corrupt_statistics",
    "misestimated_tpch",
]
