"""A vector-built store interns every order into its one cut-key table.

The vectorized emitter knows every sort order it will intern before it
builds the key table: the cut keys, every leaf and tower operator's
delivered order, and the ORDER BY.  They all go into the one lex-ranked
table (:func:`repro.kernel.vector.cut_key_table`), so the store's key
table has no overflow kids and the best-plan DP adopts it as built —
with index-lookup joins on, and for the heuristic tier's store too, as
every store is built by that emitter.
"""

from __future__ import annotations

import pytest

from repro.memo.columnar import (
    TAG_HASH,
    TAG_INLJ,
    TAG_MERGE,
    TAG_NLJ,
    build_columnar_store,
)
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.setup import build_initial_memo
from repro.resilience.heuristic import optimize_heuristic
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import clique_query, random_query, star_query
from repro.workloads.tpch_queries import tpch_query

_FOUR = clique_query(4, rows=5)
_JOINS = "t1.fk_t0 = t0.id AND t2.fk_t1 = t1.id AND t3.fk_t2 = t2.id"

#: name -> (catalog, sql); ``None`` catalog means TPC-H
STATEMENTS = {
    **{name: (None, tpch_query(name).sql) for name in ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")},
    "clique10": (lambda: clique_query(10, rows=5), None),
    "star11": (lambda: star_query(11, rows=5), None),
    "dense10": (lambda: random_query(10, edge_density=21 / 36, rows=5), None),
    "group-by": (
        lambda: _FOUR,
        "SELECT t2.val, COUNT(*) AS n FROM t0, t1, t2, t3 "
        f"WHERE {_JOINS} GROUP BY t2.val",
    ),
    "order-by": (
        lambda: _FOUR,
        f"SELECT t1.val, t3.fk_t2 FROM t0, t1, t2, t3 WHERE {_JOINS} "
        "ORDER BY t3.fk_t2, t1.val",
    ),
}


INDEX_NLJ = ImplementationConfig(enable_index_nl_join=True)

#: extra id -> (base statement, implementation config, heuristic tier)
VARIANTS = {
    "Q5-index-nl-join": ("Q5", INDEX_NLJ, False),
    "clique10-index-nl-join": ("clique10", INDEX_NLJ, False),
    "star11-heuristic": ("star11", ImplementationConfig(), True),
    "Q8-heuristic": ("Q8", ImplementationConfig(), True),
}
CASES = {
    **{name: (name, ImplementationConfig(), False) for name in STATEMENTS},
    **VARIANTS,
}


@pytest.mark.parametrize("name", CASES)
def test_vector_built_store_has_no_overflow_kids(name, catalog):
    base, config, heuristic = CASES[name]
    make, sql = STATEMENTS[base]
    if make is None:
        target = catalog
    else:
        workload = make()
        target, sql = workload.catalog, sql or workload.sql
    query = Binder(target).bind(parse(sql))
    if heuristic:
        # the heuristic tier's greedy memo, its seeded joins as the store
        store = optimize_heuristic(target, query, OptimizerOptions()).memo.columnar
    else:
        setup = build_initial_memo(query, False)
        EnumerationExplorer().explore(setup.memo, setup.graph, False)
        store = build_columnar_store(
            setup.memo,
            setup.graph,
            target,
            config,
            root_order=query.order_by,
        )
    assert store._merge_sid0 is not None  # the vectorized emitter ran
    if config.enable_index_nl_join:
        assert TAG_INLJ in store.tag
    matrix, lengths, overflow = store._keys.table()
    assert overflow == []
    assert len(matrix) == len(lengths) > 0
    # every kid the rows and requirements name is a row of the table: a
    # join row's merge keys, a scan or unary row's delivered order (its
    # ``a`` is an ordinal, an index-lookup row's payload a gid and one)
    kids = [
        k
        for tag, a, b in zip(store.tag, store.a, store.b)
        if tag != TAG_INLJ
        for k in ((a, b) if tag in (TAG_NLJ, TAG_HASH, TAG_MERGE) else (b,))
        if k >= 0
    ]
    kids += store.requirement_arrays()[1].tolist()
    assert max(kids, default=0) < len(lengths)
    if query.order_by:
        assert 0 <= store.root_kid < len(lengths)
