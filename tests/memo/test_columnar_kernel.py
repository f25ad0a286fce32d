"""Emission-path equivalence of the columnar physical store.

``build_columnar_store`` has two emission backends, chosen by what the
memo holds: the whole-bucket vectorized pass over a batched-explored
logical store (the default route), and the per-group scalar loop for
memos explored one ``memo.insert`` at a time (the transformation
explorer, index-lookup joins).  They may intern kids in different orders
(the vectorized build preloads a lex-sorted kid universe; the scalar
build interns first-occurrence), so raw kid ids are *not* comparable.
What must agree is everything observable: the row structure
(tag/gid/children), the kid *byte strings* each row's payload denotes,
the requirement stream under the same mapping, the plan the numpy DP
extracts from either store — and, through the facade, the full memo
render.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.memo.columnar import TAG_HASH, TAG_INLJ, TAG_MERGE, TAG_NLJ
from repro.optimizer.annotate import annotate_cardinalities
from repro.optimizer.bestplan import ColumnarBestPlanSearch
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.implementation import implement_memo_columnar
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import clique_query, cycle_query, star_query
from tests.optimizer.reference_enumeration import ReferenceEnumerationExplorer

WORKLOADS = {
    "star6": lambda: star_query(6, rows=5, seed=0),
    "clique5": lambda: clique_query(5, rows=5, seed=0),
    "cycle6": lambda: cycle_query(6, rows=5, seed=0),
}

_JOIN_TAGS = (TAG_NLJ, TAG_HASH, TAG_MERGE)


def _store_fingerprint(store):
    """Emission-independent view of a columnar store: kid payloads are
    resolved to their byte strings."""
    kid_bytes = store.kid_bytes
    rows = []
    for row in range(store.row_count):
        tag = store.tag[row]
        a, b = store.a[row], store.b[row]
        if tag in _JOIN_TAGS:
            # a/b are the merge-key kids of the cut (-1 on cross joins).
            a = kid_bytes[a] if a >= 0 else None
            b = kid_bytes[b] if b >= 0 else None
        elif tag != TAG_INLJ and b >= 0:
            # scans/unaries: b is the delivered-order kid (-1 if none);
            # INLJ's b is an ordinal, comparable raw.
            b = kid_bytes[b]
        rows.append(
            (tag, store.gid[row], store.c0[row], store.c1[row], a, b)
        )
    reqs = [(gid, kid_bytes[kid]) for gid, kid in store.requirements]
    return {
        "rows": rows,
        "reqs": reqs,
        "group_start": list(store.group_start),
        "logical_counts": list(store.logical_counts),
    }


def _scalar_emission(workload):
    """Columnar implementation + DP over a reference-explored memo: no
    logical store, so the build takes the scalar emission loop."""
    query = Binder(workload.catalog).bind(parse(workload.sql))
    setup = build_initial_memo(query, False)
    memo, graph = setup.memo, setup.graph
    ReferenceEnumerationExplorer().explore(memo, graph, False)
    assert memo.columnar_logical is None
    annotate_cardinalities(
        memo, graph, CardinalityEstimator(workload.catalog, query)
    )
    store = implement_memo_columnar(
        memo, graph, workload.catalog, root_order=query.order_by
    )
    search = ColumnarBestPlanSearch(store, CostModel(workload.catalog))
    plan, cost = search.run().best_plan(query.order_by)
    return memo, store, plan, cost


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_store_identical_across_backends(name):
    workload = WORKLOADS[name]()
    vector = Session(workload.database).optimize(workload.sql)
    vector_store = vector.memo.columnar
    memo, scalar_store, plan, cost = _scalar_emission(workload)
    # Which loop emitted each store: only the vectorized pass hands the
    # DP its merge rows' state ids.
    assert vector_store._merge_sid0 is not None
    assert scalar_store._merge_sid0 is None
    assert _store_fingerprint(vector_store) == _store_fingerprint(scalar_store)
    # The numpy DP returns the same plan over either store.
    assert cost == vector.best_cost
    assert plan.render() == vector.best_plan.render()
    assert memo.render() == vector.memo.render()
