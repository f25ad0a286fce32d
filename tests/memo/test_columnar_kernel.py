"""The vectorized emitter against the scalar loop it replaced.

``build_columnar_store`` has one emitter: the whole-bucket vectorized
pass over the memo's logical store, index-lookup joins included.  The
per-group scalar loop it replaced is the column-level oracle
(``tests/memo/reference_emission.py``), run here over a memo explored
one ``memo.insert`` at a time.  The two intern kids in different orders
(the vectorized build preloads a lex-sorted kid universe; the scalar
build interns first-occurrence), so raw kid ids are *not* comparable.
What must agree is everything observable: the row structure
(tag/gid/children), the kid *byte strings* each row's payload denotes,
the requirement stream under the same mapping and — through the facade —
the full memo render; the plan and cost match the object-memo oracle.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.memo.columnar import (
    TAG_HASH,
    TAG_INLJ,
    TAG_MERGE,
    TAG_NLJ,
    ColumnarUnsupported,
)
from repro.optimizer.implementation import (
    ImplementationConfig,
    implement_memo_columnar,
)
from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.workloads.synthetic import clique_query, cycle_query, star_query
from tests.memo.reference_emission import implement_memo_reference
from tests.optimizer.reference_enumeration import ReferenceEnumerationExplorer
from tests.reference_pipeline import assert_matches_reference, optimize_reference

WORKLOADS = {
    "star6": lambda: star_query(6, rows=5, seed=0),
    "clique5": lambda: clique_query(5, rows=5, seed=0),
    "cycle6": lambda: cycle_query(6, rows=5, seed=0),
}

INDEX_NLJ = ImplementationConfig(enable_index_nl_join=True)

#: id -> (workload, allow_cross_products, implementation config)
CASES = {
    **{name: (name, False, ImplementationConfig()) for name in WORKLOADS},
    **{f"{name}-index-nl-join": (name, False, INDEX_NLJ) for name in WORKLOADS},
    **{f"{name}-cross": (name, True, ImplementationConfig()) for name in WORKLOADS},
    "cycle6-cross-index-nl-join": ("cycle6", True, INDEX_NLJ),
}

_JOIN_TAGS = (TAG_NLJ, TAG_HASH, TAG_MERGE)


def _store_fingerprint(store):
    """Emission-independent view of a columnar store: kid payloads are
    resolved to their byte strings."""
    kid_bytes = store._keys
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


def _scalar_emission(workload, cross, config):
    """The oracle's scalar loop over a reference-explored memo."""
    query = Binder(workload.catalog).bind(parse(workload.sql))
    setup = build_initial_memo(query, cross)
    memo, graph = setup.memo, setup.graph
    ReferenceEnumerationExplorer().explore(memo, graph, cross)
    assert memo.columnar_logical is None
    store = implement_memo_reference(
        memo, graph, workload.catalog, config, root_order=query.order_by
    )
    return memo, store


@pytest.mark.parametrize("case", sorted(CASES))
def test_store_identical_across_backends(case):
    name, cross, config = CASES[case]
    workload = WORKLOADS[name]()
    options = OptimizerOptions(allow_cross_products=cross, implementation=config)
    vector = Session(workload.database, options=options).optimize(workload.sql)
    vector_store = vector.memo.columnar
    memo, scalar_store = _scalar_emission(workload, cross, config)
    # Which loop emitted each store: only the vectorized pass hands the
    # DP its merge rows' state ids.
    assert vector_store._merge_sid0 is not None
    assert scalar_store._merge_sid0 is None
    if config.enable_index_nl_join:
        assert TAG_INLJ in vector_store.tag
    assert _store_fingerprint(vector_store) == _store_fingerprint(scalar_store)
    assert memo.render() == vector.memo.render()
    assert_matches_reference(
        vector, optimize_reference(workload.catalog, workload.sql, options)
    )


def test_an_object_explored_memo_is_refused_by_name():
    """A join group the logical store does not hold has no place in the
    split columns: the emitter names it and attaches nothing."""
    workload = WORKLOADS["star6"]()
    query = Binder(workload.catalog).bind(parse(workload.sql))
    setup = build_initial_memo(query, False)
    memo, graph = setup.memo, setup.graph
    ReferenceEnumerationExplorer().explore(memo, graph, False)
    first_join = next(
        g.gid for g in memo.groups if g.key[0] == "rels" and len(g.relations) > 1
    )
    with pytest.raises(ColumnarUnsupported) as refused:
        implement_memo_columnar(memo, graph, workload.catalog)
    assert f"join group {first_join} " in str(refused.value)
    assert memo.columnar is None
