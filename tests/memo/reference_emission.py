"""Reference (slow-path) columnar emission: the per-group scalar loop.

``build_columnar_store`` (:mod:`repro.memo.columnar`) once had two
emitters: the whole-bucket vectorized pass over a batched-explored
logical store, and the per-group loop below for every memo the
vectorized gate refused — index-lookup joins, the heuristic tier's
unexplored greedy memo, and any memo explored one ``memo.insert`` at a
time.  The vectorized pass now serves all of them, so the loop moved
here verbatim as its column-level oracle.  :func:`build_reference_store`
is the scalar branch of the old builder: the same rows, interned
first-occurrence into the key table's overflow (raw kid ids are *not*
comparable with a vector build's lex ranks; kid byte strings are), the
same deduplicated requirement stream (its tail,
:func:`_record_tail_requirements`, and the ordered-pair walk of a
logical store, :func:`ordered_pairs`, moved here verbatim when the pair
record took over the tail and left them no ``src/`` caller).  It emits
any memo — a reference-explored one included — and attaches like
:func:`repro.optimizer.implementation.implement_memo_columnar`, so the
object facade and the materialized plan space read it unchanged.  The
production best-plan DP does not read a store built here (its kids are
all overflow).  It reads the per-mask FROM/TO unions and the per-cut
kid memo of ``tests/kernel/reference_keys.py``.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.logical import LogicalGet, LogicalJoin
from repro.memo.columnar import (
    _JOIN_KIND_TAGS,
    TAG_INLJ,
    TAG_STREAMAGG,
    ColumnarPhysicalStore,
    ColumnarUnsupported,
    _emit_leaf_rows,
    _emit_tower_rows,
)
from repro.optimizer.rules import (
    ImplementationConfig,
    PhysicalOperators,
    join_physical_kinds,
)
from repro.resilience.faults import fault_point
from tests.kernel.reference_keys import ReferenceEdges, ReferenceKeys

__all__ = ["build_reference_store", "implement_memo_reference"]


class _ReferenceStore(ColumnarPhysicalStore):
    """The store over the one-cut-at-a-time edge catalog and key table."""

    def __init__(self, memo, graph, catalog, config, root_order):
        super().__init__(
            memo, graph, catalog, config, root_order, ReferenceEdges(graph)
        )
        self._keys = ReferenceKeys(self.edges)
        self.operators = PhysicalOperators(graph, catalog, config, self._keys)

    def cut_kids(self, bits: int) -> tuple[int, int]:
        return self._keys.cut_kids(bits)


def build_reference_store(
    memo, graph, catalog, config=None, root_order=()
) -> ColumnarPhysicalStore:
    """A complete :class:`ColumnarPhysicalStore` emitted by the scalar
    loop, in the oracle insert loop's requirement order: the interleaved
    merge stream first, then the enforcer scan's non-join requirements
    (stream aggregates, in group order), then ORDER BY."""
    if config is None:
        config = ImplementationConfig()
    for group in memo.groups:
        if group.mask is None and group.key[0] == "rels":
            raise ColumnarUnsupported("memo has unmasked relation groups")
    if memo.universe is None:
        raise ColumnarUnsupported("memo has no alias universe")
    store = _ReferenceStore(memo, graph, catalog, config, root_order)
    keyed_kinds, cross_kinds = join_physical_kinds(config)
    keyed_tags = tuple(_JOIN_KIND_TAGS[kind] for kind in keyed_kinds)
    cross_tags = tuple(_JOIN_KIND_TAGS[kind] for kind in cross_kinds)
    store._keyed_tags = keyed_tags
    merge_reqs = _emit_rows_scalar(
        store, memo.columnar_logical, keyed_kinds, keyed_tags, cross_tags, None
    )
    seen = dict.fromkeys(merge_reqs)
    _record_tail_requirements(store, seen.setdefault)
    req_gid = np.fromiter((g for g, _k in seen), np.int64, len(seen))
    req_kid = np.fromiter((k for _g, k in seen), np.int64, len(seen))
    store.set_requirement_arrays(req_gid, req_kid)
    store.complete = True
    return store


def implement_memo_reference(
    memo, graph, catalog, config=None, root_order=()
) -> ColumnarPhysicalStore:
    """:func:`build_reference_store`, attached as ``memo.columnar``."""
    store = build_reference_store(memo, graph, catalog, config, root_order)
    store.attach()
    memo.columnar = store
    return store


def ordered_pairs(self, gid: int):
    """All ordered orientations in local-id order: the initial
    left-deep expression first, then :meth:`explored_pairs`."""
    init = self.initial_by_gid.get(gid)
    if init is not None:
        yield init
    yield from self.explored_pairs(gid)


def _record_tail_requirements(store, record) -> None:
    """The enforcer scan's non-merge requirements, in the oracle's
    order: stream-aggregate GROUP BYs (group order, and stream aggregates
    live only in unary tower groups, so the scan skips relation-set
    groups — the bulk of the rows — entirely), then ORDER BY."""
    memo = store.memo
    tag_col, c0_col, b_col = store.tag, store.c0, store.b
    for group in memo.groups:
        if group.key[0] == "rels":
            continue
        start, end = store.group_rows(group.gid)
        for row in range(start, end):
            if tag_col[row] == TAG_STREAMAGG and b_col[row] >= 0:
                record((c0_col[row], b_col[row]))
    if store.root_order:
        store.root_kid = store.kid_of_columns(store.root_order)
        if memo.root_group_id is not None:
            record((memo.root_group_id, store.root_kid))


def _emit_rows_scalar(
    store, logical_store, keyed_kinds, keyed_tags, cross_tags, scope
) -> list[tuple[int, int]]:
    """The per-group emission loop (any memo, any config).

    Returns the merge-requirement stream: (gid, kid) interleaved
    left/right in emission order — the oracle's inline requirement
    collection.
    """
    memo = store.memo
    config = store.config
    edges = store.edges
    from_mask = edges.from_mask
    to_mask = edges.to_mask
    cut_kids = store.cut_kids
    n_keyed = len(keyed_tags)
    n_cross = len(cross_tags)
    enable_inlj = config.enable_index_nl_join

    groups = memo.groups
    tag_col, gid_col = store.tag, store.gid
    c0_col, c1_col = store.c0, store.c1
    a_col, b_col = store.a, store.b
    group_start = store.group_start
    logical_counts = store.logical_counts
    merge_reqs: list[tuple[int, int]] = []

    # Per-group staging buffers, flushed with one extend per column.
    g_tag: list[int] = []
    g_c0: list[int] = []
    g_c1: list[int] = []
    g_a: list[int] = []
    g_b: list[int] = []

    checkpoint = scope.checkpoint if scope is not None else None
    for group in groups:
        fault_point("implement.columnar", store)
        if checkpoint is not None:
            checkpoint("implement.columnar", len(g_tag))
        group_start.append(len(tag_col))
        gid = group.gid
        pairs = None
        first = None
        if logical_store is not None and logical_store.split_rows(gid) is not None:
            # Batched exploration left this group's logical joins in the
            # arrays: feed the ordered child-gid stream straight through
            # without rebuilding (or ever having built) GroupExprs.
            n_logical = logical_store.logical_join_count(gid)
            logical_counts.append(n_logical)
            if not n_logical:
                continue
            pairs = ordered_pairs(logical_store, gid)
        else:
            exprs = group.logical_exprs()
            logical_counts.append(len(group._exprs))
            if not exprs:
                continue
            first = exprs[0].op
            if type(first) is LogicalJoin:
                pairs = (expr.children for expr in exprs)
        g_tag.clear()
        g_c0.clear()
        g_c1.clear()
        g_a.clear()
        g_b.clear()
        if pairs is not None:
            for l_gid, r_gid in pairs:
                l_mask = groups[l_gid].mask
                r_mask = groups[r_gid].mask
                bits = from_mask(l_mask) & to_mask(r_mask)
                if bits:
                    lk, rk = cut_kids(bits)
                    g_tag.extend(keyed_tags)
                    g_c0.extend((l_gid,) * n_keyed)
                    g_c1.extend((r_gid,) * n_keyed)
                    g_a.extend((lk,) * n_keyed)
                    g_b.extend((rk,) * n_keyed)
                    if "merge" in keyed_kinds:
                        merge_reqs.append((l_gid, lk))
                        merge_reqs.append((r_gid, rk))
                    if enable_inlj and not r_mask & (r_mask - 1):
                        inner_get = groups[r_gid].logical_exprs()[0].op
                        inlj = store.operators.index_joins(l_mask, r_mask, inner_get)
                        for pos in range(len(inlj)):
                            g_tag.append(TAG_INLJ)
                            g_c0.append(l_gid)
                            g_c1.append(-1)
                            g_a.append(r_gid)
                            g_b.append(pos)
                elif n_cross:
                    g_tag.extend(cross_tags)
                    g_c0.extend((l_gid,) * n_cross)
                    g_c1.extend((r_gid,) * n_cross)
                    g_a.extend((-1,) * n_cross)
                    g_b.extend((-1,) * n_cross)
        elif isinstance(first, LogicalGet):
            scans = store.operators.group(gid, first)
            _emit_leaf_rows(store, scans, g_tag, g_c0, g_c1, g_a, g_b)
        else:
            ops = store.operators.group(gid, first)
            _emit_tower_rows(
                store, ops, exprs[0].children[0], g_tag, g_c0, g_c1, g_a, g_b
            )
        tag_col.extend(g_tag)
        gid_col.extend((gid,) * len(g_tag))
        c0_col.extend(g_c0)
        c1_col.extend(g_c1)
        a_col.extend(g_a)
        b_col.extend(g_b)
    group_start.append(len(tag_col))
    return merge_reqs
