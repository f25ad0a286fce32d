"""Exploration: derive all logical join alternatives.

:class:`EnumerationExplorer` populates the memo with every join shape the
search space admits — Starburst-style bottom-up enumeration of
connected-subgraph/complement pairs, complete for both the cross-product
and the no-cross-product space.  It is the one explorer: every request's
memo comes from it, or from a replay of a memo it built.

The paper notes its technique works however the memo was populated
("could be transferred easily to the Starburst enumerator").  The
Volcano-style rule engine that checks the claim (experiment E9) lives
with the tests as an oracle (``tests/optimizer/reference_transformation.py``):
its full rule set reaches exactly this explorer's space.

The explorer works on alias *bitmasks* end-to-end (see
:mod:`repro.optimizer.joingraph` for the encoding): subset groups are
keyed ``("rels", mask)`` and their splits arrive as the arrays of the
join graph's vectorized csg–cmp kernel, so in the no-cross-products
space no invalid split is ever materialized, let alone re-checked — the
optimization that makes memo population linear in the size of the valid
search space rather than in ``Σ 2^|S|``.
"""

from __future__ import annotations

from repro.errors import OptimizerError
from repro.memo.memo import Memo
from repro.optimizer.joingraph import JoinGraph

__all__ = ["EnumerationExplorer"]


class EnumerationExplorer:
    """Bottom-up generation of every valid subset partition.

    For every alias subset (connected subsets only, when cross products are
    off) of size >= 2, in ascending size order, emit one logical join per
    valid ordered partition of the subset.  Partitions come straight from
    the join graph's csg–cmp kernel as arrays of subset ranks, mapped to
    child group ids wholesale — no loop touches a split or an alias name.
    The resulting memo contains the complete bushy search space.

    The split arrays become the columnar logical store
    (:func:`repro.memo.columnar.build_logical_store`): no per-expression
    ``memo.insert``; ``Group.exprs`` rebuilds the ``GroupExpr`` list
    lazily — group ids, expression order, local ids and renders are what
    a per-expression insert loop would have produced.  The memo must be
    freshly seeded (:func:`repro.optimizer.setup.build_initial_memo`);
    re-exploring an explored memo adds nothing.
    """

    def explore(
        self, memo: Memo, graph: JoinGraph, allow_cross_products: bool, scope=None
    ) -> int:
        # Deferred import: repro.memo.columnar reaches back into
        # repro.optimizer.rules.
        from repro.memo.columnar import ColumnarUnsupported, build_logical_store

        explored = memo.columnar_logical
        if explored is not None and explored.complete:
            return 0
        try:
            store = build_logical_store(
                memo, graph, allow_cross_products, scope=scope
            )
        except ColumnarUnsupported as exc:
            raise OptimizerError(str(exc)) from None
        store.attach()
        return store.expression_total()
