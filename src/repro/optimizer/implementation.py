"""Implementation rules applied to a whole memo: the physical store.

The rule set itself — which physical operators a logical expression
yields, in which order, with which enforcer requirements — lives in the
side-effect-free :mod:`repro.optimizer.rules` module, shared with the
implicit plan-space engine (:mod:`repro.planspace.implicit`), which
applies the same rules analytically without creating expressions.  This
module is the *materializing* consumer: it emits every generated
operator, and the ``Sort`` enforcers the physical operators (and ORDER
BY) require — exactly the shape of the paper's Figure 2, where Sort
operators appear inside scan groups — as the struct-of-arrays store of
:mod:`repro.memo.columnar`.  The one-``memo.insert``-per-operator loop
that defines the store's row order is the test oracle
(``tests/optimizer/reference_implementation.py``).
"""

from __future__ import annotations

from repro.algebra.expressions import ColumnId
from repro.catalog.catalog import Catalog
from repro.memo.columnar import ColumnarPhysicalStore, build_columnar_store
from repro.memo.memo import Memo
from repro.optimizer.rules import ImplementationConfig, extract_equi_keys

__all__ = [
    "ImplementationConfig",
    "implement_memo_columnar",
    "extract_equi_keys",
]


def implement_memo_columnar(
    memo: Memo,
    graph,
    catalog: Catalog,
    config: ImplementationConfig | None = None,
    root_order: tuple[ColumnId, ...] = (),
    scope=None,
    edges=None,
) -> ColumnarPhysicalStore:
    """Batched implementation onto the struct-of-arrays physical store.

    Every operator the rules generate, in rule order, with the enforcer
    requirements they imply — emitted as per-group array blocks
    (:func:`repro.memo.columnar.build_columnar_store`) instead of
    per-expression ``GroupExpr`` inserts.  Installs the lazy
    materialization hooks so the object ``Memo`` facade keeps working,
    and attaches the store as ``memo.columnar``.  A memo the store
    cannot represent raises with nothing attached: a hand-built memo
    without an alias universe, or one with a join group explored one
    ``memo.insert`` at a time, is
    :class:`~repro.memo.columnar.ColumnarUnsupported`; a query past the
    ``EdgeCatalog`` limits is the :class:`~repro.errors.PlanSpaceError`
    :func:`~repro.optimizer.setup.build_initial_memo` already refuses it
    with.
    """
    if config is None:
        config = ImplementationConfig()
    store = build_columnar_store(
        memo, graph, catalog, config, root_order, scope=scope, edges=edges
    )
    store.attach()
    memo.columnar = store
    return store
