"""Integration matrix: every optimizer-option combination must yield a
well-formed, result-equivalent plan space.

The paper's technique has to survive whatever configuration the optimizer
runs under; this sweeps the cross product of {cross-products policy,
explorer, index-join rule} over a 3-way join and validates counting, the
rank bijection, and result equivalence for each cell.  The optimizer has
one explorer; the "transformation" cells run the rule-engine oracle
(``tests/optimizer/reference_transformation.py``) through the object-memo
pipeline instead.
"""

import pytest

from repro.api import Session
from repro.optimizer.implementation import ImplementationConfig
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.testing.diff import canonical_rows
from tests.optimizer.reference_transformation import TransformationExplorer
from tests.planspace.materialized.space import PlanSpace
from tests.reference_pipeline import optimize_reference

SQL = (
    "SELECT n.n_name, r.r_name, s.s_name "
    "FROM nation n, region r, supplier s "
    "WHERE n.n_regionkey = r.r_regionkey AND s.s_nationkey = n.n_nationkey"
)

EXPLORERS = ("enumeration", "transformation")

_MATRIX = [
    pytest.param(
        cross,
        explorer,
        index_joins,
        id=f"cross={cross}-{explorer}-inlj={index_joins}",
    )
    for cross in (False, True)
    for explorer in EXPLORERS
    for index_joins in (False, True)
]


def _optimize(catalog, options, explorer):
    if explorer == "enumeration":
        return Optimizer(catalog, options).optimize_sql(SQL)
    return optimize_reference(
        catalog, SQL, options, explorer=TransformationExplorer()
    )


@pytest.fixture(scope="module")
def micro_db():
    from repro.storage.datagen import generate_tpch

    return generate_tpch(seed=0)


@pytest.mark.parametrize("cross,explorer,index_joins", _MATRIX)
def test_option_combination(micro_db, cross, explorer, index_joins):
    options = OptimizerOptions(
        allow_cross_products=cross,
        implementation=ImplementationConfig(enable_index_nl_join=index_joins),
    )
    result = _optimize(micro_db.catalog, options, explorer)
    space = PlanSpace.from_result(result)
    total = space.count()
    assert total > 0

    # Bijection spot-checks across the space.
    for rank in {0, total // 3, total - 1}:
        plan = space.unrank(rank)
        assert space.rank(plan) == rank

    # Result equivalence of a sample against the optimizer's plan.
    session = Session(micro_db, options)
    reference = canonical_rows(session.executor.execute(result.best_plan).rows)
    for plan in space.sample(10, seed=3):
        assert canonical_rows(session.executor.execute(plan).rows) == reference


def test_strategies_agree_in_every_configuration(micro_db):
    """The optimizer's space and the rule-engine oracle's coincide
    regardless of the implementation rule set or cross-product policy."""
    for cross in (False, True):
        for index_joins in (False, True):
            options = OptimizerOptions(
                allow_cross_products=cross,
                implementation=ImplementationConfig(
                    enable_index_nl_join=index_joins
                ),
            )
            counts = {
                PlanSpace.from_result(
                    _optimize(micro_db.catalog, options, explorer)
                ).count()
                for explorer in EXPLORERS
            }
            assert len(counts) == 1, (cross, index_joins, counts)
