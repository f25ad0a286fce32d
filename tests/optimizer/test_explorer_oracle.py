"""Experiment E9 as a pinned test: the plan space does not depend on the
explorer.

The paper's counting and unranking work over any memo, however it was
populated ("could be transferred easily to the Starburst enumerator").
Production has one explorer, the bottom-up ``EnumerationExplorer``; the
Volcano-style rule engine is the oracle
(``tests/optimizer/reference_transformation.py``), run through the
object-memo pipeline (``tests/reference_pipeline.py``).  With the full
rule set the two memos hold the same joins in every group, count the
same N plans and choose a plan of the same cost.  Restricted rule sets
reach smaller spaces; their counts are pinned exactly so that a filter
over the one explorer's space can be checked against them.
"""

import pytest

from repro.algebra.logical import LogicalJoin
from repro.optimizer.optimizer import Optimizer, OptimizerOptions
from repro.workloads.synthetic import clique_query
from repro.workloads.tpch_queries import tpch_query
from tests.planspace.materialized.space import PlanSpace
from tests.optimizer.reference_transformation import (
    RuleSet,
    TransformationExplorer,
)
from tests.optimizer.test_explorer import CHAIN4, CYCLE3, STAR3
from tests.reference_pipeline import optimize_reference

SHAPES = {"chain4": CHAIN4, "star3": STAR3, "cycle3": CYCLE3}


def _case(name, cross, marks=()):
    mode = "cross" if cross else "no-cross"
    return pytest.param(name, cross, id=f"{name}-{mode}", marks=marks)


CASES = [
    *(
        _case(q, cross)
        for q in ("Q3", "Q5", "Q7", "Q9", "Q10")
        for cross in (False, True)
    ),
    _case("Q8", False),
    # The rule engine alone takes about 2 s here.
    _case("Q8", True, marks=pytest.mark.slow),
    *(
        _case(shape, cross)
        for shape in (*SHAPES, "clique4")
        for cross in (False, True)
    ),
]


def _catalog_and_sql(name, catalog):
    if name == "clique4":
        workload = clique_query(4, rows=5, seed=0)
        return workload.catalog, workload.sql
    if name in SHAPES:
        return catalog, SHAPES[name]
    return catalog, tpch_query(name).sql


def _joins_by_group(memo):
    """Each relation set's logical joins, as (children's relations, operator
    key) — group ids differ between explorers, relation sets do not."""
    out = {}
    for group in memo.groups:
        for expr in group.logical_exprs():
            if isinstance(expr.op, LogicalJoin):
                children = tuple(
                    tuple(sorted(memo.group(c).relations)) for c in expr.children
                )
                out.setdefault(frozenset(group.relations), set()).add(
                    (children, expr.op.key())
                )
    return out


@pytest.mark.parametrize("name,cross", CASES)
def test_rule_engine_reaches_the_enumeration_space(catalog, name, cross):
    catalog, sql = _catalog_and_sql(name, catalog)
    options = OptimizerOptions(allow_cross_products=cross)
    production = Optimizer(catalog, options).optimize_sql(sql)
    oracle = optimize_reference(
        catalog, sql, options, explorer=TransformationExplorer()
    )
    assert _joins_by_group(oracle.memo) == _joins_by_group(production.memo)
    assert (
        PlanSpace.from_result(oracle).count()
        == PlanSpace.from_result(production).count()
    )
    assert oracle.best_cost == production.best_cost


#: rule-set spaces without cross products, measured when the rule engine
#: was still an optimizer option
RESTRICTED = {
    "full": RuleSet(),
    "no-exchange": RuleSet(True, True, True, False),
    "assoc-left+commute": RuleSet(True, True, False, False),
    "commute-only": RuleSet(True, False, False, False),
    "none": RuleSet(False, False, False, False),
}

PINS = [
    ("Q3", "full", 183_216),
    ("Q3", "no-exchange", 183_216),
    ("Q3", "assoc-left+commute", 183_216),
    ("Q3", "commute-only", 65_424),
    ("Q3", "none", 16_008),
    ("Q5", "commute-only", 7_416_442_368),
    ("Q5", "none", 229_938_912),
]


@pytest.mark.parametrize(
    "query,rules,expected", PINS, ids=[f"{q}-{r}" for q, r, _ in PINS]
)
def test_restricted_rule_sets_reach_pinned_spaces(
    catalog, query, rules, expected
):
    oracle = optimize_reference(
        catalog,
        tpch_query(query).sql,
        OptimizerOptions(allow_cross_products=False),
        explorer=TransformationExplorer(RESTRICTED[rules]),
    )
    assert PlanSpace.from_result(oracle).count() == expected
