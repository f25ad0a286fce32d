"""The cost-based optimizer (system S7).

Populates a MEMO with logical alternatives (join reordering by
Starburst-style bottom-up enumeration), derives physical implementations plus Sort enforcers,
estimates cardinalities, costs operators, and extracts the best plan —
everything the paper's plan-space toolkit assumes has already happened
when it takes over.
"""

from repro.optimizer.bitset import AliasUniverse
from repro.optimizer.joingraph import JoinGraph
from repro.optimizer.plan import PlanNode
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel, CostParameters
from repro.optimizer.explain import explain_plan
from repro.optimizer.optimizer import (
    OptimizationResult,
    Optimizer,
    OptimizerOptions,
)

__all__ = [
    "AliasUniverse",
    "JoinGraph",
    "PlanNode",
    "CardinalityEstimator",
    "CostModel",
    "CostParameters",
    "explain_plan",
    "OptimizationResult",
    "Optimizer",
    "OptimizerOptions",
]
