"""Property-based tests: the rank <-> plan bijection on random memos.

Hypothesis generates random (but structurally valid) memos — random scan
alternatives, random join implementations, enforcers, property
requirements — and we verify the paper's algorithms hold on all of them:

* counting equals brute-force enumeration;
* unrank is injective over 0..N-1;
* rank inverts unrank.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import ColumnId
from repro.algebra.physical import (
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    Sort,
    TableScan,
)
from repro.memo.memo import Memo
from tests.planspace.materialized.space import PlanSpace


def build_random_memo(seed: int, n_leaves: int, sorted_scans: bool) -> Memo:
    """A random but valid memo over a left-deep chain of joins.

    Each leaf group gets 1-3 scan alternatives (optionally sorted) and
    possibly a Sort enforcer; each join group gets 1-3 join alternatives,
    where merge joins require sorted children.
    """
    rng = random.Random(seed)
    memo = Memo()
    leaf_groups = []
    for i in range(n_leaves):
        alias = f"t{i}"
        rels = frozenset([alias])
        group = memo.get_or_create_group(("rels", rels), rels)
        group.cardinality = float(rng.randint(1, 100))
        memo.insert(TableScan(alias, alias), (), group)
        key = ColumnId(alias, "x")
        if sorted_scans and rng.random() < 0.7:
            memo.insert(IndexScan(alias, alias, f"{alias}_x", (key,)), (), group)
        if rng.random() < 0.5:
            memo.insert(Sort((key,)), (group.gid,), group)
        leaf_groups.append(group)

    current = leaf_groups[0]
    for i in range(1, n_leaves):
        right = leaf_groups[i]
        rels = current.relations | right.relations
        group = memo.get_or_create_group(("rels", rels), rels)
        group.cardinality = float(rng.randint(1, 1000))
        left_key = ColumnId(sorted(current.relations)[0], "x")
        right_key = ColumnId(sorted(right.relations)[0], "x")
        children = (current.gid, right.gid)
        memo.insert(NestedLoopJoin(None), children, group)
        if rng.random() < 0.7:
            memo.insert(HashJoin((left_key,), (right_key,)), children, group)
        if rng.random() < 0.6:
            memo.insert(MergeJoin((left_key,), (right_key,)), children, group)
        current = group

    memo.set_root(current.gid)
    return memo


def brute_force_plans(space: PlanSpace) -> set:
    """All plans by explicit recursive expansion (independent of unrank).

    A plan is fingerprinted as ``(operator_key, (child_fingerprints...))``.
    """

    def expand(node):
        if node.arity == 0:
            return [(node.key, ())]
        slot_options = []
        for alternatives in node.alternatives:
            options = []
            for alt in alternatives:
                options.extend(expand(alt))
            slot_options.append(options)
        combos = [()]
        for options in slot_options:
            combos = [prefix + (choice,) for prefix in combos for choice in options]
        return [(node.key, combo) for combo in combos]

    result = set()
    for root in space.linked.roots:
        result.update(expand(root))
    return result


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_leaves=st.integers(min_value=1, max_value=4),
    sorted_scans=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_count_matches_brute_force(seed, n_leaves, sorted_scans):
    memo = build_random_memo(seed, n_leaves, sorted_scans)
    space = PlanSpace.from_memo(memo)
    assert space.count() == len(brute_force_plans(space))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_leaves=st.integers(min_value=1, max_value=4),
    sorted_scans=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_unrank_is_injective(seed, n_leaves, sorted_scans):
    memo = build_random_memo(seed, n_leaves, sorted_scans)
    space = PlanSpace.from_memo(memo)
    total = space.count()
    fingerprints = set()
    for rank in range(min(total, 300)):
        fingerprints.add(space.unrank(rank).fingerprint())
    assert len(fingerprints) == min(total, 300)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_leaves=st.integers(min_value=1, max_value=4),
    sorted_scans=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_rank_inverts_unrank(seed, n_leaves, sorted_scans):
    memo = build_random_memo(seed, n_leaves, sorted_scans)
    space = PlanSpace.from_memo(memo)
    total = space.count()
    rng = random.Random(seed)
    ranks = [rng.randrange(total) for _ in range(min(total, 50))]
    for rank in ranks:
        assert space.rank(space.unrank(rank)) == rank


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_leaves=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_merge_join_children_always_sorted(seed, n_leaves):
    memo = build_random_memo(seed, n_leaves, sorted_scans=True)
    space = PlanSpace.from_memo(memo)
    from repro.algebra.properties import order_satisfies

    total = space.count()
    for rank in range(0, total, max(1, total // 60)):
        plan = space.unrank(rank)
        for node in plan.iter_nodes():
            if isinstance(node.op, MergeJoin):
                for pos, child in enumerate(node.children):
                    assert order_satisfies(
                        child.op.delivered_order(),
                        node.op.required_child_order(pos),
                    )
