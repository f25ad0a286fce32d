"""Tests for the join hypergraph."""

import pytest

from repro.algebra.expressions import (
    BoolExpr,
    BoolOp,
    ColumnId,
    ColumnRef,
    Comparison,
    CompOp,
    Literal,
)
from repro.errors import OptimizerError
from repro.optimizer.joingraph import JoinGraph
from tests.optimizer.reference_enumeration import (
    all_subsets,
    connected_subsets,
    partitions,
)


def eq(a, b):
    left = ColumnRef(ColumnId(*a.split(".")))
    right = ColumnRef(ColumnId(*b.split(".")))
    return Comparison(CompOp.EQ, left, right)


def f(*names):
    return frozenset(names)


@pytest.fixture
def chain():
    """a - b - c - d."""
    return JoinGraph(
        f("a", "b", "c", "d"),
        [eq("a.x", "b.x"), eq("b.y", "c.y"), eq("c.z", "d.z")],
    )


@pytest.fixture
def star():
    """hub h connected to s1, s2, s3."""
    return JoinGraph(
        f("h", "s1", "s2", "s3"),
        [eq("h.a", "s1.x"), eq("h.b", "s2.x"), eq("h.c", "s3.x")],
    )


class TestConstruction:
    def test_unknown_alias_rejected(self):
        with pytest.raises(OptimizerError):
            JoinGraph(f("a"), [eq("a.x", "b.x")])

    def test_empty_aliases_rejected(self):
        with pytest.raises(OptimizerError):
            JoinGraph(frozenset(), [])

    def test_constant_conjuncts_separated(self):
        graph = JoinGraph(f("a"), [Comparison(CompOp.EQ, Literal(1), Literal(1))])
        assert len(graph.constant_conjuncts) == 1
        assert not graph.conjuncts


class TestPredicates:
    def test_applicable_at_meeting_point(self, chain):
        conjuncts = chain.applicable_conjuncts(f("a"), f("b"))
        assert len(conjuncts) == 1

    def test_not_applicable_below(self, chain):
        # a.x = b.x is evaluable inside {a, b}; joining {a,b} with {c}
        # must not re-apply it.
        conjuncts = chain.applicable_conjuncts(f("a", "b"), f("c"))
        assert [c.render() for c in conjuncts] == ["b.y = c.y"]

    def test_cross_product_has_no_predicate(self, chain):
        assert chain.join_predicate(f("a"), f("c")) is None

    def test_multiway_conjunct_waits_for_all_aliases(self):
        three_way = BoolExpr(
            BoolOp.OR, (eq("a.x", "b.x"), eq("b.x", "c.x"))
        )
        graph = JoinGraph(f("a", "b", "c"), [three_way])
        assert graph.applicable_conjuncts(f("a"), f("b")) == []
        assert len(graph.applicable_conjuncts(f("a", "b"), f("c"))) == 1

    def test_canonical_predicate_identity(self, chain):
        p1 = chain.join_predicate(f("a", "b"), f("c", "d"))
        p2 = chain.join_predicate(f("c", "d"), f("a", "b"))
        assert p1.fingerprint() == p2.fingerprint()

    def test_internal_conjuncts(self, chain):
        internal = chain.internal_conjuncts(f("a", "b", "c"))
        assert len(internal) == 2


class TestConnectivity:
    def test_single_alias_connected(self, chain):
        assert chain.is_connected(f("a"))

    def test_adjacent_connected(self, chain):
        assert chain.is_connected(f("a", "b"))

    def test_gap_disconnected(self, chain):
        assert not chain.is_connected(f("a", "c"))

    def test_full_chain_connected(self, chain):
        assert chain.is_connected(f("a", "b", "c", "d"))

    def test_star_satellites_disconnected(self, star):
        assert not star.is_connected(f("s1", "s2"))

    def test_components(self, chain):
        components = chain.components(f("a", "b", "d"))
        assert sorted(len(c) for c in components) == [1, 2]

    def test_empty_not_connected(self, chain):
        assert not chain.is_connected(frozenset())

    def test_neighbors(self, chain):
        assert chain.neighbors(f("b")) == f("a", "c")
        assert chain.neighbors(f("a", "b")) == f("c")


class TestPartitions:
    def test_counts_with_cross_products(self, chain):
        # 2^4 - 2 = 14 ordered partitions of a 4-set.
        assert len(partitions(chain, f("a", "b", "c", "d"), True)) == 14

    def test_counts_without_cross_products_chain(self, chain):
        # Chain a-b-c-d: unordered valid splits are {a|bcd, ab|cd, abc|d};
        # ordered doubles that.
        assert len(partitions(chain, f("a", "b", "c", "d"), False)) == 6

    def test_star_center_must_stay_connected(self, star):
        parts = partitions(star, f("h", "s1", "s2", "s3"), False)
        # Valid splits keep satellites with the hub: {s1|rest},{s2|rest},{s3|rest}.
        assert len(parts) == 6
        for left, right in parts:
            assert star.is_connected(left) and star.is_connected(right)

    def test_ordered_pairs_come_in_mirrors(self, chain):
        parts = partitions(chain, f("a", "b"), False)
        assert (f("a"), f("b")) in parts
        assert (f("b"), f("a")) in parts

    def test_single_alias_no_partitions(self, chain):
        assert partitions(chain, f("a"), True) == []


class TestSubsets:
    def test_all_subsets_count(self, chain):
        assert len(all_subsets(chain)) == 15

    def test_all_subsets_sorted_by_size(self, chain):
        sizes = [len(s) for s in all_subsets(chain)]
        assert sizes == sorted(sizes)

    def test_connected_subsets_chain(self, chain):
        # Chain of 4: connected subsets are the 10 contiguous intervals.
        assert len(connected_subsets(chain)) == 10

    def test_connected_subsets_star(self, star):
        # Star of 3 satellites: any subset containing h, plus singletons.
        assert len(connected_subsets(star)) == 8 + 3
