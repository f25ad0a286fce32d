"""Tests for plan counting (paper Section 3.2).

The headline check: our counts equal the numbers printed in the paper's
Figure 3 for its worked example, and equal brute-force enumeration
everywhere else.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.optimizer.optimizer import OptimizerOptions
from repro.optimizer.rules import ImplementationConfig
from repro.planspace.implicit import ImplicitPlanSpace
from repro.workloads.synthetic import chain_query, cycle_query, random_query
from repro.workloads.tpch_queries import tpch_query
from tests.planspace.materialized.counting import annotate_counts, operator_count
from tests.planspace.materialized.links import materialize_links
from tests.planspace.materialized.paper_example import EXPECTED_COUNTS, EXPECTED_TOTAL
from tests.planspace.reference_counting import assert_same_aggregates, count_both
from tests.planspace.test_implicit_tables import SHAPES


class TestPaperFigure3:
    def test_figure2_memo_size(self, paper_example):
        # Figure 2's partially expanded memo: 5 logical + 11 physical.
        memo = paper_example.memo
        assert memo.logical_expression_count() == 5
        assert memo.physical_expression_count() == 11

    def test_every_annotated_count_matches(self, paper_example):
        space = materialize_links(paper_example.memo)
        annotate_counts(space)
        for paper_id, expected in EXPECTED_COUNTS.items():
            gid, lid = map(int, paper_example.paper_ids[paper_id].split("."))
            node = space.operator(gid, lid)
            assert node.count == expected, f"operator {paper_id}"

    def test_total_is_sum_over_root_group(self, paper_example):
        space = materialize_links(paper_example.memo)
        total = annotate_counts(space)
        assert total == EXPECTED_TOTAL

    def test_prefix_products_match_definition(self, paper_example):
        space = materialize_links(paper_example.memo)
        annotate_counts(space)
        gid, lid = map(int, paper_example.paper_ids["7.7"].split("."))
        node = space.operator(gid, lid)
        # b(1) = 2 (scan C), b(2) = 11 (group AB); B = (1, 2, 22).
        assert node.child_sums == (2, 11)
        assert node.prefix_products == (1, 2, 22)

    def test_leaves_count_one(self, paper_example):
        space = materialize_links(paper_example.memo)
        annotate_counts(space)
        for node in space.operators.values():
            if node.arity == 0:
                assert node.count == 1


class TestCountsAgainstBruteForce:
    def test_count_equals_enumeration_q3(self, q3_space):
        total = q3_space.count()
        if total <= 50_000:
            plans = set()
            for rank, plan in q3_space.enumerate():
                plans.add(plan.fingerprint())
            assert len(plans) == total

    def test_operator_count_lazy(self, paper_example):
        space = materialize_links(paper_example.memo)
        gid, lid = map(int, paper_example.paper_ids["7.7"].split("."))
        node = space.operator(gid, lid)
        assert node.count is None
        assert operator_count(node) == 22
        assert node.count == 22

    def test_counting_is_exact_bigint(self, q5_space):
        # Q5's space is astronomically large (the paper reports 6.9e7 with
        # SQL Server's rule set; ours is larger); the count must stay an
        # exact Python integer.
        total = q5_space.count()
        assert total > 10**12
        assert isinstance(total, int)

    def test_total_stable_across_recount(self, paper_example):
        space = materialize_links(paper_example.memo)
        first = annotate_counts(space)
        second = annotate_counts(space)
        assert first == second


class TestZeroAlternativeOperators:
    def test_infeasible_operator_counts_zero(self, paper_example):
        """A merge join whose child group offers no sorted alternative
        roots zero plans and simply vanishes from the count."""
        from repro.algebra.expressions import ColumnId
        from repro.algebra.physical import MergeJoin

        memo = paper_example.memo
        by = ColumnId("b", "y")
        ay = ColumnId("a", "y")
        # b.y / a.y orders are delivered by nothing in the example memo.
        g3 = next(g for g in memo.groups if g.relations == frozenset(["a", "b"]))
        g1 = next(g for g in memo.groups if g.relations == frozenset(["a"]))
        g2 = next(g for g in memo.groups if g.relations == frozenset(["b"]))
        expr = memo.insert(
            MergeJoin(left_keys=(by,), right_keys=(ay,)), (g2.gid, g1.gid), g3
        )
        try:
            space = materialize_links(memo)
            total = annotate_counts(space)
            node = space.operator(expr.group_id, expr.local_id)
            assert node.count == 0
            # Root total grows only by what the new operator contributes
            # through group 3's parents: 2 extra per root op child sum... the
            # infeasible operator contributes nothing.
            assert total == EXPECTED_TOTAL
        finally:
            g3.exprs.remove(expr)


# ----------------------------------------------------------------------
# the implicit engine's requirement registry: one sort, same order
# ----------------------------------------------------------------------
def _registries(catalog, sql, cross):
    """``mask -> required key byte strings in Sort local-id order`` of
    the count pass's state and of the per-pair oracle's, over one layout
    (kid *ids* differ between the two key tables; the orders they name
    do not)."""
    options = OptimizerOptions(allow_cross_products=cross)
    states = count_both(catalog, sql, options)
    out = [
        {
            mask: (kids := state.required.get(mask))
            and [state.keys.bytes_of(kid) for kid in kids]
            for mask in state.layout.subset_masks
        }
        for state in states
    ]
    seeded = [
        g.mask for g in states[0].layout.join_groups() if g.initial is not None
    ]
    return out[0], out[1], seeded


def _assert_same_registry(catalog, sql, cross, n_relations):
    turbo, reference, seeded = _registries(catalog, sql, cross)
    assert len(seeded) == n_relations - 1  # the left-deep prefix chain
    assert any(turbo[mask] for mask in seeded)
    assert turbo == reference  # every mask, seeded groups included


class TestTurboRegistryOrder:
    """``state.required`` names a group's ``Sort`` enforcers in local-id
    order, so the vectorized pass must register requirements exactly
    like the per-pair reference loop (the materializer's emission order:
    a seeded group's initial left-deep join first)."""

    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes(self, shape, cross):
        n = 6 if cross else 7
        workload = SHAPES[shape](n, rows=5, seed=0)
        _assert_same_registry(workload.catalog, workload.sql, cross, n)

    def test_extra_requirements_register_last(self, catalog):
        """A stream aggregate's child order is a requirement on the join
        root, which no merge join registers one on; the ORDER BY lands on
        the tower."""
        sql = (
            "SELECT n.n_name, COUNT(*) AS orders FROM customer c, orders o, "
            "nation n, region r WHERE c.c_custkey = o.o_custkey AND "
            "c.c_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
            "GROUP BY n.n_name ORDER BY n.n_name"
        )
        state = ImplicitPlanSpace.from_sql(catalog, sql).state
        extra, _tower, root_seq = state._tower_requirement_seqs()
        assert extra and root_seq is not None
        (mask, seq), = extra
        assert mask == state.layout.universe.full_mask
        assert _registries(catalog, sql, False)[0][mask] == [seq]
        _assert_same_registry(catalog, sql, False, 4)

    def test_seeded_join_in_reverse_orientation(self, catalog):
        """FROM lists the name-smallest alias last, so the top group's
        initial join is the *(r, l)* orientation of its stored split, and
        the two orientations order the multi-column cut key differently:
        the pair's first registration decides the Sort local ids."""
        sql = (
            "SELECT COUNT(*) AS n FROM supplier b, orders c, lineitem a "
            "WHERE b.s_nationkey = c.o_custkey AND a.l_orderkey = c.o_orderkey "
            "AND a.l_suppkey = b.s_suppkey"
        )
        state = ImplicitPlanSpace.from_sql(catalog, sql).state
        top = state.layout.group_for_mask(state.layout.universe.full_mask)
        assert top.initial not in top.splits and top.initial[::-1] in top.splits
        turbo, _reference, _seeded = _registries(catalog, sql, False)
        first, second = turbo[top.initial[0]]
        assert len(first) == 2 and first == second[::-1]
        _assert_same_registry(catalog, sql, False, 3)

    @given(
        n=st.integers(4, 7),
        density=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=3, deadline=None)
    def test_random_topologies(self, n, density, seed):
        workload = random_query(n, edge_density=density, seed=seed, rows=5)
        _assert_same_registry(workload.catalog, workload.sql, False, n)


# ----------------------------------------------------------------------
# the one count pass against the per-pair oracle
# ----------------------------------------------------------------------
#: configuration -> (implementation config, include_redundant_sorts)
CONFIGS = {
    "default": (ImplementationConfig(), True),
    "index-nl-join": (ImplementationConfig(enable_index_nl_join=True), True),
    "no-redundant-sorts": (ImplementationConfig(), False),
}


def _assert_matches_oracle(catalog, sql, cross=False, config="default"):
    implementation, redundant = CONFIGS[config]
    options = OptimizerOptions(
        allow_cross_products=cross, implementation=implementation
    )
    state, reference = count_both(
        catalog, sql, options, include_redundant_sorts=redundant
    )
    assert_same_aggregates(state, reference)


class TestCountPassAgainstOracle:
    """Every per-group aggregate of the vectorized pass equals the
    per-pair loop's (``tests/planspace/reference_counting.py``), in every
    configuration and past the old 18-relation word-table limit."""

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes(self, shape, cross, config):
        workload = SHAPES[shape](5 if cross else 6, rows=5, seed=0)
        _assert_matches_oracle(workload.catalog, workload.sql, cross, config)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_stream_aggregate_and_order_by(self, catalog, config):
        sql = tpch_query("Q3").sql + " ORDER BY revenue"
        _assert_matches_oracle(catalog, sql, config=config)

    @pytest.mark.parametrize(
        "shape", [chain_query, cycle_query], ids=["chain", "cycle"]
    )
    def test_twenty_five_relations(self, shape):
        workload = shape(25, rows=5, seed=0)
        _assert_matches_oracle(workload.catalog, workload.sql)

    @pytest.mark.slow
    def test_sixty_three_relations(self):
        workload = chain_query(63, rows=5, seed=0)
        _assert_matches_oracle(workload.catalog, workload.sql)
