"""Tests for exploration: the enumeration explorer, and the rule-engine
oracle (``tests/optimizer/reference_transformation.py``) against it."""

from repro.algebra.logical import LogicalJoin
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import bind
from repro.sql.parser import parse
from tests.optimizer.reference_transformation import (
    DEFAULT_RULES,
    RuleSet,
    TransformationExplorer,
)

CHAIN3 = (
    "SELECT c.c_custkey FROM customer c, orders o, lineitem l "
    "WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey"
)

CHAIN4 = (
    "SELECT n.n_name FROM region r, nation n, supplier s, partsupp ps "
    "WHERE r.r_regionkey = n.n_regionkey AND n.n_nationkey = s.s_nationkey "
    "AND s.s_suppkey = ps.ps_suppkey"
)

STAR3 = (
    "SELECT n.n_name FROM nation n, supplier s, customer c "
    "WHERE n.n_nationkey = s.s_nationkey AND n.n_nationkey = c.c_nationkey"
)

#: Q5's customer/supplier nationkey edge closes this cycle
CYCLE3 = (
    "SELECT n.n_name FROM nation n, supplier s, customer c "
    "WHERE n.n_nationkey = s.s_nationkey "
    "AND n.n_nationkey = c.c_nationkey "
    "AND c.c_nationkey = s.s_nationkey"
)


def _explore(catalog, sql, explorer, allow_cross):
    setup = build_initial_memo(bind(parse(sql), catalog), allow_cross)
    explorer.explore(setup.memo, setup.graph, allow_cross)
    return setup.memo


def _join_fingerprints(memo):
    out = set()
    for group in memo.groups:
        for expr in group.exprs:
            if isinstance(expr.op, LogicalJoin):
                children_rels = tuple(
                    tuple(sorted(memo.group(c).relations)) for c in expr.children
                )
                out.add((children_rels, expr.op.key()))
    return out


class TestEnumeration:
    def test_three_table_chain_no_cross(self, catalog):
        memo = _explore(catalog, CHAIN3, EnumerationExplorer(), False)
        joins = _join_fingerprints(memo)
        # c-o-l chain: {co|l, c|ol} at top (x2 orders) + 2 base pairs (x2).
        assert len(joins) == 8

    def test_three_table_chain_with_cross(self, catalog):
        memo = _explore(catalog, CHAIN3, EnumerationExplorer(), True)
        joins = _join_fingerprints(memo)
        # Three pair subsets (2 ordered joins each) + the full set's 6
        # ordered partitions = 12 distinct join expressions.
        assert len(joins) == 12

    def test_groups_cover_connected_subsets(self, catalog):
        memo = _explore(catalog, CHAIN4, EnumerationExplorer(), False)
        rels_groups = [g for g in memo.groups if g.key[0] == "rels"]
        # Chain of 4 => 10 contiguous intervals.
        assert len(rels_groups) == 10

    def test_groups_cover_all_subsets_with_cross(self, catalog):
        memo = _explore(catalog, CHAIN4, EnumerationExplorer(), True)
        rels_groups = [g for g in memo.groups if g.key[0] == "rels"]
        assert len(rels_groups) == 15


class TestTransformation:
    def test_matches_enumeration_chain_no_cross(self, catalog):
        enum_memo = _explore(catalog, CHAIN4, EnumerationExplorer(), False)
        rule_memo = _explore(catalog, CHAIN4, TransformationExplorer(), False)
        assert _join_fingerprints(rule_memo) == _join_fingerprints(enum_memo)

    def test_matches_enumeration_chain_with_cross(self, catalog):
        enum_memo = _explore(catalog, CHAIN4, EnumerationExplorer(), True)
        rule_memo = _explore(catalog, CHAIN4, TransformationExplorer(), True)
        assert _join_fingerprints(rule_memo) == _join_fingerprints(enum_memo)

    def test_matches_enumeration_star_no_cross(self, catalog):
        enum_memo = _explore(catalog, STAR3, EnumerationExplorer(), False)
        rule_memo = _explore(catalog, STAR3, TransformationExplorer(), False)
        assert _join_fingerprints(rule_memo) == _join_fingerprints(enum_memo)

    def test_matches_enumeration_cycle_no_cross(self, catalog):
        """Cyclic join graphs are the hard case for rule completeness —
        Q5's customer/supplier nationkey edge closes a cycle."""
        enum_memo = _explore(catalog, CYCLE3, EnumerationExplorer(), False)
        rule_memo = _explore(catalog, CYCLE3, TransformationExplorer(), False)
        assert _join_fingerprints(rule_memo) == _join_fingerprints(enum_memo)

    def test_matches_enumeration_clique4(self, catalog):
        from repro.workloads.synthetic import clique_query

        workload = clique_query(4, rows=5, seed=0)
        bound_sql = workload.sql
        setup_enum = build_initial_memo(
            bind(parse(bound_sql), workload.catalog), False
        )
        EnumerationExplorer().explore(setup_enum.memo, setup_enum.graph, False)
        setup_rule = build_initial_memo(
            bind(parse(bound_sql), workload.catalog), False
        )
        TransformationExplorer().explore(setup_rule.memo, setup_rule.graph, False)
        assert _join_fingerprints(setup_rule.memo) == _join_fingerprints(
            setup_enum.memo
        )

    def test_commutativity_alone_flips_sides_only(self, catalog):
        rules = RuleSet(
            commutativity=True,
            associativity_left=False,
            associativity_right=False,
            exchange=False,
        )
        memo = _explore(catalog, CHAIN3, TransformationExplorer(rules), False)
        joins = _join_fingerprints(memo)
        # Initial 2 joins + their mirrors.
        assert len(joins) == 4

    def test_no_rules_fixpoint_is_initial_tree(self, catalog):
        rules = RuleSet(False, False, False, False)
        memo = _explore(catalog, CHAIN3, TransformationExplorer(rules), False)
        assert len(_join_fingerprints(memo)) == 2

    def test_rule_set_describe(self):
        assert "commute" in DEFAULT_RULES.describe()
        assert RuleSet(False, False, False, False).describe() == "(none)"


class TestIdempotence:
    def test_second_exploration_adds_nothing(self, catalog):
        setup = build_initial_memo(bind(parse(CHAIN4), catalog), False)
        explorer = EnumerationExplorer()
        explorer.explore(setup.memo, setup.graph, False)
        added = explorer.explore(setup.memo, setup.graph, False)
        assert added == 0

    def test_transformation_idempotent(self, catalog):
        setup = build_initial_memo(bind(parse(CHAIN4), catalog), False)
        explorer = TransformationExplorer()
        explorer.explore(setup.memo, setup.graph, False)
        added = explorer.explore(setup.memo, setup.graph, False)
        assert added == 0
