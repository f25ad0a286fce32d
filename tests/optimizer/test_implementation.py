"""Tests for implementation rules and enforcer insertion, read through
the object ``Memo`` facade the columnar store materializes lazily."""

from repro.algebra.expressions import ColumnId
from repro.algebra.physical import (
    HashAggregate,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    PhysicalProject,
    Sort,
    StreamAggregate,
    TableScan,
)
from repro.optimizer.explorer import EnumerationExplorer
from repro.optimizer.implementation import (
    ImplementationConfig,
    extract_equi_keys,
    implement_memo_columnar,
)
from repro.optimizer.setup import build_initial_memo
from repro.sql.binder import bind
from repro.sql.parser import parse


def _implemented(catalog, sql, config=None, allow_cross=False, root_order=()):
    setup = build_initial_memo(bind(parse(sql), catalog), allow_cross)
    EnumerationExplorer().explore(setup.memo, setup.graph, allow_cross)
    implement_memo_columnar(
        setup.memo, setup.graph, catalog, config, root_order=root_order
    )
    return setup.memo


def _ops(memo, cls):
    return [
        e for g in memo.groups for e in g.physical_exprs() if isinstance(e.op, cls)
    ]


JOIN2 = (
    "SELECT n.n_name FROM nation n, region r "
    "WHERE n.n_regionkey = r.r_regionkey"
)


class TestExtractEquiKeys:
    def test_simple_equality(self, catalog):
        bound = bind(parse(JOIN2), catalog)
        predicate = bound.where_conjuncts[0]
        left, right, residual = extract_equi_keys(
            predicate, frozenset(["n"]), frozenset(["r"])
        )
        assert left == (ColumnId("n", "n_regionkey"),)
        assert right == (ColumnId("r", "r_regionkey"),)
        assert residual is None

    def test_orientation_follows_sides(self, catalog):
        bound = bind(parse(JOIN2), catalog)
        predicate = bound.where_conjuncts[0]
        left, right, _ = extract_equi_keys(
            predicate, frozenset(["r"]), frozenset(["n"])
        )
        assert left == (ColumnId("r", "r_regionkey"),)

    def test_non_equi_is_residual(self, catalog):
        sql = (
            "SELECT n.n_name FROM nation n, region r "
            "WHERE n.n_regionkey = r.r_regionkey AND n.n_nationkey < r.r_regionkey"
        )
        bound = bind(parse(sql), catalog)
        # The two conjuncts arrive as separate where_conjuncts; conjoin.
        from repro.algebra.expressions import make_conjunction

        predicate = make_conjunction(list(bound.where_conjuncts))
        left, right, residual = extract_equi_keys(
            predicate, frozenset(["n"]), frozenset(["r"])
        )
        assert len(left) == 1
        assert residual is not None

    def test_no_equi_keys(self, catalog):
        sql = (
            "SELECT n.n_name FROM nation n, region r "
            "WHERE n.n_regionkey < r.r_regionkey"
        )
        bound = bind(parse(sql), catalog)
        left, right, residual = extract_equi_keys(
            bound.where_conjuncts[0], frozenset(["n"]), frozenset(["r"])
        )
        assert left == () and right == ()
        assert residual is not None

    def test_composite_keys_sorted_canonically(self, catalog):
        sql = (
            "SELECT l.l_orderkey FROM lineitem l, partsupp ps "
            "WHERE ps.ps_suppkey = l.l_suppkey AND ps.ps_partkey = l.l_partkey"
        )
        bound = bind(parse(sql), catalog)
        from repro.algebra.expressions import make_conjunction

        predicate = make_conjunction(list(bound.where_conjuncts))
        left, right, residual = extract_equi_keys(
            predicate, frozenset(["l"]), frozenset(["ps"])
        )
        assert left == (ColumnId("l", "l_partkey"), ColumnId("l", "l_suppkey"))
        assert right == (ColumnId("ps", "ps_partkey"), ColumnId("ps", "ps_suppkey"))
        assert residual is None


class TestScanImplementations:
    def test_table_scan_always_generated(self, catalog):
        memo = _implemented(catalog, JOIN2)
        assert len(_ops(memo, TableScan)) == 2

    def test_index_scans_per_index(self, catalog):
        memo = _implemented(catalog, JOIN2)
        nation_scans = [
            e for e in _ops(memo, IndexScan) if e.op.table == "nation"
        ]
        assert {e.op.index_name for e in nation_scans} == {
            "nation_pk",
            "nation_regionkey",
        }

    def test_index_scans_disabled(self, catalog):
        config = ImplementationConfig(enable_index_scans=False)
        memo = _implemented(catalog, JOIN2, config)
        assert not _ops(memo, IndexScan)

    def test_index_key_order_uses_alias(self, catalog):
        memo = _implemented(catalog, JOIN2)
        scan = next(
            e.op
            for e in _ops(memo, IndexScan)
            if e.op.index_name == "nation_regionkey"
        )
        assert scan.key_order == (ColumnId("n", "n_regionkey"),)


class TestJoinImplementations:
    def test_three_join_algorithms_for_equi_join(self, catalog):
        memo = _implemented(catalog, JOIN2)
        assert len(_ops(memo, HashJoin)) == 2  # both orientations
        assert len(_ops(memo, MergeJoin)) == 2
        assert len(_ops(memo, NestedLoopJoin)) == 2

    def test_cross_join_only_nested_loops(self, catalog):
        memo = _implemented(
            catalog, "SELECT n.n_name FROM nation n, region r", allow_cross=True
        )
        assert not _ops(memo, HashJoin)
        assert not _ops(memo, MergeJoin)
        assert len(_ops(memo, NestedLoopJoin)) == 2

    def test_join_algorithms_configurable(self, catalog):
        config = ImplementationConfig(
            enable_hash_join=False, enable_merge_join=False
        )
        memo = _implemented(catalog, JOIN2, config)
        assert not _ops(memo, HashJoin)
        assert not _ops(memo, MergeJoin)
        assert _ops(memo, NestedLoopJoin)


class TestAggregateImplementations:
    GROUPED = (
        "SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey"
    )

    def test_grouped_aggregate_has_both(self, catalog):
        memo = _implemented(catalog, self.GROUPED)
        assert len(_ops(memo, HashAggregate)) == 1
        assert len(_ops(memo, StreamAggregate)) == 1

    def test_scalar_aggregate_stream_only(self, catalog):
        memo = _implemented(catalog, "SELECT COUNT(*) AS c FROM nation")
        assert not _ops(memo, HashAggregate)
        assert len(_ops(memo, StreamAggregate)) == 1

    def test_stream_aggregate_disabled(self, catalog):
        config = ImplementationConfig(enable_stream_aggregate=False)
        memo = _implemented(catalog, self.GROUPED, config)
        assert not _ops(memo, StreamAggregate)
        assert _ops(memo, HashAggregate)


class TestEnforcers:
    def test_merge_join_requirements_create_sorts(self, catalog):
        memo = _implemented(catalog, JOIN2)
        sorts = _ops(memo, Sort)
        # Sorts appear in both scan groups (each merge-join side needs one).
        assert len(sorts) >= 2
        sort_groups = {e.group_id for e in sorts}
        scan_groups = {e.group_id for e in _ops(memo, TableScan)}
        assert sort_groups <= scan_groups | sort_groups

    def test_sort_child_is_own_group(self, catalog):
        memo = _implemented(catalog, JOIN2)
        for sort in _ops(memo, Sort):
            assert sort.children == (sort.group_id,)

    def test_enforcers_disabled(self, catalog):
        config = ImplementationConfig(enable_sort_enforcers=False)
        memo = _implemented(catalog, JOIN2, config)
        assert not _ops(memo, Sort)

    def test_stream_aggregate_requirement_creates_sort(self, catalog):
        memo = _implemented(
            catalog,
            "SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey",
        )
        sorts = _ops(memo, Sort)
        orders = {s.op.order for s in sorts}
        assert (ColumnId("nation", "n_regionkey"),) in orders

    def test_root_order_creates_root_sort(self, catalog):
        root_order = (ColumnId("", "n_name"),)
        memo = _implemented(
            catalog,
            "SELECT n_name FROM nation",
            root_order=root_order,
        )
        root_sorts = [
            e for e in _ops(memo, Sort) if e.group_id == memo.root_group_id
        ]
        assert len(root_sorts) == 1
        assert root_sorts[0].op.order == root_order

    def test_projection_implemented(self, catalog):
        memo = _implemented(catalog, "SELECT n_name FROM nation")
        assert len(_ops(memo, PhysicalProject)) == 1

    def test_idempotent(self, catalog):
        """Implementing again replaces the store, it does not stack a
        second physical block onto the groups."""
        setup = build_initial_memo(bind(parse(JOIN2), catalog), False)
        EnumerationExplorer().explore(setup.memo, setup.graph, False)
        first = implement_memo_columnar(setup.memo, setup.graph, catalog)
        count = setup.memo.physical_expression_count()
        second = implement_memo_columnar(setup.memo, setup.graph, catalog)
        assert setup.memo.columnar is second is not first
        assert second.physical_count() == first.physical_count() == count
        assert setup.memo.physical_expression_count() == count
        assert len(_ops(setup.memo, TableScan)) == 2
