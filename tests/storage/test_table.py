"""Tests for the in-memory table."""

import pytest

from repro.catalog.schema import Column, ColumnType, Index, TableSchema
from repro.errors import StorageError
from repro.storage.table import DataTable


def _schema():
    return TableSchema(
        name="t",
        columns=(Column("a", ColumnType.INTEGER), Column("b", ColumnType.INTEGER)),
        primary_key=("a",),
        indexes=(
            Index("t_a", "t", ("a",), unique=True, clustered=True),
            Index("t_b", "t", ("b",)),
        ),
    )


class TestDataTable:
    def test_scan_preserves_insertion_order(self):
        table = DataTable(_schema(), [(2, 9), (1, 8)])
        assert table.scan() == [(2, 9), (1, 8)]

    def test_len(self):
        assert len(DataTable(_schema(), [(1, 1)])) == 1

    def test_index_scan_sorted(self):
        table = DataTable(_schema(), [(3, 5), (1, 9), (2, 1)])
        assert [r[0] for r in table.index_scan("t_a")] == [1, 2, 3]
        assert [r[1] for r in table.index_scan("t_b")] == [1, 5, 9]

    def test_index_scan_cached(self):
        table = DataTable(_schema(), [(2, 1), (1, 2)])
        first = table.index_scan("t_a")
        assert table.index_scan("t_a") is first

    def test_insert_invalidates_index_cache(self):
        table = DataTable(_schema(), [(2, 1)])
        table.index_scan("t_a")
        table.insert((1, 5))
        assert [r[0] for r in table.index_scan("t_a")] == [1, 2]

    def test_unknown_index(self):
        with pytest.raises(StorageError):
            DataTable(_schema(), []).index_scan("nope")
        with pytest.raises(StorageError):
            DataTable(_schema(), []).index_lookup("nope", 1)

    def test_index_lookup_buckets_the_sorted_view(self):
        table = DataTable(_schema(), [(3, 5), (1, 9), (2, 5)])
        # one key column: the bare value; rows under a key in index order
        assert table.index_lookup("t_b", 1) == {5: [(3, 5), (2, 5)], 9: [(1, 9)]}
        assert table.index_lookup("t_b", 1) is table.index_lookup("t_b", 1)
        # a seek finds no NULL
        assert DataTable(_schema(), [(0, None)]).index_lookup("t_b", 1) == {}

    def test_index_lookup_on_a_key_prefix(self):
        schema = TableSchema(
            name="t",
            columns=(Column("a", ColumnType.INTEGER), Column("b", ColumnType.INTEGER)),
            indexes=(Index("t_ab", "t", ("a", "b")),),
        )
        table = DataTable(schema, [(1, 2), (1, 1), (2, None)])
        assert table.index_lookup("t_ab", 1) == {1: [(1, 1), (1, 2)], 2: [(2, None)]}
        assert table.index_lookup("t_ab", 2) == {(1, 1): [(1, 1)], (1, 2): [(1, 2)]}

    def test_insert_invalidates_index_lookups(self):
        table = DataTable(_schema(), [(2, 1)])
        table.index_lookup("t_a", 1)
        table.insert((1, 5))
        assert table.index_lookup("t_a", 1) == {1: [(1, 5)], 2: [(2, 1)]}

    def test_arity_checked_on_construction(self):
        with pytest.raises(StorageError):
            DataTable(_schema(), [(1,)])

    def test_arity_checked_on_insert(self):
        table = DataTable(_schema(), [])
        with pytest.raises(StorageError):
            table.insert((1, 2, 3))

    def test_extend(self):
        table = DataTable(_schema(), [])
        table.extend([(1, 1), (2, 2)])
        assert len(table) == 2

    def test_collect_stats(self):
        table = DataTable(_schema(), [(1, 5), (2, 5)])
        stats = table.collect_stats()
        assert stats.row_count == 2
        assert stats.columns["b"].distinct == 1
