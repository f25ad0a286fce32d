"""Row-oriented in-memory tables.

The execution engine's scans read from these.  A :class:`DataTable` also
pre-computes *sorted views* for each index declared in the schema, which is
what :class:`~repro.algebra.physical.IndexScan` iterates — delivering rows
in index-key order, exactly the physical property the optimizer reasons
about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStats
from repro.errors import StorageError

__all__ = ["DataTable"]


@dataclass
class DataTable:
    """Rows of one base table plus per-index sorted row orderings."""

    schema: TableSchema
    rows: list[tuple] = field(default_factory=list)
    _index_views: dict[str, list[tuple]] = field(default_factory=dict, repr=False)
    _index_lookups: dict[tuple, dict] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        arity = len(self.schema.columns)
        for row in self.rows:
            if len(row) != arity:
                raise StorageError(
                    f"row arity {len(row)} does not match table "
                    f"{self.schema.name!r} arity {arity}"
                )

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, row: tuple) -> None:
        if len(row) != len(self.schema.columns):
            raise StorageError(
                f"row arity {len(row)} does not match table "
                f"{self.schema.name!r} arity {len(self.schema.columns)}"
            )
        self.rows.append(row)
        self._index_views.clear()
        self._index_lookups.clear()

    def extend(self, rows: list[tuple]) -> None:
        for row in rows:
            self.insert(row)

    def scan(self) -> list[tuple]:
        """All rows in heap (insertion) order."""
        return self.rows

    def index_scan(self, index_name: str) -> list[tuple]:
        """All rows sorted by the named index's key columns.

        The sorted view is computed lazily once and cached; it simulates
        reading a sorted index without charging the executor a sort.
        """
        cached = self._index_views.get(index_name)
        if cached is None:
            key = self._index_key(index_name)
            cached = self._index_views[index_name] = sorted(self.rows, key=key)
        return cached

    def index_lookup(self, index_name: str, prefix_len: int) -> dict:
        """What seeks on the first ``prefix_len`` key columns of the named
        index return: ``{key: rows under it, in index order}``, computed
        lazily once like the sorted views.  A key is the bare value for a
        one-column prefix and a tuple otherwise (``operator.itemgetter``).
        Rows with a NULL in the prefix are left out: a seek finds no NULL.
        """
        cached = self._index_lookups.get((index_name, prefix_len))
        if cached is None:
            key = self._index_key(index_name, prefix_len)
            cached = self._index_lookups[index_name, prefix_len] = {}
            for row in self.index_scan(index_name):
                value = key(row)
                if not (value is None if prefix_len == 1 else None in value):
                    cached.setdefault(value, []).append(row)
        return cached

    def _index_key(self, index_name: str, prefix_len: int | None = None):
        for index in self.schema.indexes:
            if index.name == index_name:
                columns = index.key[:prefix_len]
                return itemgetter(*map(self.schema.column_position, columns))
        raise StorageError(
            f"table {self.schema.name!r} has no index {index_name!r}"
        )

    def collect_stats(self) -> TableStats:
        """Exact statistics over the current contents."""
        return TableStats.collect(self.rows, self.schema.column_names())
