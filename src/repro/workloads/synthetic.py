"""Synthetic workloads: parameterized chain/star/clique join queries.

Used for the counting pins of experiment E5 (one count per memo
operator, ``tests/experiments/test_paper_pins.py``), the
``benchmarks/perf`` workloads and property-based tests that need many
structurally different queries with known join graphs.  Each generator
builds its own catalog (tables ``t0 .. t{n-1}``), a matching micro
database, and the query SQL, so the whole pipeline — parse, bind,
optimize, count, sample, execute — runs on them exactly as on TPC-H.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType, Index, TableSchema
from repro.catalog.statistics import ColumnStats, TableStats
from repro.errors import ReproError
from repro.storage.database import Database
from repro.storage.table import DataTable
from repro.util.rng import make_rng, spawn_rng

__all__ = [
    "SyntheticWorkload",
    "chain_query",
    "star_query",
    "clique_query",
    "cycle_query",
    "random_query",
]

_INT = ColumnType.INTEGER


@dataclass
class SyntheticWorkload:
    """A self-contained synthetic scenario.

    ``edges`` is the join graph as ``(a, b)`` table-index pairs — the
    ground truth topology, so tests sweeping random graphs can assert
    against the known edge list.
    """

    name: str
    catalog: Catalog
    database: Database
    sql: str
    relations: int
    edges: tuple[tuple[int, int], ...] = ()


def _make_table(
    name: str, rows: int, fk_targets: list[str], with_index: bool, seed: int
) -> tuple[TableSchema, TableStats, list[tuple]]:
    """A table ``name(id, val, fk_<t> per target)`` with ``rows`` rows."""
    columns = [Column("id", _INT), Column("val", _INT)]
    for target in fk_targets:
        columns.append(Column(f"fk_{target}", _INT))
    indexes = []
    if with_index:
        indexes.append(
            Index(f"{name}_pk", name, ("id",), unique=True, clustered=True)
        )
        for target in fk_targets:
            indexes.append(Index(f"{name}_{target}", name, (f"fk_{target}",)))
    schema = TableSchema(
        name=name,
        columns=tuple(columns),
        primary_key=("id",),
        indexes=tuple(indexes),
    )
    rng = make_rng((seed, name))
    data = []
    for key in range(1, rows + 1):
        row = [key, rng.randint(0, 99)]
        for _ in fk_targets:
            row.append(rng.randint(1, max(1, rows // 2)))
        data.append(tuple(row))
    col_stats = {
        "id": ColumnStats(distinct=rows, lo=1, hi=rows),
        "val": ColumnStats(distinct=min(rows, 100), lo=0, hi=99),
    }
    for target in fk_targets:
        col_stats[f"fk_{target}"] = ColumnStats(
            distinct=max(1, rows // 2), lo=1, hi=max(1, rows // 2)
        )
    return schema, TableStats(row_count=rows, columns=col_stats), data


def _build(
    name: str,
    n_tables: int,
    edges: list[tuple[int, int]],
    rows: int,
    with_indexes: bool,
    seed: int,
    aggregate: bool,
) -> SyntheticWorkload:
    if n_tables < 1:
        raise ReproError("need at least one table")
    catalog = Catalog()
    # fk_targets per table: for edge (a, b) the referencing side is the
    # higher-numbered table (it stores fk_t<low>).
    fk_targets: dict[int, list[str]] = {i: [] for i in range(n_tables)}
    for a, b in edges:
        low, high = min(a, b), max(a, b)
        fk_targets[high].append(f"t{low}")

    database = Database(catalog=catalog)
    rng = make_rng(seed)
    for i in range(n_tables):
        table_rows = rows + spawn_rng(rng, f"rows{i}").randint(0, rows)
        schema, stats, data = _make_table(
            f"t{i}", table_rows, fk_targets[i], with_indexes, seed
        )
        catalog.add_table(schema, stats)
        database.add_table(DataTable(schema, data))

    predicates = [
        f"t{max(a, b)}.fk_t{min(a, b)} = t{min(a, b)}.id" for a, b in edges
    ]
    from_list = ", ".join(f"t{i}" for i in range(n_tables))
    where = " AND ".join(predicates) if predicates else ""
    if aggregate:
        select = "SELECT COUNT(*) AS n, SUM(t0.val) AS total"
    else:
        select = "SELECT t0.id, t0.val"
    sql = f"{select} FROM {from_list}"
    if where:
        sql += f" WHERE {where}"
    return SyntheticWorkload(
        name=name,
        catalog=catalog,
        database=database,
        sql=sql,
        relations=n_tables,
        edges=tuple((min(a, b), max(a, b)) for a, b in edges),
    )


def chain_query(
    n_tables: int,
    rows: int = 20,
    with_indexes: bool = True,
    seed: int = 0,
    aggregate: bool = True,
) -> SyntheticWorkload:
    """``t0 - t1 - t2 - ... - t{n-1}`` (linear join graph)."""
    edges = [(i, i + 1) for i in range(n_tables - 1)]
    return _build(
        f"chain{n_tables}", n_tables, edges, rows, with_indexes, seed, aggregate
    )


def star_query(
    n_tables: int,
    rows: int = 20,
    with_indexes: bool = True,
    seed: int = 0,
    aggregate: bool = True,
) -> SyntheticWorkload:
    """``t0`` in the centre, ``t1..t{n-1}`` as satellites."""
    edges = [(0, i) for i in range(1, n_tables)]
    return _build(
        f"star{n_tables}", n_tables, edges, rows, with_indexes, seed, aggregate
    )


def clique_query(
    n_tables: int,
    rows: int = 20,
    with_indexes: bool = True,
    seed: int = 0,
    aggregate: bool = True,
) -> SyntheticWorkload:
    """Every pair of tables connected (maximally cyclic join graph)."""
    edges = [
        (a, b) for a in range(n_tables) for b in range(a + 1, n_tables)
    ]
    return _build(
        f"clique{n_tables}", n_tables, edges, rows, with_indexes, seed, aggregate
    )


def random_query(
    n_tables: int,
    edge_density: float = 0.3,
    seed: int = 0,
    rows: int = 20,
    with_indexes: bool = True,
    aggregate: bool = True,
) -> SyntheticWorkload:
    """A seeded random *connected* join graph over ``n_tables`` tables.

    The graph is a uniform random spanning tree (each table ``i`` attaches
    to a random earlier table under a seeded permutation — always
    connected, so the no-cross-products space is never empty) plus extra
    non-tree edges: ``edge_density`` interpolates between a tree (0.0) and
    the clique (1.0).  Identical ``(n_tables, edge_density, seed)``
    arguments produce the identical edge list — recorded on the returned
    workload's ``edges`` — so property tests can sweep arbitrary
    topologies beyond chain/star/clique/cycle reproducibly.
    """
    if n_tables < 1:
        raise ReproError("need at least one table")
    if not 0.0 <= edge_density <= 1.0:
        raise ReproError("edge_density must be within [0, 1]")
    rng = make_rng(("random_query", n_tables, edge_density, seed))
    order = list(range(n_tables))
    rng.shuffle(order)
    edges: list[tuple[int, int]] = []
    for position in range(1, n_tables):
        anchor = order[rng.randrange(position)]
        table = order[position]
        edges.append((min(anchor, table), max(anchor, table)))
    tree = set(edges)
    candidates = [
        (a, b)
        for a in range(n_tables)
        for b in range(a + 1, n_tables)
        if (a, b) not in tree
    ]
    extra = round(edge_density * len(candidates))
    if extra:
        rng.shuffle(candidates)
        edges.extend(sorted(candidates[:extra]))
    return _build(
        f"random{n_tables}d{edge_density:g}s{seed}",
        n_tables,
        edges,
        rows,
        with_indexes,
        seed,
        aggregate,
    )


def cycle_query(
    n_tables: int,
    rows: int = 20,
    with_indexes: bool = True,
    seed: int = 0,
    aggregate: bool = True,
) -> SyntheticWorkload:
    """``t0 - t1 - ... - t{n-1} - t0`` (a single cycle): the minimal
    cyclic join graph, and the classic hard case for transformation-rule
    completeness and for partition enumeration."""
    if n_tables < 3:
        raise ReproError("a cycle needs at least three tables")
    edges = [(i, i + 1) for i in range(n_tables - 1)] + [(0, n_tables - 1)]
    return _build(
        f"cycle{n_tables}", n_tables, edges, rows, with_indexes, seed, aggregate
    )
