"""Reference answers that do not come from the optimizer under test.

* :func:`synthetic_rows` evaluates a generated statement by brute-force
  nested loops over the micro tables, straight from the generator's
  description of it (tables, fk edges, filter) — no parser, no plan.
* :func:`tpch_rows` holds one hand-written evaluation per TPC-H text,
  parameterised by the literals the generator varies.  The canonical
  texts' rows are also committed under ``expected/`` so a drift in the
  data generator shows up as a diff, not as a silently different check.
* ``expected/pins-seed<N>.json`` pins, for a seed, the digest of every
  served plan (render + ``repr(cost)``).  On a seed without a pin file
  the plan check falls back to self-consistency (two optimizations of a
  statement agree) and the run says so.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from pathlib import Path

from .workloads import TPCH_NAMES, TPCH_PARAMS, TPCH_SCALE, Statement, _quarter_end

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
FLOAT_DIGITS = 9


def canonical(rows) -> list[tuple]:
    """Order-free, float-rounded form of a row multiset."""

    def value(v):
        if isinstance(v, float):
            return float(f"{v:.{FLOAT_DIGITS}g}") if v else 0.0
        return v

    return sorted((tuple(value(v) for v in row) for row in rows), key=repr)


def plan_digest(plan, cost) -> str:
    text = plan.render() + "\n" + repr(cost)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sql_digest(sql: str, draw_seed: int = 0) -> str:
    return hashlib.sha256(f"{sql}\0{draw_seed}".encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# synthetic statements: brute force
# ----------------------------------------------------------------------
def synthetic_rows(database, statement: Statement) -> list[tuple]:
    """``SELECT head.id, head.val`` over every combination of rows that
    satisfies all fk equalities and the filter (bag semantics)."""
    tables = {t: database.table(f"t{t}") for t in statement.tables}
    position = {
        t: {c.name: i for i, c in enumerate(table.schema.columns)}
        for t, table in tables.items()
    }
    # bind tables along the join graph, so every table after the first is
    # checked against an already-bound neighbour as soon as it is bound
    order = [statement.tables[0]]
    while len(order) < len(statement.tables):
        order.append(
            next(
                t
                for t in statement.tables
                if t not in order
                and any((a == t and b in order) or (b == t and a in order) for a, b in statement.edges)
            )
        )
    checks = []  # per depth: [(fk position in this row, other table) | (other's fk position, ...)]
    for depth, t in enumerate(order):
        bound = set(order[:depth])
        here = []
        for low, high in statement.edges:
            if high == t and low in bound:
                here.append((True, position[t][f"fk_t{low}"], low))
            elif low == t and high in bound:
                here.append((False, position[high][f"fk_t{low}"], high))
        checks.append(here)
    val = {t: position[t]["val"] for t in order}
    ident = {t: position[t]["id"] for t in order}
    head = statement.tables[0]
    out: list[tuple] = []
    chosen: dict[int, tuple] = {}

    def bind(depth: int) -> None:
        if depth == len(order):
            row = chosen[head]
            out.append((row[ident[head]], row[val[head]]))
            return
        t = order[depth]
        for row in tables[t].rows:
            if t == statement.filter_table and not row[val[t]] < statement.literal:
                continue
            for mine, fk, other in checks[depth]:
                if mine:
                    if row[fk] != chosen[other][ident[other]]:
                        break
                elif chosen[other][fk] != row[ident[t]]:
                    break
            else:
                chosen[t] = row
                bind(depth + 1)

    bind(0)
    return out


# ----------------------------------------------------------------------
# TPC-H: one hand-written evaluation per text
# ----------------------------------------------------------------------
def _records(database, table: str) -> list[dict]:
    data = database.table(table)
    names = [c.name for c in data.schema.columns]
    return [dict(zip(names, row)) for row in data.rows]


def _by(records: list[dict], *columns: str) -> dict:
    index = defaultdict(list)
    for record in records:
        index[tuple(record[c] for c in columns)].append(record)
    return index


def _revenue(line: dict) -> float:
    return line["l_extendedprice"] * (1 - line["l_discount"])


def tpch_rows(database, name: str, params: tuple) -> list[tuple]:
    """The rows of TPC-H text ``name`` under literal vector ``params``."""
    line = _records(database, "lineitem")
    orders = _by(_records(database, "orders"), "o_orderkey")
    customer = _by(_records(database, "customer"), "c_custkey")
    supplier = _by(_records(database, "supplier"), "s_suppkey")
    nation = _by(_records(database, "nation"), "n_nationkey")
    region = _by(_records(database, "region"), "r_regionkey")
    totals: dict = defaultdict(float)

    if name == "Q3":
        segment, date = params
        for l in line:
            if not l["l_shipdate"] > date:
                continue
            for o in orders[(l["l_orderkey"],)]:
                if not o["o_orderdate"] < date:
                    continue
                for c in customer[(o["o_custkey"],)]:
                    if c["c_mktsegment"] == segment:
                        totals[(l["l_orderkey"],)] += _revenue(l)
    elif name == "Q5":
        wanted, year = params
        lo, hi = f"{year}-01-01", f"{year + 1}-01-01"
        for l in line:
            for o in orders[(l["l_orderkey"],)]:
                if not lo <= o["o_orderdate"] < hi:
                    continue
                for c in customer[(o["o_custkey"],)]:
                    for s in supplier[(l["l_suppkey"],)]:
                        if c["c_nationkey"] != s["s_nationkey"]:
                            continue
                        for n in nation[(s["s_nationkey"],)]:
                            for r in region[(n["n_regionkey"],)]:
                                if r["r_name"] == wanted:
                                    totals[(n["n_name"],)] += _revenue(l)
    elif name == "Q7":
        first, second = params
        for l in line:
            if not "1995-01-01" <= l["l_shipdate"] <= "1996-12-31":
                continue
            for s in supplier[(l["l_suppkey"],)]:
                for o in orders[(l["l_orderkey"],)]:
                    for c in customer[(o["o_custkey"],)]:
                        for n1 in nation[(s["s_nationkey"],)]:
                            for n2 in nation[(c["c_nationkey"],)]:
                                pair = (n1["n_name"], n2["n_name"])
                                if pair in ((first, second), (second, first)):
                                    totals[pair] += _revenue(l)
    elif name == "Q8":
        wanted, part_type = params
        part = _by(_records(database, "part"), "p_partkey")
        for l in line:
            for p in part[(l["l_partkey"],)]:
                if p["p_type"] != part_type:
                    continue
                for s in supplier[(l["l_suppkey"],)]:
                    for o in orders[(l["l_orderkey"],)]:
                        if not "1995-01-01" <= o["o_orderdate"] <= "1996-12-31":
                            continue
                        for c in customer[(o["o_custkey"],)]:
                            for n1 in nation[(c["c_nationkey"],)]:
                                for r in region[(n1["n_regionkey"],)]:
                                    if r["r_name"] != wanted:
                                        continue
                                    for n2 in nation[(s["s_nationkey"],)]:
                                        totals[(n2["n_name"],)] += _revenue(l)
    elif name == "Q9":
        (color,) = params
        part = _by(_records(database, "part"), "p_partkey")
        partsupp = _by(_records(database, "partsupp"), "ps_partkey", "ps_suppkey")
        for l in line:
            for p in part[(l["l_partkey"],)]:
                if color not in p["p_name"]:
                    continue
                for s in supplier[(l["l_suppkey"],)]:
                    for ps in partsupp[(l["l_partkey"], l["l_suppkey"])]:
                        for _o in orders[(l["l_orderkey"],)]:
                            for n in nation[(s["s_nationkey"],)]:
                                totals[(n["n_name"],)] += (
                                    _revenue(l) - ps["ps_supplycost"] * l["l_quantity"]
                                )
    elif name == "Q10":
        year, month = params
        end_year, end_month = _quarter_end(year, month)
        lo, hi = f"{year}-{month:02d}-01", f"{end_year}-{end_month:02d}-01"
        for l in line:
            if l["l_returnflag"] != "R":
                continue
            for o in orders[(l["l_orderkey"],)]:
                if not lo <= o["o_orderdate"] < hi:
                    continue
                for c in customer[(o["o_custkey"],)]:
                    for n in nation[(c["c_nationkey"],)]:
                        totals[(c["c_custkey"], n["n_name"])] += _revenue(l)
    else:
        raise KeyError(name)
    return [key + (total,) for key, total in totals.items()]


def reference_rows(databases: dict, statement: Statement) -> list[tuple]:
    """Canonical reference rows of any generated statement: the
    committed file for a canonical TPC-H text, an evaluation otherwise."""
    database = databases[statement.database]
    if statement.database == "tpch":
        if statement.params == TPCH_PARAMS[statement.tpch]:
            return expected_tpch(statement.tpch)
        return canonical(tpch_rows(database, statement.tpch, statement.params))
    return canonical(synthetic_rows(database, statement))


# ----------------------------------------------------------------------
# committed files
# ----------------------------------------------------------------------
def expected_tpch(name: str) -> list[tuple]:
    """Committed canonical rows of the canonical text ``name``."""
    data = json.loads((EXPECTED_DIR / f"tpch-{name}.json").read_text())
    return [tuple(row) for row in data["rows"]]


def write_expected_tpch(database) -> None:
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name in TPCH_NAMES:
        rows = canonical(tpch_rows(database, name, TPCH_PARAMS[name]))
        payload = {
            "query": name,
            "params": list(TPCH_PARAMS[name]),
            "data": f"generate_tpch(seed=0, rows={TPCH_SCALE} x MICRO_ROWS)",
            "rows": [list(row) for row in rows],
        }
        (EXPECTED_DIR / f"tpch-{name}.json").write_text(
            json.dumps(payload, indent=1) + "\n"
        )


def load_pins(seed: int) -> dict | None:
    """``{workload: {sql digest: plan digest}}`` for ``seed``, or ``None``
    when that seed is not pinned."""
    path = EXPECTED_DIR / f"pins-seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())
