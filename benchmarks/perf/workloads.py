"""Seeded traffic for the six workloads of the benchmark of record.

``--seed`` is the only source of randomness.  The program under test is
handed SQL strings (and, where the request takes one, a draw seed); it
never sees the benchmark seed, a workload name, or a statement's
generator-side description — that description (:class:`Statement`'s
``tables`` / ``edges`` / ``literal`` / ``tpch`` fields) exists so
:mod:`.oracle` can evaluate the statement without the program's parser.

All synthetic statements range over ONE database
(``clique_query(12, rows=5, aggregate=False)``: every table pair has an
``fk`` column), so arbitrarily many templates and literal variants share
the one catalog a ``PlanServer`` requires.

Traffic is generated in *rounds*.  Every round of a workload has the
same composition — the same (shape, size) classes in the same order over
seeded table subsets and literals — and a timed run only ever measures
whole rounds.  A run that is stopped by the clock therefore measures the
same mixture whatever the host's speed, and the classes are laid out so
the median and the 90th percentile fall inside a class, not on the gap
between two (see README "Why rounds").
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

SYNTH_TABLES = 12
#: TPC-H micro tables at this multiple of ``MICRO_ROWS`` (data seed 0):
#: the smallest scale at which Q3, Q5, Q9 and Q10 all return rows, so an
#: executor that drops every row cannot pass the output check.
TPCH_SCALE = 2
TPCH_NAMES = ("Q3", "Q5", "Q7", "Q8", "Q9", "Q10")


@dataclass(frozen=True)
class Statement:
    """One SQL text plus what the oracle needs to evaluate it."""

    sql: str
    database: str  # "synthetic" | "tpch"
    tables: tuple = ()  # synthetic: FROM-list order, tables[0] is projected
    edges: tuple = ()  # synthetic: (low, high) fk equalities
    filter_table: int = -1  # synthetic: t<filter_table>.val < literal
    literal: int = 0
    tpch: str = ""  # TPC-H query name
    params: tuple = ()  # TPC-H literal values, see TPCH_PARAMS


@dataclass(frozen=True)
class Request:
    """One user-level call: a statement and, for the sampling requests,
    the draw seed passed to the program beside it."""

    statement: Statement
    draw_seed: int = 0


# ----------------------------------------------------------------------
# synthetic statements
# ----------------------------------------------------------------------
def _chain(ts):
    return [(a, b) for a, b in zip(ts, ts[1:])]


def _star(ts):
    return [(ts[0], b) for b in ts[1:]]


def _cycle(ts):
    return _chain(ts) + ([(ts[0], ts[-1])] if len(ts) > 2 else [])


def _clique(ts):
    return [(a, b) for i, a in enumerate(ts) for b in ts[i + 1 :]]


def _dense(ts, n_edges, rng):
    """Dense-random: a ring over the (seeded) table order, its
    second-neighbour chords when ``n_edges`` allows, then random extra
    edges up to ``n_edges``.  The regular base and the fixed edge count
    keep a class's optimization time within one band whatever the seed
    picks (a random spanning tree plus extras spread twice as wide)."""
    n = len(ts)
    steps = (1, 2) if n_edges >= 2 * n else (1,)
    edges = {frozenset((ts[i], ts[(i + d) % n])) for i in range(n) for d in steps}
    extra = [e for e in map(frozenset, _clique(sorted(ts))) if e not in edges]
    rng.shuffle(extra)
    chosen = sorted(tuple(sorted(e)) for e in edges)
    return chosen + [tuple(sorted(e)) for e in extra[: max(0, n_edges - len(chosen))]]


def synthetic_statement(shape: str, n: int, rng: random.Random, n_edges: int = 0):
    """A seeded ``shape`` query over ``n`` of the twelve tables."""
    ts = rng.sample(range(SYNTH_TABLES), n)
    if shape == "dense":
        edges = _dense(ts, n_edges, rng)
    else:
        edges = {"chain": _chain, "star": _star, "cycle": _cycle, "clique": _clique}[
            shape
        ](ts)
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    return _render_synthetic(tuple(ts), edges, rng.choice(ts), rng.randrange(5, 100))


def _render_synthetic(tables, edges, filter_table, literal) -> Statement:
    predicates = [f"t{high}.fk_t{low} = t{low}.id" for low, high in edges]
    predicates.append(f"t{filter_table}.val < {literal}")
    head = tables[0]
    sql = (
        f"SELECT t{head}.id, t{head}.val FROM "
        + ", ".join(f"t{t}" for t in tables)
        + " WHERE "
        + " AND ".join(predicates)
    )
    return Statement(
        sql=sql,
        database="synthetic",
        tables=tables,
        edges=edges,
        filter_table=filter_table,
        literal=literal,
    )


def with_literal(statement: Statement, literal: int) -> Statement:
    """The same template under another literal."""
    return _render_synthetic(
        statement.tables, statement.edges, statement.filter_table, literal
    )


# ----------------------------------------------------------------------
# TPC-H statements: the canonical texts with their literals varied
# ----------------------------------------------------------------------
_SEGMENTS = ("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")
_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_NATION_PAIRS = (
    ("FRANCE", "GERMANY"),
    ("CANADA", "BRAZIL"),
    ("JAPAN", "CHINA"),
    ("INDIA", "RUSSIA"),
    ("KENYA", "PERU"),
)
_PART_TYPES = (
    "ECONOMY ANODIZED STEEL",
    "STANDARD ANODIZED TIN",
    "PROMO PLATED COPPER",
    "SMALL BRUSHED STEEL",
    "LARGE POLISHED NICKEL",
)
_COLORS = ("green", "blue", "azure", "coral", "forest", "dark")

#: per query: the canonical parameter values (those of the committed
#: texts) and how a parameter vector rewrites the canonical text
TPCH_PARAMS = {
    "Q3": ("BUILDING", "1995-03-15"),
    "Q5": ("ASIA", 1994),
    "Q7": ("FRANCE", "GERMANY"),
    "Q8": ("AMERICA", "ECONOMY ANODIZED STEEL"),
    "Q9": ("green",),
    "Q10": (1993, 10),
}


def _quarter_end(year: int, month: int) -> tuple[int, int]:
    return (year + 1, month - 9) if month > 9 else (year, month + 3)


def _tpch_rewrites(name: str, params: tuple) -> list[tuple[str, str]]:
    if name == "Q3":
        return [("BUILDING", params[0]), ("1995-03-15", params[1])]
    if name == "Q5":
        year = params[1]
        return [
            ("ASIA", params[0]),
            ("'1994-01-01'", f"'{year}-01-01'"),
            ("'1995-01-01'", f"'{year + 1}-01-01'"),
        ]
    if name == "Q7":
        return [("FRANCE", params[0]), ("GERMANY", params[1])]
    if name == "Q8":
        return [("AMERICA", params[0]), ("ECONOMY ANODIZED STEEL", params[1])]
    if name == "Q9":
        return [("green", params[0])]
    if name == "Q10":
        year, month = params
        end_year, end_month = _quarter_end(year, month)
        return [
            ("'1993-10-01'", f"'{year}-{month:02d}-01'"),
            ("'1994-01-01'", f"'{end_year}-{end_month:02d}-01'"),
        ]
    raise KeyError(name)


def tpch_statement(name: str, params: tuple | None = None) -> Statement:
    """The canonical text of ``name`` (``params=None``) or a literal
    variant of it."""
    from repro.workloads.tpch_queries import TPCH_QUERIES

    sql = TPCH_QUERIES[name].sql
    if params is None:
        params = TPCH_PARAMS[name]
    else:
        # two passes through placeholders: a new value may equal another
        # rewrite's old one (Q5 shifted by a year, Q7's swapped nations)
        rewrites = _tpch_rewrites(name, params)
        for i, (old, _) in enumerate(rewrites):
            sql = sql.replace(old, f"\0{i}\0")
        for i, (_, new) in enumerate(rewrites):
            sql = sql.replace(f"\0{i}\0", new)
    return Statement(sql=sql, database="tpch", tpch=name, params=tuple(params))


def _tpch_variant(name: str, rng: random.Random) -> Statement:
    if name == "Q3":
        params = (rng.choice(_SEGMENTS), f"1995-{rng.randrange(1, 7):02d}-{rng.randrange(1, 29):02d}")
    elif name == "Q5":
        params = (rng.choice(_REGIONS), rng.randrange(1993, 1998))
    elif name == "Q7":
        params = rng.choice(_NATION_PAIRS)
    elif name == "Q8":
        params = (rng.choice(_REGIONS), rng.choice(_PART_TYPES))
    elif name == "Q9":
        params = (rng.choice(_COLORS),)
    else:
        params = (rng.randrange(1993, 1998), rng.choice((1, 4, 7, 10)))
    return tpch_statement(name, params)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#: (shape, relations[, edges]) classes, one statement per entry per round,
#: in serving order: the large classes never follow one another, so the
#: memo of one is collected before the next is built and ``peak_rss_mb``
#: does not depend on which neighbours a shuffle happened to produce
_EXACT_LARGE = (
    ("clique", 10),
    ("star", 10),
    ("clique", 9),
    ("clique", 9),
    ("dense", 10, 30),
    ("clique", 9),
    ("star", 11),
    ("clique", 9),
    ("clique", 10),
    ("clique", 9),
)
#: interleaved with the six TPC-H texts; cycle5 sits in the gap between
#: the faster and the slower half, so the median falls inside a class
_EXACT_SMALL = (
    ("chain", 2),
    ("chain", 3),
    ("cycle", 4),
    ("star", 5),
    ("cycle", 5),
    ("clique", 5),
    ("dense", 6, 9),
)
_SAMPLED_LARGE = (
    ("dense", 10, 24),
    ("star", 9),
    ("dense", 9, 24),
    ("dense", 9, 24),
    ("dense", 10, 24),
    ("clique", 8),
    ("dense", 9, 24),
    ("dense", 9, 24),
    ("dense", 10, 24),
    ("dense", 9, 24),
)
#: all faster to execute than the fastest TPC-H text (Q10), which puts
#: the median request inside Q10's plans: a fixed text over fixed data
_PLAN_TEST = (
    ("star", 5),
    ("cycle", 6),
    ("clique", 6),
    ("chain", 7),
    ("star", 8),
)
#: relation count of serve-hot template k (zipf rank k+1) and of
#: serve-churn template k (cycled): fixed per rank so that which size is
#: hot does not depend on the seed
_HOT_SIZES = (4, 6, 3, 5, 7, 4, 6, 5, 3, 4, 5, 6, 7, 8, 4, 5)
_CHURN_SIZES = (3, 4, 5, 6, 7)
_SERVE_SHAPES = ("chain", "star", "cycle", "clique")
HOT_TEMPLATES, HOT_LITERALS = 16, 4
CHURN_TEMPLATES, CHURN_HOT = 200, 20
PLAN_TEST_SAMPLE = 20
SAMPLED_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    """A named traffic mix.  ``kind`` selects the request the program
    serves (see ``worker.py``); ``why`` is copied into BENCHMARK.json."""

    name: str
    kind: str  # "exact" | "serve" | "plan-test" | "sampled"
    clients: int
    round_size: int  # requests per client per round
    trace_rounds: int  # rounds re-issued by the staged run (per 10 s)
    request: str
    traffic: str
    why: str
    deadline_s: float | None = None


WORKLOADS = (
    Workload(
        name="exact-large",
        kind="exact",
        clients=1,
        round_size=len(_EXACT_LARGE),
        trace_rounds=3,
        request="Session.optimize(sql), no cache, every statement distinct",
        traffic="1 client; per round 2 clique10, dense10 (30 edges), 5 clique9, "
        "star10, star11",
        why="the exact hot path: implement, explore and bestplan are the "
        "request; parse/bind are about 2 %",
    ),
    Workload(
        name="exact-small",
        kind="exact",
        clients=1,
        round_size=len(TPCH_NAMES) + len(_EXACT_SMALL),
        trace_rounds=40,
        request="Session.optimize(sql), no cache",
        traffic="1 client; per round TPC-H Q3/Q5/Q7/Q8/Q9/Q10 with varied "
        "literals and seven synthetic queries of 2-6 relations",
        why="cold small-query latency: parse, bind, setup and per-phase "
        "fixed overheads dominate; the vectorised kernels do almost nothing",
    ),
    Workload(
        name="serve-hot",
        kind="serve",
        clients=2,
        round_size=200,
        trace_rounds=20,
        request="PlanServer.optimize(sql), workers=2",
        traffic="2 clients; zipf(1.1) over 16 templates x 4 literals = 64 "
        "plans, all pre-filled into the default 128-plan cache",
        why="every request is a plan-tier hit: fingerprint, cache lookup and "
        "pool hand-off are the whole request; the optimizer does nothing",
    ),
    Workload(
        name="serve-churn",
        kind="serve",
        clients=2,
        round_size=100,
        trace_rounds=4,
        request="PlanServer.optimize(sql, deadline_s=5), workers=2",
        traffic="2 clients; half uniform over 200 templates, half over a hot "
        "20, a fresh literal each time: working set far beyond 128 plans / "
        "32 templates",
        why="the cache's write side: admit, artifact capture, LRU eviction, "
        "template replay, and the optimizer under budget checkpoints",
        deadline_s=5.0,
    ),
    Workload(
        name="plan-test",
        kind="plan-test",
        clients=1,
        round_size=(len(TPCH_NAMES) + len(_PLAN_TEST)) * PLAN_TEST_SAMPLE,
        trace_rounds=4,
        request="one step of Session.iterate_plans(sql, sample=20, seed, "
        "implicit=True): a sampled plan executed and its rows compared",
        traffic="1 client; per round the 6 canonical TPC-H texts and 5 "
        "synthetic queries of 5-8 relations, 20 uniformly drawn plans each",
        why="the paper's Section 4 loop: executor and unrank are the request; "
        "small-space layout/count is amortised; the optimizer's DP is idle",
    ),
    Workload(
        name="sampled-large",
        kind="sampled",
        clients=1,
        round_size=len(_SAMPLED_LARGE),
        trace_rounds=2,
        request='Session.optimize(sql, method="sampled", samples=100, seed=i)',
        traffic="1 client; per round 3 dense10 and 5 dense9 (24 edges each), "
        "clique8, star9",
        why="implicit layout + exact-bigint count on large spaces, then "
        "stratified draw, unrank, batch costing, recombination; "
        "plan_cost_ratio is live here",
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _zipf_weights(n: int, s: float = 1.1) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(n)]


class Traffic:
    """The seeded request stream of one workload."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        name = workload.name
        self.pool: list[Statement] = []
        if name == "serve-hot":
            rng = _rng(seed, name, "templates")
            for k, n in enumerate(_HOT_SIZES):
                base = synthetic_statement(_SERVE_SHAPES[k % 4], n, rng)
                literals = rng.sample(range(5, 100), HOT_LITERALS)
                self.pool += [with_literal(base, lit) for lit in literals]
            self._weights = [
                w for w in _zipf_weights(HOT_TEMPLATES) for _ in range(HOT_LITERALS)
            ]
        elif name == "serve-churn":
            rng = _rng(seed, name, "templates")
            seen = set()
            while len(self.pool) < CHURN_TEMPLATES:
                k = len(self.pool)
                n = _CHURN_SIZES[k % len(_CHURN_SIZES)]
                base = synthetic_statement(_SERVE_SHAPES[(k // 5) % 4], n, rng)
                template = (base.tables, base.edges, base.filter_table)
                if template not in seen:
                    seen.add(template)
                    self.pool.append(base)
        elif name == "plan-test":
            rng = _rng(seed, name, "queries")
            self.pool = [tpch_statement(q) for q in TPCH_NAMES] + [
                synthetic_statement(*cls, rng) for cls in _PLAN_TEST
            ]
        elif name == "sampled-large":
            # two rounds' worth of statements, re-drawn under a fresh
            # sampling seed every time: the exact optimum each is
            # compared with is computed once per statement
            for half in range(2):
                rng = _rng(seed, name, "pool", half)
                self.pool += [self._synthetic(cls, rng) for cls in _SAMPLED_LARGE]

    @staticmethod
    def _synthetic(cls, rng) -> Statement:
        return synthetic_statement(cls[0], cls[1], rng, *cls[2:])

    # ------------------------------------------------------------------
    def warmup(self) -> list[Request]:
        """Requests served before the timed section (results discarded):
        the cache pre-fill on serve-hot, one round per client on
        serve-churn so the timed section starts on a full, churning
        cache, four plans per query on plan-test, one small statement
        elsewhere."""
        name = self.workload.name
        if name == "serve-hot":
            return [Request(s) for s in self.pool]
        if name == "serve-churn":
            return [
                r
                for index in (-1,)
                for client in range(self.workload.clients)
                for r in self.round(client, index)
            ]
        if name == "plan-test":
            return [Request(s, 0) for s in self.pool for _ in range(4)]
        rng = _rng(self.seed, name, "warmup")
        return [Request(synthetic_statement("chain", 3, rng))]

    def round(self, client: int, index: int) -> list[Request]:
        """Round ``index`` of ``client``: same composition every time."""
        name = self.workload.name
        rng = _rng(self.seed, name, client, index)
        if name == "exact-large":
            requests = [Request(self._synthetic(c, rng)) for c in _EXACT_LARGE]
        elif name == "exact-small":
            requests = [Request(self._synthetic(c, rng)) for c in _EXACT_SMALL]
            for position, query in enumerate(TPCH_NAMES):
                requests.insert(2 * position + 1, Request(_tpch_variant(query, rng)))
        elif name == "serve-hot":
            picks = rng.choices(self.pool, self._weights, k=self.workload.round_size)
            return [Request(s) for s in picks]
        elif name == "serve-churn":
            requests = []
            for _ in range(self.workload.round_size):
                if rng.random() < 0.5:
                    base = self.pool[rng.randrange(CHURN_TEMPLATES)]
                else:
                    base = self.pool[rng.randrange(CHURN_HOT)]
                requests.append(Request(with_literal(base, rng.randrange(5, 100))))
            return requests
        elif name == "plan-test":
            # one request per sampled plan; the draw seed selects which.
            # A TPC-H text's draws follow the round index, not the seed: the
            # execution time of a uniformly drawn TPC-H plan is so heavy-
            # tailed (median 7 ms, maximum 350 ms on Q5) that 200 fresh
            # draws per text would move req_per_s by a tenth between seeds.
            # The seed varies the synthetic half.
            draw = rng.randrange(1 << 30)
            return [
                Request(s, index if s.database == "tpch" else draw)
                for s in self.pool
                for _ in range(PLAN_TEST_SAMPLE)
            ]
        else:  # sampled-large
            half = len(_SAMPLED_LARGE)
            start = (index % 2) * half
            requests = [
                Request(s, rng.randrange(1 << 30))
                for s in self.pool[start : start + half]
            ]
        return requests

    def statement_sha(self, rounds: int = 4) -> str:
        """sha256 over the warm-up and the first ``rounds`` rounds of
        every client: equal seeds give equal digests."""
        digest = hashlib.sha256()
        streams = [self.warmup()] + [
            self.round(client, index)
            for index in range(rounds)
            for client in range(self.workload.clients)
        ]
        for stream in streams:
            for request in stream:
                digest.update(request.statement.sql.encode())
                digest.update(b"\0%d\n" % request.draw_seed)
        return digest.hexdigest()
