"""One workload in one fresh process.

``python -m benchmarks.perf.worker --workload W --seed N --seconds S
--trace 0|1 --t0 <monotonic>`` sets the program up, serves the
workload's rounds as a closed loop, checks every output, and prints one
JSON object.  ``--trace 0`` is the untraced run the end-to-end metrics
come from; ``--trace 1`` is the staged run (``stagedrun.py``) the
per-layer metrics come from.  ``--setup-only`` stops after set-up and
reports only ``setup_s``.

The timed section holds nothing but requests and the generation of the
next round; plan digests, reference optimizations and row comparisons
run after it.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import threading
import time

from . import oracle
from .metrics import percentile, supported
from .workloads import (
    BY_NAME,
    SAMPLED_SAMPLES,
    SYNTH_TABLES,
    TPCH_SCALE,
    Request,
    Traffic,
    Workload,
)

#: distinct statements whose served plan is re-derived and executed
#: after the timed section (a seeded subsample when more were served)
CHECK_KEYS = {"exact-large": 10, "sampled-large": 20}
CHECK_KEYS_DEFAULT = 64


class Program:
    """What set-up builds: the databases and the program's own objects."""

    def __init__(self, workload: Workload):
        from repro.api import Session
        from repro.workloads.synthetic import clique_query

        self.workload = workload
        synthetic = clique_query(SYNTH_TABLES, rows=5, aggregate=False).database
        self.databases = {"synthetic": synthetic}
        if workload.name in ("exact-small", "plan-test"):
            from repro.storage.datagen import MICRO_ROWS, generate_tpch

            self.databases["tpch"] = generate_tpch(
                seed=0, rows={t: TPCH_SCALE * n for t, n in MICRO_ROWS.items()}
            )
        self.sessions = {name: Session(db) for name, db in self.databases.items()}
        self.server = None
        self._servers = []

    def session(self, request: Request):
        return self.sessions[request.statement.database]

    def fresh_session(self, database: str, cache=None):
        from repro.api import Session

        return Session(self.databases[database], plan_cache=cache)

    def new_server(self, cache=None):
        """A ``PlanServer`` over the synthetic database (closed by
        :meth:`close`)."""
        from repro.serving import PlanServer

        server = PlanServer(
            self.databases["synthetic"],
            workers=2,
            cache=cache,
            deadline_s=self.workload.deadline_s,
        )
        self._servers.append(server)
        return server

    def close(self) -> None:
        """Stop (and forget) every server made so far."""
        for server in self._servers:
            server.close()
        self._servers.clear()
        self.server = None

    # the user-level call of each kind -----------------------------------
    def call(self, request: Request):
        kind = self.workload.kind
        sql = request.statement.sql
        if kind == "serve":
            return self.server.optimize(sql)
        if kind == "sampled":
            return self.session(request).optimize(
                sql, method="sampled", samples=SAMPLED_SAMPLES, seed=request.draw_seed
            )
        return self.session(request).optimize(sql)


def degraded_result(result) -> bool:
    report = getattr(result, "resilience", None)
    return report is not None and report.degraded


def steps(requests):
    """plan-test: consecutive requests of one statement form one
    ``iterate_plans`` call."""
    run: list[Request] = []
    for request in requests:
        if run and request.statement is not run[0].statement:
            yield run
            run = []
        run.append(request)
    if run:
        yield run


class ClientLog:
    def __init__(self):
        #: (request, latency_s or None, best_plan, best_cost, degraded)
        self.served: list[tuple] = []
        #: (request, why)
        self.failed: list[tuple] = []
        self.rounds = 0
        self.ended = 0.0


# ----------------------------------------------------------------------
# the closed loops
# ----------------------------------------------------------------------
def serve_round(program: Program, requests, expected, log: ClientLog) -> None:
    """One round of exact / serve / sampled requests, one at a time."""
    call = program.call
    clock = time.perf_counter
    for request in requests:
        start = clock()
        try:
            result = call(request)
        except Exception as exc:  # a failed request: no latency sample
            log.failed.append((request, repr(exc)))
            continue
        log.served.append(
            (request, clock() - start, result.best_plan, result.best_cost, degraded_result(result))
        )


def plan_test_round(program: Program, requests, expected: dict, log: ClientLog) -> None:
    """One round of the Section 4 loop.  A request is one step of
    ``iterate_plans``: the next sampled plan's result, compared with the
    oracle's rows.  The first step of each query also builds its implicit
    plan space; it counts as a request but gives no latency sample."""
    from repro.testing.diff import canonical_rows

    clock = time.perf_counter
    for run in steps(requests):
        head = run[0]
        rows = expected[head.statement.sql]
        served = 0
        try:
            plans = program.session(head).iterate_plans(
                head.statement.sql, sample=len(run), seed=head.draw_seed, implicit=True
            )
            start = clock()
            for rank, result in plans:
                same = canonical_rows(result.rows) == rows
                latency = clock() - start if served else None
                if same:
                    log.served.append((run[served], latency, rank, None, False))
                else:
                    log.failed.append((run[served], f"rows differ at plan {rank}"))
                served += 1
                start = clock()
        except Exception as exc:
            log.failed += [(r, repr(exc)) for r in run[served:]]


def _client(program: Program, traffic: Traffic, client: int, expected, stop_at, log):
    """Whole rounds until the clock passes ``stop_at``."""
    one_round = plan_test_round if program.workload.kind == "plan-test" else serve_round
    while True:
        one_round(program, traffic.round(client, log.rounds), expected, log)
        log.rounds += 1
        if time.perf_counter() >= stop_at:
            break
    log.ended = time.perf_counter()


def run_clients(program: Program, traffic: Traffic, expected, seconds: float):
    """The workload's clients as closed loops over whole rounds for
    ``seconds``.  Returns ``(logs, wall_s, cpu_s)``."""
    workload = program.workload
    logs = [ClientLog() for _ in range(workload.clients)]
    cpu0 = time.process_time()
    started = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(program, traffic, c, expected, started + seconds, logs[c]),
        )
        for c in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if not all(log.ended for log in logs):
        raise RuntimeError("a client thread died; see its traceback above")
    wall = max(log.ended for log in logs) - started
    return logs, wall, time.process_time() - cpu0


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def set_up(workload: Workload, seed: int, with_server: bool = True):
    program = Program(workload)
    traffic = Traffic(workload, seed)
    expected = {}
    if workload.kind == "plan-test":
        expected = {
            s.sql: oracle.reference_rows(program.databases, s) for s in traffic.pool
        }
        # the executor sorts an index's rows on first use: pre-fill, so no
        # timed request (and neither side of the staged run) pays for it
        for database in program.databases.values():
            for table in database.tables.values():
                for index in table.schema.indexes:
                    table.index_scan(index.name)
        plan_test_round(program, traffic.warmup(), expected, ClientLog())
    elif workload.kind == "serve" and with_server:
        warm_up_server(program, traffic)
    elif workload.kind != "serve":
        for request in traffic.warmup():
            program.call(request)
    return program, traffic, expected


def warm_up_server(program: Program, traffic: Traffic):
    """A measuring server over a warmed cache.  The warm-up goes through
    a server of its own, so the measuring server's latency window
    (``PlanServer.stats()``) holds timed requests only.  (The first
    server makes the cache: ``PlanServer(cache=PlanCache())`` would serve
    uncached, because an empty ``PlanCache`` is falsy.)"""
    warm = program.new_server()
    for request in traffic.warmup():
        warm.optimize(request.statement.sql)
    program.server = program.new_server(cache=warm.cache)
    # discarded: spin up both workers' sessions
    first = traffic.warmup()[0].statement.sql
    program.server.map([first] * 4)
    return program.server


# ----------------------------------------------------------------------
# checks (after the timed section)
# ----------------------------------------------------------------------
class Checker:
    """Decides which served requests were wrong.  ``bad`` collects the
    (sql, draw seed) keys whose output failed a check."""

    def __init__(self, program: Program, seed: int):
        self.program = program
        self.workload = program.workload
        self.seed = seed
        pins = oracle.load_pins(seed)
        self.pins = None if pins is None else pins.get(self.workload.name, {})
        self.bad: dict[tuple, str] = {}
        self.notes: dict = {
            "plan_check": "pinned" if self.pins is not None else "self-consistency",
            "pinned_keys": 0,
            "rederived_keys": 0,
            "executed_keys": 0,
        }
        self._reference: dict[str, tuple] = {}

    @staticmethod
    def key(request: Request) -> tuple:
        return (request.statement.sql, request.draw_seed)

    def reference(self, request: Request) -> tuple:
        """(digest, cost) of a fresh, uncached exact optimization."""
        sql = request.statement.sql
        if sql not in self._reference:
            result = self.program.fresh_session(request.statement.database).optimize(sql)
            self._reference[sql] = (
                oracle.plan_digest(result.best_plan, result.best_cost),
                result.best_cost,
            )
        return self._reference[sql]

    def check_plans(self, served: list[tuple]) -> list[float]:
        """exact / serve / sampled.  Returns the cost ratios."""
        kind = self.workload.kind
        digest_of: dict[int, str] = {}
        by_key: dict[tuple, list] = {}
        for request, _lat, plan, cost, degraded in served:
            key = self.key(request)
            if degraded:
                self.bad[key] = "degraded"
            digest = digest_of.get(id(plan))
            if digest is None:
                digest = digest_of[id(plan)] = oracle.plan_digest(plan, cost)
            entry = by_key.setdefault(key, [request, plan, cost, digest])
            if entry[3] != digest:
                self.bad[key] = "two different plans served for one statement"
        for key, (request, _plan, _cost, digest) in by_key.items():
            pin = None
            if self.pins is not None:
                pin = self.pins.get(oracle.sql_digest(*key))
            if pin is not None:
                self.notes["pinned_keys"] += 1
                if pin != digest:
                    self.bad[key] = "plan differs from the pinned one"
        # a seeded subsample is re-derived from scratch and executed
        keys = sorted(by_key)
        limit = CHECK_KEYS.get(self.workload.name, CHECK_KEYS_DEFAULT)
        if len(keys) > limit:
            keys = random.Random(f"{self.seed}/check").sample(keys, limit)
        ratios = []
        executors = {}
        for key in keys:
            request, plan, cost, digest = by_key[key]
            statement = request.statement
            ref_digest, ref_cost = self.reference(request)
            self.notes["rederived_keys"] += 1
            if kind != "sampled":
                if ref_digest != digest:
                    self.bad[key] = "plan differs from an uncached optimization"
                ratios.append(cost / ref_cost)
            executor = executors.get(statement.database)
            if executor is None:
                from repro.executor.executor import PlanExecutor

                executor = executors[statement.database] = PlanExecutor(
                    self.program.databases[statement.database]
                )
            rows = oracle.canonical(executor.execute(plan).rows)
            self.notes["executed_keys"] += 1
            if rows != oracle.reference_rows(self.program.databases, statement):
                self.bad[key] = "rows differ from the oracle's"
        if kind == "sampled":
            # every statement of the pool has its exact optimum by now
            for request, _lat, _plan, cost, _deg in served:
                reference = self._reference.get(request.statement.sql)
                if reference is not None:
                    ratios.append(cost / reference[1])
        return ratios

    def check_plan_test(self, served: list[tuple], traffic: Traffic) -> list[float]:
        """The rows were compared inside the loop; here the drawn ranks
        are checked against the pins, and every plan drawn for a TPC-H
        text is costed: ``plan_cost_ratio`` is then the paper's Section 5
        median scaled cost over fixed texts (the synthetic queries'
        ratios all lie below the TPC-H ones, so a median over both would
        sit on the gap between the two families)."""
        from repro.sampledopt.costing import SampledPlanCoster

        ranks: dict[tuple, list[int]] = {}
        for request, _lat, rank, _cost, _deg in served:
            ranks.setdefault(self.key(request), []).append(rank)
        if self.pins is not None:
            for key, drawn in ranks.items():
                pin = self.pins.get(oracle.sql_digest(*key))
                if pin is not None:
                    self.notes["pinned_keys"] += 1
                    if pin != oracle.sql_digest(repr(drawn)):
                        self.bad[key] = "drawn ranks differ from the pinned ones"
        ratios = []
        for statement in traffic.pool:
            if statement.database != "tpch":
                continue
            session = self.program.sessions["tpch"]
            optimum = session.optimize(statement.sql).best_cost
            space = session.plan_space(statement.sql, count_only=True).space
            coster = SampledPlanCoster(session.catalog, space, session.options.cost_params)
            for key in sorted(k for k in ranks if k[0] == statement.sql):
                ratios += [coster.cost(space.unrank(rank)) / optimum for rank in ranks[key]]
            self.notes["rederived_keys"] += 1
        return ratios


# ----------------------------------------------------------------------
# the untraced run
# ----------------------------------------------------------------------
def run_untraced(workload: Workload, seed: int, seconds: float, t0: float, setup_only: bool):
    program, traffic, expected = set_up(workload, seed)
    try:
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"setup_s": setup_s}
        logs, wall, cpu = run_clients(program, traffic, expected, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        served = [entry for log in logs for entry in log.served]
        failed = [entry for log in logs for entry in log.failed]
        checker = Checker(program, seed)
        if workload.kind == "plan-test":
            ratios = checker.check_plan_test(served, traffic)
        else:
            ratios = checker.check_plans(served)
    finally:
        program.close()
    good = [entry for entry in served if Checker.key(entry[0]) not in checker.bad]
    attempted = len(served) + len(failed)
    latencies = [entry[1] * 1e3 for entry in good if entry[1] is not None]
    if not latencies or not ratios:
        raise SystemExit(f"no correct request served: {failed[:3]} {checker.bad}")
    metrics = {
        "setup_s": setup_s,
        "req_per_s": len(good) / wall,
        "req_p50_ms": percentile(latencies, 0.5),
        "req_p90_ms": percentile(latencies, 0.9),
        "cpu_ms_per_req": cpu * 1e3 / attempted,
        "peak_rss_mb": peak_rss_mb,
        "failed_share": (attempted - len(good)) / attempted,
        "plan_cost_ratio": statistics.median(ratios),
    }
    info = {
        "requests": attempted,
        "latency_samples": len(latencies),
        "p90_supported": supported(len(latencies), 0.9),
        "rounds": [log.rounds for log in logs],
        "clients": workload.clients,
        "wall_s": wall,
        "statement_sha": traffic.statement_sha(),
        "failures": [why for _r, why in failed[:5]] + list(checker.bad.values())[:5],
        **checker.notes,
    }
    return {
        "correct": attempted == len(good),
        "attempted": attempted,
        "failed": attempted - len(good),
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    workload = BY_NAME[args.workload]
    if args.trace:
        from .stagedrun import run_staged

        result = run_staged(workload, args.seed, args.seconds)
    else:
        result = run_untraced(workload, args.seed, args.seconds, t0, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
