"""Write the committed reference files: ``python3 -m benchmarks.perf pin``
(which runs this module in the workers' environment).

``expected/tpch-<Q>.json`` come from the oracle's hand-written
evaluations (and are cross-checked here against the program's executor
before they are written).  ``expected/pins-seed<N>.json`` records what
the program serves *today* for the first rounds of every workload at
that seed — a regression pin, not an oracle: a later change that serves
another plan or another cost for a pinned statement fails the request.
"""

from __future__ import annotations

import json
import sys

from . import oracle
from .worker import Program
from .workloads import PLAN_TEST_SAMPLE, WORKLOADS, Traffic

#: rounds per client whose statements are pinned
PIN_ROUNDS = {
    "exact-large": 16,
    "exact-small": 32,
    "serve-hot": 4,
    "serve-churn": 4,
    "plan-test": 16,
    "sampled-large": 8,
}


def write(seed: int) -> None:
    pins: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        program = Program(workload)
        if workload.name == "plan-test":
            _write_expected(program)
        traffic = Traffic(workload, seed)
        entries = pins[workload.name] = {}
        requests = [
            request
            for index in range(PIN_ROUNDS[workload.name])
            for client in range(workload.clients)
            for request in traffic.round(client, index)
        ]
        for request in requests:
            sql = request.statement.sql
            key = oracle.sql_digest(sql, request.draw_seed)
            if key in entries:
                continue
            if workload.kind == "plan-test":
                space = program.session(request).plan_space(sql, count_only=True)
                ranks = space.sample_ranks(PLAN_TEST_SAMPLE, seed=request.draw_seed)
                entries[key] = oracle.sql_digest(repr(ranks))
                continue
            if workload.kind == "serve":
                # what an uncached session serves: the cache must not differ
                result = program.session(request).optimize(sql)
            else:
                result = program.call(request)
            entries[key] = oracle.plan_digest(result.best_plan, result.best_cost)
        print(f"{workload.name}: {len(entries)} pins")
    path = oracle.EXPECTED_DIR / f"pins-seed{seed}.json"
    path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path}")


def _write_expected(program: Program) -> None:
    from .workloads import TPCH_NAMES, tpch_statement

    database = program.databases["tpch"]
    for name in TPCH_NAMES:
        statement = tpch_statement(name)
        served = oracle.canonical(program.sessions["tpch"].execute(statement.sql).rows)
        if served != oracle.canonical(oracle.tpch_rows(database, name, statement.params)):
            raise SystemExit(f"{name}: the executor and the oracle disagree; not writing")
    oracle.write_expected_tpch(database)


if __name__ == "__main__":
    write(int(sys.argv[1]))
