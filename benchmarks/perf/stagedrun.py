"""The staged run: per-layer metrics, timed from outside the program.

A fixed, seeded subsample of the workload's rounds (``trace_rounds`` per
10 s of ``--seconds``, single client, so every count repeats exactly for
a seed) is issued to two sides: the program's own API, untraced, and the
benchmark's staged pipeline (``staged.py``) with a span around every
layer call.  The outputs of the two sides must be identical and the
layer spans must cover 90-110 % of the untraced request time, or ``run``
fails (the one-run protocol's ``correct`` speaks of the outputs only and
reports an out-of-range cover on stderr).  Each side first serves the head of one discarded round (a fifth
of it: the classes are ordered largest first), so neither pays for
growing the heap to the workload's high-water mark.

Off the serve workloads the sides alternate round by round (which one
goes first alternates too), so a drift of the host hits both alike.

On the serve workloads there are three sides — ``PlanServer.optimize``,
the same call made directly on a ``Session`` (the difference is the pool
hand-off, ``serving.server.queue_wait_ms``), and the staged pipeline —
and each is a pass of its own (the untraced ones run twice, around the
staged one) over its own cache, warmed alike, with the previous pass's
cache dropped first: a full collector pass walks every
retained memo (about 0.1 s with one churned 128-plan cache alive), so
three live caches would triple a cost that lands on whichever side
happens to allocate next.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from . import oracle
from .metrics import BUSY_MS, COVER_RANGE, PER_LAYER, percentile, supported
from .spans import GC_SPAN, SpanRecorder
from .staged import StagedPipeline
from .worker import (
    ClientLog,
    degraded_result,
    steps,
    plan_test_round,
    set_up,
    warm_up_server,
)
from .workloads import SAMPLED_SAMPLES, Workload

OUT_DIR = Path(__file__).resolve().parent / "out"
_clock = time.perf_counter
_WARM_ROUND = -3  # an index no timed or set-up round uses


class StagedRun:
    def __init__(self, workload: Workload, seed: int):
        from repro.executor.executor import PlanExecutor

        self.workload = workload
        self.program, self.traffic, self.expected = set_up(workload, seed, with_server=False)
        self.recorder = SpanRecorder()
        databases = self.program.databases
        self.stages = {
            name: StagedPipeline(self.recorder, db.catalog) for name, db in databases.items()
        }
        self.executors = {name: PlanExecutor(db) for name, db in databases.items()}
        self.problems: list[str] = []
        self.serving: dict = {}  # serve only: what the passes read off the caches
        self._reset()

    def _reset(self) -> None:
        """Zero everything the timed rounds accumulate."""
        self.requests = 0
        self.api_s = 0.0  # the user-level call, untraced
        self.direct_s = 0.0  # serve: the same call on a Session
        self.staged_s = 0.0
        self.api_latencies: list[float] = []
        self.recorder.clear()
        for stage in self.stages.values():
            stage.counts.clear()

    def _batch(self, index: int) -> list:
        """Round ``index``; of the discarded round only the head."""
        batch = self.traffic.round(0, index)
        return batch[: max(1, len(batch) // 5)] if index < 0 else batch

    # ------------------------------------------------------------------
    # exact / sampled / plan-test: two sides, alternating by round
    # ------------------------------------------------------------------
    def api_round(self, batch) -> list:
        if self.workload.kind == "plan-test":
            log = ClientLog()
            start = _clock()
            plan_test_round(self.program, batch, self.expected, log)
            self.api_s += _clock() - start
            self.api_latencies += [e[1] for e in log.served if e[1] is not None]
            self.problems += [why for _request, why in log.failed]
            return [entry[2] for entry in log.served]
        outputs = []
        for request in batch:
            start = _clock()
            result = self.program.call(request)
            self.api_latencies.append(_clock() - start)
            outputs.append(oracle.plan_digest(result.best_plan, result.best_cost))
        self.api_s = sum(self.api_latencies)
        return outputs

    def staged_round(self, batch) -> list:
        span = self.recorder.span
        outputs = []
        if self.workload.kind == "plan-test":
            start = _clock()
            for run in steps(batch):
                head = run[0].statement
                stage = self.stages[head.database]
                with span("between-requests"):
                    space = stage.plan_space(head.sql)
                    ranks = stage.sample_ranks(space, len(run), run[0].draw_seed)
                for rank in ranks:
                    self.recorder.request_id += 1
                    with span("request"):
                        same = stage.test_plan(
                            space, rank, self.executors[head.database], self.expected[head.sql]
                        )
                    if not same:
                        self.problems.append(f"staged rows differ at plan {rank}")
                outputs += ranks
            self.staged_s += _clock() - start
            return outputs
        for request in batch:
            sql = request.statement.sql
            stage = self.stages[request.statement.database]
            self.recorder.request_id += 1
            with span("request"):
                if self.workload.kind == "sampled":
                    plan, cost = stage.sampled(sql, SAMPLED_SAMPLES, request.draw_seed)
                else:
                    result = stage.optimize(sql)
            gc.enable()  # stage.sampled leaves the collector paused
            if self.workload.kind != "sampled":
                stage.count(result)
                plan, cost = result.best_plan, result.best_cost
            outputs.append(oracle.plan_digest(plan, cost))
        return outputs

    def _run_alternating(self, rounds: int) -> None:
        for index in (_WARM_ROUND, *range(rounds)):
            batch = self._batch(index)
            self.requests += len(batch)
            sides = (self.api_round, self.staged_round)
            outputs = []
            for side in sides if index % 2 == 0 else sides[::-1]:
                gc.collect()  # neither side collects the other's garbage
                outputs.append(side(batch))
            if outputs[0] != outputs[1]:
                self.problems.append(
                    f"round {index}: staged output differs from the program's"
                )
            if index < 0:
                self._reset()

    # ------------------------------------------------------------------
    # serve: three passes, one live cache at a time
    # ------------------------------------------------------------------
    def _serve_pass(self, side: str, rounds: int) -> list:
        from repro.serving import PlanCache

        workload, program, traffic = self.workload, self.program, self.traffic
        deadline_s = workload.deadline_s
        stage = self.stages["synthetic"]
        request_span = nullcontext
        if side == "server":
            server = warm_up_server(program, traffic)
            cache = server.cache

            def serve(sql):
                result = server.optimize(sql)
                return result, result.cache.tier

        else:
            cache = PlanCache()
            session = program.fresh_session("synthetic", cache)
            for request in traffic.warmup():
                session.optimize(request.statement.sql, deadline_s=deadline_s)
            if side == "direct":

                def serve(sql):
                    result = session.optimize(sql, deadline_s=deadline_s)
                    return result, result.cache.tier

            else:
                request_span = lambda: self.recorder.span("request")  # noqa: E731

                def serve(sql):
                    return stage.serve(sql, cache, deadline_s)

        for index in (_WARM_ROUND, *range(rounds)):
            if index == 0:
                outputs, latencies = [], []
                tiers = {"plan": 0, "template": 0, "miss": 0}
                degraded = 0
                before = cache.stats()
                if side == "staged":
                    self._reset()
            for request in self._batch(index):
                self.recorder.request_id += 1
                start = _clock()
                with request_span():
                    result, tier = serve(request.statement.sql)
                elapsed = _clock() - start
                if index < 0:
                    continue
                latencies.append(elapsed)
                tiers[tier] += 1
                degraded += degraded_result(result)
                if side == "staged" and tier != "plan":
                    stage.count(result)
                outputs.append(oracle.plan_digest(result.best_plan, result.best_cost))
        after = cache.stats()
        self.serving[side] = {
            "seconds": sum(latencies),
            "latencies": latencies,
            "tiers": tiers,
            "degraded": degraded,
            "evictions": {
                tier: after[f"{tier}.evictions"] - before[f"{tier}.evictions"]
                for tier in ("plan", "template")
            },
            "stats": server.stats() if side == "server" else None,
        }
        program.close()
        return outputs

    def _run_serve(self, rounds: int) -> None:
        outputs = {}
        seconds = {"server": [], "direct": [], "staged": []}
        # the untraced passes run on both sides of the staged one and are
        # averaged: a steady drift of the host cancels
        for side in ("server", "direct", "staged", "direct", "server"):
            outputs[side] = self._serve_pass(side, rounds)
            seconds[side].append(self.serving[side]["seconds"])
            gc.collect()  # the pass's cache is garbage now: drop it
        if not outputs["server"] == outputs["direct"] == outputs["staged"]:
            self.problems.append("the three sides served different plans")
        passes = self.serving
        self.requests = len(outputs["server"])
        self.api_s = statistics.mean(seconds["server"])
        self.api_latencies = passes["server"]["latencies"]
        self.direct_s = statistics.mean(seconds["direct"])
        self.staged_s = passes["staged"]["seconds"]
        for name in ("tiers", "evictions"):
            if passes["staged"][name] != passes["direct"][name]:
                self.problems.append(f"staged cache {name} differ from the program's")

    # ------------------------------------------------------------------
    def run(self, rounds: int) -> None:
        with self.recorder.watching_gc():
            if self.workload.kind == "serve":
                self._run_serve(rounds)
            else:
                self._run_alternating(rounds)

    def budget_overhead(self) -> float:
        """One round's statements optimized uncached with and without the
        workload's deadline: what the budget checkpoints cost."""
        plain = self.program.fresh_session("synthetic")
        spent = [0.0, 0.0]
        for request in self.traffic.round(0, 0):
            for slot, kwargs in enumerate(({}, {"deadline_s": self.workload.deadline_s})):
                start = _clock()
                plain.optimize(request.statement.sql, **kwargs)
                spent[slot] += _clock() - start
        return spent[1] / spent[0] - 1.0

    # ------------------------------------------------------------------
    def metrics(self) -> tuple[dict, dict]:
        """``(per-layer metric values, share of the request per span)``."""
        requests = self.requests
        totals = self.recorder.self_times()
        counts: dict[str, float] = {}
        for stage in self.stages.values():
            for name, value in stage.counts.items():
                counts[name] = counts.get(name, 0.0) + value
        values = {name: 0.0 for name in PER_LAYER}
        for name in BUSY_MS:
            values[f"{name}.busy_ms"] = totals.get(name, 0.0) * 1e3 / requests
        if counts.get("unranks"):
            values["planspace.unrank.busy_us"] = (
                totals["planspace.unrank"] * 1e6 / counts["unranks"]
            )
        for name in (
            "optimizer.explore.logical_exprs",
            "optimizer.implement.physical_exprs",
            "optimizer.bestplan.dp_states",
            "sampledopt.fragments",
            "executor.rows_out",
        ):
            values[name] = counts.get(name, 0.0) / requests
        if counts.get("spaces"):
            values["planspace.count.groups"] = counts["planspace.count.groups"] / counts["spaces"]
        if counts.get("optimizer.bestplan.dp_states"):
            values["optimizer.bestplan.pruned_share"] = (
                counts["pruned_states"] / counts["optimizer.bestplan.dp_states"]
            )
        layers_s = sum(
            seconds
            for name, seconds in totals.items()
            if name not in ("request", "between-requests")
        )
        untraced_s = self.api_s
        if self.workload.kind != "plan-test":
            # the request spans are the staged side's clock: a collector
            # pass the program defers past its return lands past them too
            self.staged_s = sum(
                end - start
                for name, start, end, _p, _r in self.recorder.rows()
                if name == "request"
            )
        if self.workload.kind == "serve":
            staged, server = self.serving["staged"], self.serving["server"]
            queue_wait_s = self.api_s - self.direct_s
            values["serving.cache.plan_hit_share"] = staged["tiers"]["plan"] / requests
            values["serving.cache.template_hit_share"] = staged["tiers"]["template"] / requests
            values["serving.cache.plan_evictions"] = staged["evictions"]["plan"]
            values["serving.cache.template_evictions"] = staged["evictions"]["template"]
            values["serving.server.queue_wait_ms"] = queue_wait_s * 1e3 / requests
            values["serving.server.service_p50_ms"] = server["stats"]["latency_p50_ms"]
            values["serving.server.service_p99_ms"] = server["stats"]["latency_p99_ms"]
            values["resilience.degraded_share"] = server["degraded"] / requests
            layers_s += queue_wait_s
            untraced_s = self.direct_s
        if self.workload.deadline_s is not None:
            values["resilience.budget_overhead_share"] = self.budget_overhead()
        if supported(len(self.api_latencies), 0.99):
            values["client.req_p99_ms"] = percentile(self.api_latencies, 0.99) * 1e3
        values["client.trace_overhead_share"] = self.staged_s / untraced_s - 1.0
        values["client.layers_cover_share"] = layers_s / self.api_s
        shares = {
            name: totals[name] / self.api_s
            for name in BUSY_MS + ("planspace.unrank", GC_SPAN)
            if totals.get(name)
        }
        return values, shares


def run_staged(workload: Workload, seed: int, seconds: float) -> dict:
    rounds = max(1, round(workload.trace_rounds * seconds / 10.0))
    staged = StagedRun(workload, seed)
    try:
        staged.run(rounds)
        values, shares = staged.metrics()
    finally:
        staged.program.close()
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload.name}.json").write_text(
        json.dumps(
            {"workload": workload.name, "seed": seed, "spans": staged.recorder.to_json()}
        )
    )
    cover = values["client.layers_cover_share"]
    covered = COVER_RANGE[0] <= cover <= COVER_RANGE[1]
    return {
        "correct": not staged.problems,  # the outputs; `run` also wants cover
        "attempted": staged.requests,
        "failed": min(len(staged.problems), staged.requests),
        "metrics": values,
        "info": {
            "requests": staged.requests,
            "rounds": rounds,
            "problems": staged.problems[:5],
            "uncovered": ""
            if covered
            else f"layers cover {cover:.3f} of the request, outside {COVER_RANGE}",
            "shares": shares,
            "statement_sha": staged.traffic.statement_sha(),
        },
    }
