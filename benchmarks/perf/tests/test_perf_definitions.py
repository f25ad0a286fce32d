"""The benchmark's definitions agree with each other and with the
contract BENCHMARK.json is written to."""

import json
import re
from pathlib import Path

import pytest

from benchmarks.perf.__main__ import DRIVER_END_TO_END
from benchmarks.perf.metrics import DETERMINISTIC, END_TO_END, PER_LAYER
from benchmarks.perf.workloads import WORKLOADS, Traffic

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((Path(__file__).resolve().parents[3] / "BENCHMARK.json").read_text())


def test_counts_and_names():
    assert len(END_TO_END) == 8 and len(PER_LAYER) == 39 and len(WORKLOADS) == 6
    assert len(DRIVER_END_TO_END) <= 16 and len(PER_LAYER) <= 128 and len(WORKLOADS) <= 8
    names = [*END_TO_END, *PER_LAYER, *(w.name for w in WORKLOADS)]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for unit, better in [*END_TO_END.values(), *PER_LAYER.values()]:
        assert UNIT.fullmatch(unit) and better in ("lower", "higher")
    assert set(DETERMINISTIC) <= set(PER_LAYER)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    for entry, workload in zip(SPEC["workloads"], WORKLOADS):
        assert entry == {"name": workload.name, "why": workload.why}
        assert len(workload.why) <= 200 and "\n" not in workload.why
    assert [m["name"] for m in SPEC["end_to_end"]] == list(DRIVER_END_TO_END)
    for metric in SPEC["end_to_end"]:
        unit, better = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0 < metric["bound"] <= 0.25
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    for metric in SPEC["per_layer"]:
        assert (metric["unit"], metric["better"]) == PER_LAYER[metric["name"]]
    assert 4 + 22 * len(SPEC["workloads"]) == 136 and 1 <= SPEC["run_seconds"] <= 60


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_the_seed_is_the_only_randomness(workload):
    first, again, other = (Traffic(workload, seed) for seed in (11, 11, 12))
    assert first.statement_sha() == again.statement_sha()
    assert first.statement_sha() != other.statement_sha()
    assert [r.statement.sql for r in first.round(0, 3)] == [
        r.statement.sql for r in again.round(0, 3)
    ]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_every_round_has_the_same_composition(workload):
    """Same count per (database, relations, edges) class in every round —
    what lets a run stopped by the clock measure the same mixture."""
    if workload.kind == "serve":
        pytest.skip("serve rounds are draws from a fixed template pool")
    traffic = Traffic(workload, 5)

    def classes(index):
        return sorted(
            (r.statement.database, r.statement.tpch, len(r.statement.tables), len(r.statement.edges))
            for r in traffic.round(0, index)
        )

    assert len(traffic.round(0, 0)) == workload.round_size
    assert classes(0) == classes(1) == classes(7)
