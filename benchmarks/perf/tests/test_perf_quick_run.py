"""A --quick run of all six workloads finishes in under 30 s and emits
every metric; the driver's one-run protocol prints the contract's line."""

import json
import subprocess
import sys
import time
from pathlib import Path

from benchmarks.perf.__main__ import DRIVER_END_TO_END
from benchmarks.perf.metrics import END_TO_END, PER_LAYER
from benchmarks.perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]


def test_quick_run_emits_every_metric(tmp_path):
    out = tmp_path / "run.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "run", "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == [w.name for w in WORKLOADS]
    for name, entry in record["workloads"].items():
        assert set(entry["end_to_end"]) == set(END_TO_END), name
        assert set(entry["per_layer"]) == set(PER_LAYER), name
        assert entry["end_to_end"]["failed_share"] == [0.0], name
        for metric in (*END_TO_END, *PER_LAYER):
            assert metric in done.stdout
    assert {"commit", "host", "nproc", "python", "numpy", "kernel", "seed"} <= set(
        record["provenance"]
    )


def test_driver_protocol_line():
    for trace, names in ((0, DRIVER_END_TO_END), (1, tuple(PER_LAYER))):
        done = subprocess.run(
            [sys.executable, "benchmarks/perf/run.py", "--workload", "exact-small",
             "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert tuple(line["metrics"]) == names
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}
