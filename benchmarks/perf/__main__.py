"""The benchmark of record.

    python3 -m benchmarks.perf run [--seed 11] [--workload NAME] [--reps 3]
    python3 -m benchmarks.perf list [--seed 11]
    python3 -m benchmarks.perf calibrate [--runs 10] [--write]
    python3 -m benchmarks.perf compare A.json B.json
    python3 -m benchmarks.perf pin --seed 11
    python3 -m benchmarks.perf measure --workload NAME --seed N --seconds S --trace 0|1

``measure`` is the one-run protocol the PR driver speaks (the command in
BENCHMARK.json): it prints one JSON object as the last line of stdout.
Every workload runs in a fresh subprocess of its own (``worker.py``);
this module only starts them and reads their answers, and puts ``src``
on their path itself, so no ``PYTHONPATH`` is needed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from .compare import compare_rows, format_rows, spread  # noqa: E402
from .metrics import DETERMINISTIC, END_TO_END, PER_LAYER  # noqa: E402
from .workloads import BY_NAME, WORKLOADS, Traffic  # noqa: E402

#: set-ups timed per untraced run (each in a fresh process); their median
#: is the run's ``setup_s``
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: the metrics of BENCHMARK.json's ``end_to_end``: all but ``failed_share``,
#: which is 0 on a healthy run and travels as ``failed`` / ``attempted``
DRIVER_END_TO_END = tuple(name for name in END_TO_END if name != "failed_share")


def _program_env() -> dict:
    """The environment every process that runs the program gets.  The
    hash seed is fixed because the optimizer's choice between plans whose
    costs tie to the last ulp follows set iteration order: without it
    about 3 % of the 9-11 relation statements get another (equally cheap)
    plan from one process to the next, and no plan could be pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    env = _program_env()
    command = [
        sys.executable, "-m", "benchmarks.perf.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--t0", repr(time.monotonic()), *extra,
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, setups: int = SETUP_SAMPLES):
    """One run of one workload: the worker's answer, with ``setup_s``
    replaced by the median over ``setups`` fresh set-ups."""
    if trace:
        return _worker(workload, seed, seconds, "--trace", "1")
    samples = [
        _worker(workload, seed, seconds, "--setup-only")["setup_s"] for _ in range(setups - 1)
    ]
    result = _worker(workload, seed, seconds)
    samples.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = statistics.median(samples)
    result["info"]["setup_samples_s"] = samples
    return result


def _driver_line(result: dict, trace: int) -> str:
    units = PER_LAYER if trace else END_TO_END
    names = PER_LAYER if trace else DRIVER_END_TO_END
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": units[name][0]}
                for name in names
            },
        }
    )


# ----------------------------------------------------------------------
def provenance(seed: int, reps: int, seconds: float) -> dict:
    import numpy

    from repro.kernel import selected_backend

    def git(*args):
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            return ""

    return {
        "commit": git("rev-parse", "HEAD") or "not a git checkout",
        "dirty": bool(git("status", "--porcelain", "--", "src")),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": selected_backend(),
        "seed": seed,
        "reps": reps,
        "seconds": seconds,
        "setup_samples": SETUP_SAMPLES,
    }


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name][0]}")


def cmd_run(args) -> int:
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    seconds = 0.5 if args.quick else args.seconds
    reps = 1 if args.quick else args.reps
    setups = 1 if args.quick else SETUP_SAMPLES
    record = {"provenance": provenance(args.seed, reps, seconds), "workloads": {}}
    ok = True

    def run_workload(name):
        runs = [measure(name, args.seed, seconds, 0, setups) for _ in range(reps)]
        return runs, measure(name, args.seed, seconds, 1)

    # --quick is a smoke test, not a measurement: two workloads run at a
    # time, so timings mean little and a span cover out of range (a
    # comparison of timings) is reported but does not fail the run
    pool = ThreadPoolExecutor(max_workers=2 if args.quick else 1)
    for name, (runs, staged) in zip(names, pool.map(run_workload, names)):
        covered = args.quick or not staged["info"]["uncovered"]
        ok = ok and staged["correct"] and covered and all(run["correct"] for run in runs)
        end_to_end = {m: [run["metrics"][m] for run in runs] for m in END_TO_END}
        medians = {m: statistics.median(v) for m, v in end_to_end.items()}
        last = runs[-1]["info"]
        print(
            f"\n== {name}: {BY_NAME[name].request}\n"
            f"   {last['clients']} client(s), closed loop, {last['requests']} requests in "
            f"{last['rounds']} rounds, {last['latency_samples']} latency samples "
            f"(p90 has ten beyond it: {last['p90_supported']}); plan check: "
            f"{last['plan_check']} ({last['pinned_keys']} pinned, "
            f"{last['rederived_keys']} re-derived, {last['executed_keys']} executed)"
        )
        _print_metrics(f"   end to end (median of {reps}):", medians, END_TO_END)
        _print_metrics(
            f"   per layer (staged run, {staged['info']['requests']} requests):",
            staged["metrics"],
            PER_LAYER,
        )
        shares = ", ".join(f"{k} {v:.1%}" for k, v in staged["info"]["shares"].items())
        print(f"   share of the request: {shares}")
        for problem in [*staged["info"]["problems"], staged["info"]["uncovered"], *last["failures"]]:
            if problem:
                print(f"   PROBLEM: {problem}")
        record["workloads"][name] = {
            "why": BY_NAME[name].why,
            "clients": last["clients"],
            "statement_sha": last["statement_sha"],
            "requests": [run["info"]["requests"] for run in runs],
            "end_to_end": end_to_end,
            "per_layer": staged["metrics"],
            "shares": staged["info"]["shares"],
            "staged_requests": staged["info"]["requests"],
        }
    pool.shutdown()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"\nwrote {out}" + ("" if ok else "  (with FAILED checks)"))
    return 0 if ok else 1


def cmd_list(args) -> int:
    for workload in WORKLOADS:
        traffic = Traffic(workload, args.seed)
        print(
            f"{workload.name}: sha256 {traffic.statement_sha()}\n"
            f"  request: {workload.request}\n"
            f"  traffic: {workload.traffic} — {workload.clients} client(s), "
            f"{workload.round_size} requests per client per round, whole rounds "
            f"for --seconds; {len(traffic.warmup())} warm-up requests\n"
            f"  why: {workload.why}"
        )
    return 0


def _bounds() -> tuple[dict, dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return bounds, directions


def cmd_calibrate(args) -> int:
    """Same code, ``--runs`` seeds per workload: the spread of every
    end-to-end metric, as the PR driver takes it, and the bound that
    follows (three times the widest spread, at least 5 %)."""
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    widest = {m: 0.0 for m in DRIVER_END_TO_END}
    record = {"provenance": provenance(args.seed, args.runs, args.seconds), "workloads": {}}
    for name in names:
        runs = [measure(name, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        if not all(run["correct"] for run in runs):
            raise SystemExit(f"{name}: a calibration run failed its checks")
        values = {m: [run["metrics"][m] for run in runs] for m in DRIVER_END_TO_END}
        record["workloads"][name] = {"end_to_end": values}
        print(f"{name}:")
        for metric, series in values.items():
            share = spread(series)
            if metric != "setup_s":
                widest[metric] = max(widest[metric], share)
            print(f"  {metric:<16} median {statistics.median(series):>12.5g}  spread {share:.4f}")
    bounds = {}
    for metric, share in widest.items():
        bound = min(0.25, max(0.05, math.ceil(share * 300) / 100))
        bounds[metric] = 0.25 if metric == "setup_s" else bound
        note = "" if share * 3 <= 0.25 else "  TOO NOISY: lengthen the run or fix the workload"
        print(f"bound {metric:<16} {bounds[metric]:.2f} (widest spread {share:.4f}){note}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if args.write:
        spec = json.loads(BENCHMARK_JSON.read_text())
        for entry in spec["end_to_end"]:
            entry["bound"] = bounds[entry["name"]]
        BENCHMARK_JSON.write_text(json.dumps(spec, indent=2) + "\n")
        print(f"wrote the bounds into {BENCHMARK_JSON}")
    return 0


def cmd_compare(args) -> int:
    bounds, directions = _bounds()
    run_a = json.loads(Path(args.a).read_text())
    run_b = json.loads(Path(args.b).read_text())
    rows = list(compare_rows(run_a, run_b, bounds, directions))
    print(f"A = {args.a} ({run_a['provenance']['commit'][:12]})")
    print(f"B = {args.b} ({run_b['provenance']['commit'][:12]}); B/A has A's median as base")
    print(format_rows(rows))
    for workload, entry in run_a["workloads"].items():
        other = run_b["workloads"].get(workload, {})
        for name in DETERMINISTIC:
            a, b = entry.get("per_layer", {}).get(name), other.get("per_layer", {}).get(name)
            if a is not None and b is not None and a != b:
                print(f"count differs: {workload} {name}: {a} vs {b}")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


def cmd_pin(args) -> int:
    command = [sys.executable, "-m", "benchmarks.perf.pins", str(args.seed)]
    return subprocess.run(command, cwd=ROOT, env=_program_env()).returncode


def cmd_measure(args) -> int:
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    info = result["info"]
    for line in info.get("failures", []) + info.get("problems", []) + [info.get("uncovered")]:
        if line:
            print(f"PROBLEM: {line}", file=sys.stderr)
    print(_driver_line(result, args.trace))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **defaults):
        sub = commands.add_parser(name)
        sub.set_defaults(handler=handler)
        sub.add_argument("--seed", type=int, default=defaults.get("seed", 11))
        return sub

    sub = add("run", cmd_run)
    sub.add_argument("--workload", choices=sorted(BY_NAME))
    sub.add_argument("--reps", type=int, default=3)
    sub.add_argument("--seconds", type=float, default=10.0)
    sub.add_argument("--quick", action="store_true", help="0.5 s, one repetition, one set-up")
    sub.add_argument("--out", default=str(HERE / "out" / "run.json"))
    add("list", cmd_list)
    sub = add("calibrate", cmd_calibrate)
    sub.add_argument("--workload", choices=sorted(BY_NAME))
    sub.add_argument("--runs", type=int, default=10)
    sub.add_argument("--seconds", type=float, default=10.0)
    sub.add_argument("--write", action="store_true", help="write the bounds into BENCHMARK.json")
    sub.add_argument("--out", help="keep the calibration runs as a run file")
    sub = add("compare", cmd_compare)
    sub.add_argument("a")
    sub.add_argument("b")
    add("pin", cmd_pin)
    sub = add("measure", cmd_measure)
    sub.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    sub.add_argument("--seconds", type=float, required=True)
    sub.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
