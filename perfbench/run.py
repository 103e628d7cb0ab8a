"""Benchmark of the twistnp CLI: four workloads, checked outputs, medians.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition ("round") of the workload runs in a fresh interpreter
(``perfbench/job.py``), so module-level caches start cold as a user's
invocation finds them.  Rounds run one at a time until ``--seconds`` have
passed; every round is checked (``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it reports the operation
counts and two host diagnostics (steal jiffies, a calibration loop).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
RUN_LIMIT_S = 170  # a run must end within 180 s; no launch may outlive this
MIN_SETUP_SAMPLES = 3
CALIBRATION_ITERATIONS = 2_000_000


class BenchError(RuntimeError):
    pass


def _launch(argvs: list[list[str]], trace: bool, deadline: float) -> tuple[dict, float]:
    """Run one job in a fresh interpreter; returns its result and set-up time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports compiled bytecode, as installs do
    spec = json.dumps({"argvs": argvs, "trace": trace})
    start = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "job.py"), spec], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise BenchError(f"job exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, result["ready"] - start


def _bytecode_ready() -> bool:
    return all(Path(importlib.util.cache_from_source(str(src))).is_file()
               for src in (ROOT / "src" / "twistnp").glob("*.py"))


def _run_round(ops: list[workloads.Op], trace: bool,
               deadline: float) -> tuple[dict, float, list[dict]]:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    result, setup = _launch([list(op.argv) for op in ops], trace, deadline)
    outs = []
    for op, res in zip(ops, result["ops"]):
        records = None
        if op.out is not None:
            path = Path(op.out)
            lines = path.read_text().splitlines() if path.exists() else []
            records = [json.loads(line) for line in lines if line.strip()]
        doc = json.loads(res["stdout"]) if res["rc"] == 0 and res["stdout"].strip() else None
        outs.append(dict(res, label=op.label, argv=list(op.argv), known_fault=op.known_fault,
                         records=records, doc=doc))
    return result, setup, outs


def _record_times(outs: list[dict]) -> list[float]:
    """Per-record times: timings.total_s of each JSONL record, and the call
    time of each document a single-tuple command prints."""
    times = []
    for op in outs:
        if op["rc"] != 0:
            continue
        if op["records"] is not None:
            times += [r["timings"]["total_s"] for r in op["records"] if r.get("status") == "ok"]
        else:
            times.append(op["wall_s"])
    return times


def _steal_jiffies() -> int | None:
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def _calibration_s() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i
    return time.perf_counter() - start


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "twistnp" / "cli.py").is_file():
        sys.stderr.write(f"error: no twistnp sources under {ROOT / 'src'}; "
                         "run from the root of a twistnp checkout\n")
        return 2
    trace = bool(args.trace)
    ops = workloads.build(args.workload, args.seed, str(OUT))
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if not _bytecode_ready():
            _launch([], False, deadline)  # untimed: compiles the bytecode of a fresh checkout
        calibration = [_calibration_s()]
        steal0 = _steal_jiffies()
        t_start = time.monotonic()
        rounds, setups, problems = [], [], []
        while True:
            # with tracing, untraced and traced rounds alternate in pairs
            if trace:
                order = (False, True) if len(rounds) % 4 == 0 else (True, False)
            else:
                order = (False,)
            for traced in order:
                result, setup, outs = _run_round(ops, traced, deadline)
                problems += checks.check_round(args.workload, outs)
                if not rounds and not problems:
                    missed = checks.self_test(args.workload, outs)
                    problems += [f"checker self-test missed corruption {m}" for m in missed]
                rounds.append((traced, result, outs))
                setups.append(setup)
            if (time.monotonic() - t_start >= args.seconds
                    and len(rounds) >= workloads.MIN_ROUNDS.get(args.workload, 1)):
                break
        while not trace and len(setups) < MIN_SETUP_SAMPLES:
            setups.append(_launch([], False, deadline)[1])
        steal1 = _steal_jiffies()
        calibration.append(_calibration_s())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    attempted = sum(len(outs) for _, _, outs in rounds)
    failed = sum(op["rc"] != 0 for _, _, outs in rounds for op in outs)
    plain = [res for traced, res, _ in rounds if not traced]
    if trace:
        traced_res = [res for traced, res, _ in rounds if traced]
        per_round = []
        for res in traced_res:
            # the root span covers the whole job, so the self times add up to wall_s
            self_sum = sum(tracing.self_times(res["spans"]))
            if abs(self_sum - res["wall_s"]) > 1e-6:
                problems.append(f"span self times sum to {self_sum}, "
                                f"traced wall_s is {res['wall_s']}")
            per_round.append(tracing.layer_metrics(res["spans"], res["context_misses"]))
        values = {k: statistics.median(lm[k] for lm in per_round) for k in per_round[0]}
        values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced_res)
        values["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    else:
        times = [t for _, _, outs in rounds for t in _record_times(outs)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
            "record_p50_s": statistics.median(times),
            "record_p90_s": _p90(times),
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        sys.stderr.write("error: computed metrics differ from those BENCHMARK.json declares\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "rounds": len(rounds),
        "round_wall_s": [res["wall_s"] for _, res, _ in rounds],
        "setup_samples_s": setups,
        "diagnostics": {
            "steal_jiffies": None if steal0 is None or steal1 is None else steal1 - steal0,
            "calibration_s": calibration,
        },
    }))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
