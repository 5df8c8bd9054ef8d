"""Benchmark of excfact: four workloads, end-to-end and per-layer metrics.

One run of one workload::

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload is set up in
several fresh worker processes (``setup_s`` is their median) and measured
in the last of them, one op after another with no other load.  ``--trace 1``
makes one untraced and two traced passes instead and reports the per-layer
metrics.  The last stdout line is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong value or an unverified
witness makes the run exit with code 1.

Every workload, untraced, with a table of the metrics::

    python3 perfbench/run.py --all --seed 1 --seconds 50

The failures known at the seed commit, one check each::

    python3 perfbench/run.py --known-failures
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("index_zoo", "analyze_search", "oracle_sweep", "cli")

#: fresh worker processes whose set-up is timed; the last one also measures
SETUP_SAMPLES = 5

#: a run whose workers take longer than this in total is killed and fails
RUN_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_max_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(Exception):
    pass


def start_worker(mode: str, workload: str, seed: int, seconds: float, workdir: Path,
                 deadline: float) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait until it has set up; returns the set-up time."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir),
    ]
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "READY":
        finish(proc, deadline)
        raise WorkerError(f"{mode} worker for {workload} did not set up (exit code {proc.returncode})")
    return setup, proc


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker and return its last stdout line; kill it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"run took longer than {RUN_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        setups = []
        if not traced:
            for _ in range(SETUP_SAMPLES - 1):
                setup, proc = start_worker("setup", workload, seed, seconds, workdir, deadline)
                finish(proc, deadline)
                if proc.returncode:
                    raise WorkerError(f"set-up worker exited with code {proc.returncode}")
                setups.append(setup)
        setup, proc = start_worker("trace" if traced else "measure", workload, seed, seconds, workdir, deadline)
        setups.append(setup)
        last = finish(proc, deadline)
        try:
            summary = json.loads(last)
        except json.JSONDecodeError:
            raise WorkerError(f"worker exited with code {proc.returncode} and no summary") from None
        if "wrong" not in summary and proc.returncode:
            raise WorkerError(f"worker exited with code {proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["setups"] = setups
    return summary


def end_to_end(summary: dict) -> dict[str, float]:
    """The end-to-end metrics of one measured run.

    Throughput is the median over passes, so that one pass slowed by other
    load on the host does not set it.  p50 and p90 are taken over every
    completed op.  The slowest op is the input whose median over its
    repetitions is largest.  Where one op covers many graphs (the sweep),
    per-graph latencies are not observable and all three report the mean
    time per graph.
    """
    passes = summary["passes"]
    samples = sorted(t for p in passes for _, t in p["latencies"])
    per_input: dict[int, list[float]] = {}
    for p in passes:
        for index, t in p["latencies"]:
            per_input.setdefault(index, []).append(t)
    if summary["latency_is_mean"]:  # one op spans many graphs: report the mean per graph
        p50 = p90 = slowest = median(samples)
    else:
        p50 = median(samples)
        p90 = quantiles(samples, n=10, method="inclusive")[-1] if len(samples) > 1 else samples[0]
        slowest = max(median(ts) for ts in per_input.values())
    return {
        "setup_s": median(summary["setups"]),
        "ops_per_s": median(p["done"] / p["busy"] for p in passes if p["done"]),
        "op_p50_ms": p50 * 1000,
        "op_p90_ms": p90 * 1000,
        "op_max_ms": slowest * 1000,
        "peak_rss_mb": summary["peak_rss_mb"],
    }


def result_line(summary: dict, traced: bool) -> dict:
    correct = "wrong" not in summary
    if traced:
        metrics = {name: {"value": 0.0 if value is None else value, "unit": unit}
                   for name, (value, unit) in summary.get("metrics", {}).items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in end_to_end(summary).items()} if correct else {}
    done, failed = summary.get("done", 0), summary.get("failed", 0)
    return {"correct": correct, "attempted": max(1, done + failed), "failed": failed, "metrics": metrics}


def report(workload: str, summary: dict, result: dict, out=sys.stdout) -> None:
    """Human-readable lines: every metric with its unit, absent ones marked."""
    if "wrong" in summary:
        print(f"{workload}: WRONG OUTPUT: {summary['wrong']}", file=out)
    for name, entry in result["metrics"].items():
        absent = summary.get("metrics", {}).get(name, (0,))[0] is None
        shown = "absent" if absent else f"{entry['value']:.6g}"
        print(f"{workload}  {name:34s} {shown:>14s} {entry['unit']}", file=out)
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}  {'failed_frac':34s} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} ops)", file=out)
    for op, error in summary.get("failures", {}).items():
        print(f"{workload}  failed op {op}: {error}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--known-failures", action="store_true", help="check the failures known at the seed")
    args = parser.parse_args()

    if args.known_failures:
        return subprocess.run([sys.executable, str(HERE / "known_failures.py")], cwd=ROOT).returncode
    names = WORKLOADS if args.all else [args.workload]
    if names == [None]:
        parser.error("give --workload, --all or --known-failures")
    all_correct = True
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, traced=bool(args.trace))
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        result = result_line(summary, bool(args.trace))
        report(name, summary, result)
        all_correct &= result["correct"]
        if not args.all:
            print(json.dumps(result))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
