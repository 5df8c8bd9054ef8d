"""One benchmark worker process: set up one workload, then measure it.

Started by ``run.py``, never by hand.  The worker imports excfact from the
checkout's ``src``, builds the workload's inputs and prints ``READY``; the
parent times that as set-up.  In ``setup`` mode it stops there.  In
``measure`` mode it repeats passes over the ops, untraced, until both the
timed seconds and the minimum op count are reached.  In ``trace`` mode it
makes one untraced pass and two traced passes over the ops.  The last
stdout line is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fewest completed ops in a measured run, so that ten lie beyond the p90
MIN_OPS = 100


def import_excfact():
    sys.path.insert(0, str(SRC))
    import excfact

    where = Path(excfact.__file__).resolve()
    if not where.is_relative_to(SRC):
        raise SystemExit(f"excfact imported from {where}, not from {SRC}")
    return excfact


class MemoLedger:
    """Hit/miss totals of every excfact memo, kept across ``cache_clear``
    calls (which reset the memo's own statistics)."""

    def __init__(self, memos) -> None:
        self.memos = memos
        self.hits: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()
        self.excessive_peak_entries = 0

    @staticmethod
    def _name(f) -> str:
        return f"{f.__module__}.{f.__qualname__}"

    def _absorb(self) -> None:
        entries = 0
        for f in self.memos:
            info = getattr(f, "cache_info", None)
            if info is None:
                continue
            info = info()
            self.hits[self._name(f)] += info.hits
            self.misses[self._name(f)] += info.misses
            if f.__module__ == "excfact.excessive":
                entries += info.currsize
        self.excessive_peak_entries = max(self.excessive_peak_entries, entries)

    def clear(self) -> None:
        self._absorb()
        for f in self.memos:
            f.cache_clear()

    def reset(self) -> None:
        for f in self.memos:
            f.cache_clear()
        self.hits.clear()
        self.misses.clear()
        self.excessive_peak_entries = 0

    def summary(self) -> dict:
        return {
            "hits_misses": {name: (self.hits[name], self.misses[name]) for name in sorted(self.hits)},
            "excessive_peak_entries": self.excessive_peak_entries,
        }


class Runner:
    def __init__(self, workload, ledger, time_budget, budget_ms: int, wrong_output) -> None:
        self.workload = workload
        self.ledger = ledger
        self.time_budget = time_budget
        self.budget_ms = budget_ms
        self.wrong_output = wrong_output
        self.digests: dict[str, object] = {}
        self.failures: dict[str, str] = {}

    def run_pass(self, in_process: bool = False, tracer=None) -> dict:
        """One pass over every op.  The first time an op completes, its
        output is checked; later completions must give the same digest.
        Checks and memo clearing happen outside the timed region."""
        latencies: list[tuple[int, float]] = []
        units_done = units_failed = 0
        busy = 0.0
        self.ledger.reset()
        for index, op in enumerate(self.workload.ops):
            if self.workload.clear_per_op:
                self.ledger.clear()
            if tracer is not None:
                tracer.op = index
            call = op.run_traced if in_process and op.run_traced else op.run
            start = perf_counter()
            try:
                with self.time_budget(self.budget_ms):
                    result = call()
            except Exception as exc:  # a failed op is counted, not fatal
                busy += perf_counter() - start
                units_failed += op.units
                self.failures.setdefault(op.name, f"{type(exc).__name__}: {str(exc)[:300]}")
                continue
            elapsed = perf_counter() - start
            busy += elapsed
            units_done += op.units
            latencies.append((index, elapsed / op.units if self.workload.latency_is_mean else elapsed))
            if op.name not in self.digests:
                self.digests[op.name] = op.check(result)
            elif op.digest(result) != self.digests[op.name]:
                raise self.wrong_output(f"{op.name}: output differs from its first run")
        self.ledger.clear()
        return {"latencies": latencies, "done": units_done, "failed": units_failed, "busy": busy}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def cli_startup(env_src: Path, repeats: int = 5) -> dict:
    """Median interpreter start and ``import excfact.cli`` time, in ms."""
    env = {**os.environ, "PYTHONPATH": str(env_src)}
    interp, imports = [], []
    probe = "import time; t = time.perf_counter(); import excfact.cli; print(time.perf_counter() - t)"
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append((perf_counter() - start) * 1000)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True)
        imports.append(float(out.stdout) * 1000)
    return {"interp_ms": median(interp), "import_ms": median(imports)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import_excfact()
    import workloads
    from excfact.budget import time_budget

    traced = args.mode == "trace"
    workload = workloads.build(args.workload, args.seed, Path(args.workdir), traced=traced)
    memos = workloads.memo_functions()
    ledger = MemoLedger(memos)
    ledger.reset()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    runner = Runner(workload, ledger, time_budget, workloads.OP_BUDGET_MS, workloads.WrongOutput)
    try:
        if traced:
            summary = trace(args, workload, runner, ledger)
        else:
            summary = measure(args, workload, runner)
    except workloads.WrongOutput as exc:
        print(json.dumps({"wrong": str(exc)}), flush=True)
        return 1
    summary["failures"] = runner.failures
    print(json.dumps(summary), flush=True)
    return 0


def measure(args, workload, runner) -> dict:
    passes = []
    done = busy = 0
    while busy < args.seconds or done < MIN_OPS:
        result = runner.run_pass()
        passes.append(result)
        done += result["done"]
        busy += result["busy"]
        if not result["done"]:
            break  # every op failed; repeating cannot reach MIN_OPS
    return {
        "passes": passes,
        "done": done,
        "failed": sum(p["failed"] for p in passes),
        "peak_rss_mb": peak_rss_mb(children=workload.rss_of_children),
        "latency_is_mean": workload.latency_is_mean,
    }


def trace(args, workload, runner, ledger) -> dict:
    from tracer import Tracer, layer_metrics

    untraced = runner.run_pass(in_process=True)
    tracer = Tracer()
    tracer.install()
    try:
        first = runner.run_pass(in_process=True, tracer=tracer)
        first_memo = ledger.summary()
        first_counts = tracer.counts()
        metrics = layer_metrics(tracer, first_memo, len(workload.ops),
                                cli_startup(SRC) if workload.name == "cli" else None)
        out = Path(args.workdir).parent / f"trace-{workload.name}-{args.seed}.json"
        tracer.write(out, {"workload": workload.name, "seed": args.seed, "memo": first_memo})
        tracer.reset()
        second = runner.run_pass(in_process=True, tracer=tracer)
        second_counts = tracer.counts()
        second_memo = ledger.summary()
    finally:
        tracer.uninstall()
    repeat = first_counts == second_counts and first_memo == second_memo
    if not repeat:
        diff = {k: (first_counts[k], second_counts[k]) for k in first_counts if first_counts[k] != second_counts[k]}
        raise SystemExit(f"traced counts differ between two identical passes: {str(diff)[:2000]}")
    metrics["trace.overhead_frac"] = (first["busy"] / untraced["busy"] - 1, "ratio")
    return {
        "metrics": metrics,
        "done": sum(p["done"] for p in (untraced, first, second)),
        "failed": sum(p["failed"] for p in (untraced, first, second)),
        "trace_file": str(out),
        "missing_spans": tracer.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
