"""The four benchmark workloads: their inputs, their ops and their output checks.

A workload is built from a seed into a list of ops.  Every op has a timed
call (``run``), an untimed check of its output (``check``, returning a
digest of the output) and a cheap ``digest`` that later repetitions of the
same op must reproduce.  A check raises :class:`WrongOutput`; an op that
raises anything else from ``run`` is a failed op, not a wrong one.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from itertools import combinations
from math import ceil
from pathlib import Path
from typing import Any, Callable

from excfact import analysis, cli, coloring, excessive, graphs, matching, oracle
from excfact.graphs import SimpleGraph

import generators as gen

#: Wall-clock budget of one op, in milliseconds.  Generous: no op of any
#: workload comes near it, so it only stops a runaway search.
OP_BUDGET_MS = 60_000


class WrongOutput(Exception):
    """excfact returned a wrong value or an unverified witness."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]
    digest: Callable[[Any], Any]
    #: graphs the op covers; an op is one unit everywhere except oracle_sweep
    units: int = 1
    #: in-process variant used by the traced run (only the cli workload differs)
    run_traced: Callable[[], Any] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: clear every memo before each op (False: only before each pass)
    clear_per_op: bool = True
    #: per-graph latencies are not observable (one op spans many graphs)
    latency_is_mean: bool = False
    #: report the peak RSS of the CLI subprocesses instead of the worker's
    rss_of_children: bool = False


# ---------------------------------------------------------------------------
# memos


def memo_functions() -> list[Callable]:
    """Every memoised callable that an excfact module exposes, found by
    looking for ``cache_clear`` so that renamed or new caches are picked up."""
    found: dict[int, Callable] = {}
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "excfact" or mod_name.startswith("excfact."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    found.setdefault(id(value), value)
    return list(found.values())


# ---------------------------------------------------------------------------
# index_zoo


def windows(edge_total: int, chi: int, nu: int, rules: tuple[str, ...]) -> list[tuple[str, int, int]]:
    """One [l,m] window per closed-form branch of ``excessive_lm_index`` that
    the graph admits: CEIL (|E| >= m chi'), CHI (l chi' <= |E| < m chi') and
    EXC_L (l chi' > |E|), all with m at most the matching number."""
    q = edge_total // chi
    out = []
    if "CEIL" in rules and q >= 1:
        out.append(("FORMULA_CEIL", 1, q))
    if "CHI" in rules and q >= 1 and q + 1 <= nu:
        out.append(("FORMULA_CHI", q, q + 1))
    if "EXC_L" in rules and q + 1 <= nu:
        out.append(("FORMULA_EXC_L", q + 1, q + 1))
    return out


ALL_RULES = ("CEIL", "CHI", "EXC_L")

#: seeded random cubic graphs in the zoo, on 16 to 22 vertices.  Above
#: that the colouring search time of a draw spreads over orders of
#: magnitude (0.05 s to 3.2 s at n = 40), and the seed would set the metrics.
RANDOM_CUBIC = 50


def zoo_graphs(seed: int) -> list[tuple[str, SimpleGraph, int | None, tuple[str, ...]]]:
    """(name, graph, chi', rules).  chi' is None for the random cubic graphs,
    which get the single window [1, nu] and no expected rule."""
    rng = random.Random(seed)
    zoo = []
    for i in range(RANDOM_CUBIC):
        n = 16 + 2 * (i % 4)
        zoo.append((f"cubic{n}_{i}", gen.random_regular(n, 3, rng), None, ()))
    for n, k in ((5, 2), (7, 2), (8, 3), (9, 2), (10, 3), (11, 4), (12, 5), (13, 5)):
        chi = 4 if (n, k) == (5, 2) else 3  # Castagna-Prins: only Petersen is class 2
        zoo.append((f"GP({n},{k})", gen.generalized_petersen(n, k), chi, ALL_RULES))
    # EXC_L windows of J7 and J9 take 9.5 s and more than 20 s today
    for k, rules in ((5, ALL_RULES), (7, ("CEIL", "CHI")), (9, ("CEIL", "CHI"))):
        zoo.append((f"J{k}", gen.flower_snark(k), 4, rules))
    for n in (5, 7, 9, 11):
        zoo.append((f"K{n}", gen.complete(n), n, ALL_RULES))
    # the EXC_L window of a path is not coverable; EXC_L windows of grids
    # run past a 10 s budget today, even on grid(6, 8)
    zoo += [
        ("path900", gen.path(900), 2, ("CEIL", "CHI")),
        ("cycle400", gen.cycle(400), 2, ALL_RULES),
        ("cycle9", gen.cycle(9), 3, ALL_RULES),
        ("grid14x15", gen.grid(14, 15), 4, ("CEIL", "CHI")),
        ("grid12x18", gen.grid(12, 18), 4, ("CEIL", "CHI")),
        ("grid10x20", gen.grid(10, 20), 4, ("CEIL", "CHI")),
        ("grid6x8", gen.grid(6, 8), 4, ("CEIL", "CHI")),
    ]
    return zoo


def _index_op(name: str, g: SimpleGraph, chi: int | None, rule: str | None, l: int, m: int) -> Op:
    edge_total = g.edge_count

    def run():
        return excessive.excessive_lm_index(g, l, m)

    def check(result):
        other = excessive.exc_algorithm(g, l, m)
        require(other.value == result.value, f"{name} [{l},{m}]: exc_algorithm {other.value} != {result.value}")
        if not result.finite:
            require(result.rule == "NOT_COVERABLE", f"{name} [{l},{m}]: infinite value with rule {result.rule}")
            require(rule is None, f"{name} [{l},{m}]: not coverable, expected {rule}")
            return digest(result)
        require(rule is None or result.rule == rule, f"{name} [{l},{m}]: rule {result.rule}, expected {rule}")
        require(len(result.witness) == result.value, f"{name} [{l},{m}]: witness size != value")
        require(excessive.verify_covering(g, result.witness, l, m), f"{name} [{l},{m}]: witness does not verify")
        lower = max(chi or coloring.chromatic_index(g), ceil(edge_total / m))
        require(result.value >= lower, f"{name} [{l},{m}]: value {result.value} below bound {lower}")
        return digest(result)

    def digest(result):
        return (result.value, result.rule)

    return Op(f"{name}[{l},{m}]", run, check, digest)


def build_index_zoo(seed: int) -> Workload:
    ops = []
    for name, g, chi, rules in zoo_graphs(seed):
        nu = len(matching.maximum_matching(g))
        if chi is None:
            ops.append(_index_op(name, g, None, None, 1, nu))
        for rule, l, m in windows(g.edge_count, chi, nu, rules) if chi else ():
            ops.append(_index_op(name, g, chi, rule, l, m))
    return Workload("index_zoo", ops)


# ---------------------------------------------------------------------------
# analyze_search


def _minus(n: int, removed: list[tuple[int, int]]) -> SimpleGraph:
    return SimpleGraph(n, frozenset(e for e in combinations(range(n), 2) if e not in removed))


def _analyze_op(name: str, g: SimpleGraph) -> Op:
    nu = len(matching.maximum_matching(g))

    def run():
        compat = analysis.compatibility_report(g, nu)
        coherence = [analysis.coherence_report(g, l, m) for l in range(1, nu + 1) for m in range(l + 1, nu + 1)]
        return compat, coherence

    def check(result):
        _, coherence = result
        for report in coherence:
            l, m = report.l, report.m
            main = excessive.excessive_lm_index(g, l, m).value
            require(report.lhs == main, f"{name} [{l},{m}]: coherence lhs {report.lhs} != index {main}")
            algo = excessive.exc_algorithm(g, l, m).value
            require(algo == main, f"{name} [{l},{m}]: exc_algorithm {algo} != {main}")
            paired = excessive.lm_index_via_pairs(g, l, m)
            require(paired == main, f"{name} [{l},{m}]: lm_index_via_pairs {paired} != {main}")
        return digest(result)

    def digest(result):
        compat, coherence = result
        return (
            json.dumps(analysis.compatibility_report_to_json(compat), sort_keys=True),
            tuple(json.dumps(analysis.coherence_report_to_json(r), sort_keys=True) for r in coherence),
        )

    return Op(name, run, check, digest)


def build_analyze_search(seed: int) -> Workload:
    rng = random.Random(seed)
    fixed = [
        ("petersen", gen.generalized_petersen(5, 2)),
        ("J5", gen.flower_snark(5)),
        ("K8-e", _minus(8, [(0, 1)])),
    ]
    drawn = [(f"gnp7_{i}", gen.gnp(7, rng.uniform(0.5, 0.95), rng)) for i in range(120)]
    return Workload("analyze_search", [_analyze_op(name, g) for name, g in fixed + drawn if g.edges])


# ---------------------------------------------------------------------------
# oracle_sweep

#: seeded 6-vertex samples in one sweep, on top of all 1,100 labelled
#: graphs with at most 5 vertices
SWEEP_SAMPLES = 500
SWEEP_SAMPLES_TRACED = 100


def sweep_scope(config: oracle.SweepConfig) -> int:
    """Labelled graphs a sweep config covers, counted from the config alone."""
    exhaustive = sum(2 ** (n * (n - 1) // 2) for n in range(min(config.max_vertices, config.exhaustive_limit) + 1))
    sampled = max(0, config.max_vertices - config.exhaustive_limit) * config.samples_per_size
    return exhaustive + sampled


def _sweep_op(config: oracle.SweepConfig) -> Op:
    def run():
        return oracle.small_graph_sweep(config)

    def check(records):
        require(not records, f"sweep found {len(records)} discrepancies, first: {records[:1]}")
        return digest(records)

    def digest(records):
        return len(records)

    return Op(f"sweep(samples={config.samples_per_size})", run, check, digest, units=sweep_scope(config))


def build_oracle_sweep(seed: int, traced: bool = False) -> Workload:
    samples = SWEEP_SAMPLES_TRACED if traced else SWEEP_SAMPLES
    config = oracle.SweepConfig(max_vertices=6, max_m=5, seed=seed, samples_per_size=samples, exhaustive_limit=5)
    return Workload("oracle_sweep", [_sweep_op(config)], clear_per_op=False, latency_is_mean=True)


# ---------------------------------------------------------------------------
# cli

#: documented exit codes of the CLI
EXIT_OK, EXIT_INFINITE, EXIT_BUDGET = 0, 2, 3


def _cli_op(name: str, argv: list[str], env: dict, expect_code: int, expect: Callable[[str], None]) -> Op:
    command = [sys.executable, "-m", "excfact.cli", *argv]

    def run():
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=OP_BUDGET_MS / 1000)
        return _outcome(proc.returncode, proc.stdout, proc.stderr)

    def run_traced():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return _outcome(code, out.getvalue(), err.getvalue())

    def _outcome(code, stdout, stderr):
        if code != expect_code:
            raise RuntimeError(f"{name}: exit code {code}, documented {expect_code}: {stderr.strip()[-300:]}")
        return stdout

    def check(stdout):
        expect(stdout)
        return stdout

    return Op(name, run, check, lambda stdout: stdout, run_traced=run_traced)


def _expect_json(name: str, expected: dict) -> Callable[[str], None]:
    def expect(stdout: str) -> None:
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            raise WrongOutput(f"{name}: output is not JSON: {stdout[:200]!r}") from None
        require(got == expected, f"{name}: got {got}, expected {expected}")

    return expect


def _expect_index(name: str, g: SimpleGraph, l: int, m: int, value) -> Callable[[str], None]:
    def expect(stdout: str) -> None:
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            raise WrongOutput(f"{name}: output is not JSON: {stdout[:200]!r}") from None
        require(got.get("format_version") == 1, f"{name}: format_version {got.get('format_version')}")
        want = "infinity" if math.isinf(value) else value
        require(got.get("value") == want, f"{name}: value {got.get('value')}, expected {want}")
        require(got.get("checks") == {"lower_bound": True, "verified": True}, f"{name}: checks {got.get('checks')}")
        if got.get("witness") is not None:
            witness = graphs.covering_from_json(got["witness"])
            require(len(witness) == value, f"{name}: witness size {len(witness)} != {value}")
            require(excessive.verify_covering(g, witness, l, m), f"{name}: witness does not verify")

    return expect


def _expect_dot(name: str, g: SimpleGraph) -> Callable[[str], None]:
    def expect(stdout: str) -> None:
        lines = stdout.strip().splitlines()
        require(lines[:1] == ["graph covering {"] and lines[-1:] == ["}"], f"{name}: not a DOT graph")
        drawn = sum(1 for line in lines if " -- " in line)
        require(drawn == g.edge_count, f"{name}: {drawn} edges drawn, graph has {g.edge_count}")

    return expect


def build_cli(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    zoo = {
        "petersen": gen.generalized_petersen(5, 2),
        "cubic": gen.random_regular(16, 3, rng),
        "gnp": gen.gnp(7, rng.uniform(0.4, 0.7), rng),
    }
    while not zoo["gnp"].edges:
        zoo["gnp"] = gen.gnp(7, rng.uniform(0.4, 0.7), rng)
    files: dict[tuple[str, str], str] = {}
    for name, g in zoo.items():
        for suffix, text in ((".g6", graphs.encode_graph6(g) + "\n"), (".el", graphs.format_edge_list(g))):
            path = workdir / f"{name}{suffix}"
            path.write_text(text)
            files[name, suffix] = str(path)
    src = Path(analysis.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    ops = []
    for name, g in zoo.items():
        nu = len(matching.maximum_matching(g))
        chi = coloring.chromatic_index(g)
        l, m = max(1, g.edge_count // chi), nu
        result = excessive.excessive_lm_index(g, l, m)
        witness_path = workdir / f"{name}.witness.json"
        witness_path.write_text(json.dumps(graphs.covering_to_json(result.witness)))
        compat = analysis.compatibility_report_to_json(analysis.compatibility_report(g, nu))
        coherence = analysis.coherence_report_to_json(analysis.coherence_report(g, 1, nu))
        for fmt in (".el", ".g6"):
            f = files[name, fmt]
            tag = f"{name}{fmt}"
            for method in ("formula", "exc", "oracle"):
                if method == "oracle" and fmt == ".g6":
                    continue  # one oracle run per graph keeps the pass short
                argv = ["index", "--graph", f, "--l", str(l), "--m", str(m), "--method", method, "--witness"]
                ops.append(_cli_op(f"index-{method} {tag}", argv, env, EXIT_OK, _expect_index(tag, g, l, m, result.value)))
            argv = ["index", "--graph", f, "--l", str(nu + 1), "--m", "inf"]
            ops.append(_cli_op(f"index-infinite {tag}", argv, env, EXIT_INFINITE, _expect_index(tag, g, nu + 1, g.edge_count, math.inf)))
            argv = ["analyze", "--graph", f, "--compat", "--max-m", str(nu), "--coherence", "--l", "1", "--m", str(nu)]
            expected = {"format_version": 1, "compatibility": compat, "coherence": coherence}
            ops.append(_cli_op(f"analyze {tag}", argv, env, EXIT_OK, _expect_json(tag, expected)))
            argv = ["render", "--graph", f, "--witness", str(witness_path)]
            ops.append(_cli_op(f"render {tag}", argv, env, EXIT_OK, _expect_dot(tag, g)))
    argv = ["index", "--graph", files["petersen", ".el"], "--l", "4", "--m", "5", "--budget-ms", "0"]
    expected = {"format_version": 1, "outcome": "budget_exceeded", "chromatic_index_bracket": [3, 4]}
    ops.append(_cli_op("index-budget0 petersen.el", argv, env, EXIT_BUDGET, _expect_json("budget0", expected)))
    argv = ["sweep", "--max-vertices", "4", "--max-m", "3", "--seed", str(seed)]
    ops.append(_cli_op("sweep n<=4", argv, env, EXIT_OK, lambda out: require(out == "", f"sweep reported {out[:200]!r}")))
    return Workload("cli", ops, rss_of_children=True)


def build(name: str, seed: int, workdir: Path, traced: bool = False) -> Workload:
    if name == "index_zoo":
        return build_index_zoo(seed)
    if name == "analyze_search":
        return build_analyze_search(seed)
    if name == "oracle_sweep":
        return build_oracle_sweep(seed, traced)
    if name == "cli":
        return build_cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("index_zoo", "analyze_search", "oracle_sweep", "cli")
