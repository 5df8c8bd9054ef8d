"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  Every criterion is exact (no tolerances on values); the stated
wall-clock budgets are asserted as upper bounds.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from excfact import (
    chromatic_index,
    coherence_report,
    compatibility_function,
    compatibility_index,
    equalize,
    exc_algorithm,
    excessive_lm_index,
    excessive_m_index,
    format_edge_list,
    maximum_matching,
    optimal_m_bounded_coloring,
    parse_graph6,
    verify_covering,
)
from excfact.families import petersen
from excfact.oracle import enumerate_labeled_graphs, min_cover_bruteforce, random_graph
from oracles import all_matchings, max_matching_size_bruteforce
from strategies import random_valid_coloring

FIXTURE = Path(__file__).parent / "data" / "incoherent_2_3.g6"


def _report(number: int, name: str, failures: list[str], elapsed: float, budget: float) -> None:
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[criterion {number:02d}] {status} {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:10])
    assert elapsed < budget, f"criterion {number}: took {elapsed:.2f}s, budget {budget}s"


def _graphs_up_to(max_vertices: int):
    for n in range(max_vertices + 1):
        yield from enumerate_labeled_graphs(n)


def test_criterion_01_petersen_facts():
    start = time.monotonic()
    failures: list[str] = []
    g = petersen()
    if chromatic_index(g) != 4:
        failures.append(f"chromatic index {chromatic_index(g)} != 4")
    result = excessive_lm_index(g, 4, 5)
    if result.value != 4:
        failures.append(f"[4,5]-index {result.value} != 4")
    elif not verify_covering(g, result.witness, 4, 5) or len(result.witness) != 4:
        failures.append("[4,5] witness invalid")
    elif not all(len(m) in (4, 5) for m in result.witness):
        failures.append("[4,5] witness has a matching outside sizes {4, 5}")
    if compatibility_index(g) != 4:
        failures.append(f"com {compatibility_index(g)} != 4")
    for m in range(1, 5):
        if compatibility_function(g, m) != m:
            failures.append(f"f({m}) != {m}")
    if compatibility_function(g, 5) != 4:
        failures.append(f"f(5) {compatibility_function(g, 5)} != 4")
    _report(1, "petersen facts", failures, time.monotonic() - start, budget=10.0)


def test_criterion_02_high_ratio_regime_closed_form():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        chi = chromatic_index(g)
        for m in range(1, 6):
            if g.edge_count < m * chi:
                continue
            result = excessive_m_index(g, m)
            expected = math.ceil(g.edge_count / m)
            if result.value != expected:
                failures.append(f"{g}: [{m}]-index {result.value} != {expected}")
            elif not verify_covering(g, result.witness, m, m):
                failures.append(f"{g}: [{m}] witness invalid")
    _report(2, "ceiling formula in the high-ratio regime", failures, time.monotonic() - start, budget=60.0)


def test_criterion_03_closed_form_matches_oracle():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        for l in range(1, 6):
            for m in range(l, 6):
                main = excessive_lm_index(g, l, m).value
                reference = min_cover_bruteforce(g, l, m).value
                if main != reference:
                    failures.append(f"{g} [{l},{m}]: formula {main} != oracle {reference}")
    _report(3, "closed form vs brute-force cover", failures, time.monotonic() - start, budget=600.0)


def test_criterion_04_algorithm_agrees_everywhere():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        for l in range(1, 6):
            for m in range(l, 6):
                algo = exc_algorithm(g, l, m)
                formula = excessive_lm_index(g, l, m)
                reference = min_cover_bruteforce(g, l, m)
                if not (algo.value == formula.value == reference.value):
                    failures.append(
                        f"{g} [{l},{m}]: exc {algo.value}, formula {formula.value}, oracle {reference.value}"
                    )
                elif algo.finite and not verify_covering(g, algo.witness, l, m):
                    failures.append(f"{g} [{l},{m}]: exc witness invalid")
    _report(4, "two-branch algorithm agreement", failures, time.monotonic() - start, budget=600.0)


def test_criterion_05_equalizer_postconditions():
    start = time.monotonic()
    failures: list[str] = []
    rng = random.Random(20240607)
    for case in range(500):
        colouring = random_valid_coloring(rng, max_vertices=12)
        sizes = [len(cls) for cls in colouring]
        total, k = sum(sizes), len(colouring)
        trace: list[int] = []
        balanced = equalize(colouring, trace=trace)
        lo, hi = total // k, math.ceil(total / k)
        balanced_sizes = [len(cls) for cls in balanced]
        if len(balanced) != k:
            failures.append(f"case {case}: colour count changed")
        if not all(lo <= s <= hi for s in balanced_sizes):
            failures.append(f"case {case}: sizes {balanced_sizes} outside [{lo}, {hi}]")
        merged = Counter(e for cls in balanced for e in cls.edges)
        if merged != Counter(e for cls in colouring for e in cls.edges):
            failures.append(f"case {case}: edge multiset changed")
        steps = [sum(s * s for s in sizes)] + trace
        if not all(a > b for a, b in zip(steps, steps[1:])):
            failures.append(f"case {case}: squared-size measure did not strictly decrease")
    _report(5, "equalizer on 500 random instances", failures, time.monotonic() - start, budget=60.0)


def test_criterion_06_optimal_bounded_coloring_exact():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        if not g.edges:
            continue
        for m in range(1, 6):
            colouring = optimal_m_bounded_coloring(g, m)
            expected = max(chromatic_index(g), math.ceil(g.edge_count / m))
            if len(colouring) != expected:
                failures.append(f"{g} m={m}: used {len(colouring)} colours, expected {expected}")
            if max(len(cls) for cls in colouring) > m:
                failures.append(f"{g} m={m}: class larger than {m}")
    _report(6, "optimal size-bounded colouring", failures, time.monotonic() - start, budget=60.0)


def test_criterion_07_compatibility_function_monotone():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        if not g.edges:
            continue
        values = [compatibility_function(g, m) for m in range(1, 7)]
        if values != sorted(values):
            failures.append(f"{g}: f values {values} not nondecreasing")
    _report(7, "compatibility function nondecreasing", failures, time.monotonic() - start, budget=60.0)


def test_criterion_08_coherence_characterization():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        for l in range(1, 6):
            for m in range(l, 6):
                try:
                    report = coherence_report(g, l, m)
                except AssertionError:
                    failures.append(f"{g} [{l},{m}]: characterization mismatch")
                    continue
                if report.coherent != (report.lhs == report.rhs):
                    failures.append(f"{g} [{l},{m}]: inconsistent report")
    fixture = parse_graph6(FIXTURE.read_text())
    if fixture.vertex_count > 8:
        failures.append("fixture larger than 8 vertices")
    if excessive_lm_index(fixture, 2, 3).value != 3:
        failures.append("fixture [2,3]-index != 3")
    if excessive_m_index(fixture, 2).value != 4 or excessive_m_index(fixture, 3).value != 4:
        failures.append("fixture fixed-size indices != 4")
    if coherence_report(fixture, 2, 3).coherent:
        failures.append("fixture unexpectedly coherent")
    _report(8, "coherence biconditional + fixture", failures, time.monotonic() - start, budget=600.0)


def test_criterion_09_matching_oracle_equivalence():
    start = time.monotonic()
    failures: list[str] = []
    for g in _graphs_up_to(5):
        if len(maximum_matching(g)) != max_matching_size_bruteforce(g):
            failures.append(f"{g}: matching sizes disagree")
    rng = random.Random(1234)
    for case in range(1000):
        g = random_graph(rng, rng.randint(1, 12))
        if len(maximum_matching(g)) != max_matching_size_bruteforce(g):
            failures.append(f"random case {case}: matching sizes disagree")
    if len(all_matchings(petersen(), 5, 5)) != 6:
        failures.append("petersen perfect matching count != 6")
    _report(9, "matching vs brute force", failures, time.monotonic() - start, budget=120.0)


def test_criterion_10_cli_determinism(tmp_path):
    start = time.monotonic()
    failures: list[str] = []
    graph = tmp_path / "petersen.el"
    graph.write_text(format_edge_list(petersen()))
    witness = tmp_path / "witness.json"
    commands = [
        ["index", "--graph", str(graph), "--l", "4", "--m", "5", "--witness"],
        ["index", "--graph", str(graph), "--l", "3", "--m", "inf"],
        ["analyze", "--graph", str(graph), "--compat", "--max-m", "5"],
        ["analyze", "--graph", str(FIXTURE), "--coherence", "--l", "2", "--m", "3"],
        ["sweep", "--max-vertices", "4", "--max-m", "3", "--seed", "11"],
        ["render", "--graph", str(graph), "--witness", str(witness)],
    ]

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "excfact.cli", *argv],
            capture_output=True,
            text=True,
            timeout=600,
        )

    witness.write_text(run(commands[0]).stdout)
    for argv in commands:
        first, second = run(argv), run(argv)
        if first.returncode != second.returncode or first.stdout != second.stdout:
            failures.append(f"{argv[0]}: runs differ")
        if first.returncode != 0:
            failures.append(f"{argv[0]}: unexpected exit {first.returncode}")
    _report(10, "CLI byte-identical reruns", failures, time.monotonic() - start, budget=120.0)
