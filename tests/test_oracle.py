"""The brute-force layer itself, plus the cross-checking sweep harness."""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

from excfact import EnumerationCapError, InvariantError, SimpleGraph, covering_to_json, parse_graph6, verify_covering
from excfact import excessive as excessive_module
from excfact import oracle as oracle_module
from excfact.analysis import find_incoherence_example
from excfact.families import complete, cycle, empty, star
from excfact.oracle import (
    SweepConfig,
    all_matchings,
    chromatic_index_bruteforce,
    enumerate_labeled_graphs,
    matching_count_by_deletion,
    max_matching_size_bruteforce,
    min_cover_bruteforce,
    random_graph,
    small_graph_sweep,
)


def test_all_matchings_counts(petersen_graph):
    assert len(all_matchings(cycle(4), 2, 2)) == 2
    assert len(all_matchings(complete(3), 1, 1)) == 3
    assert len(all_matchings(petersen_graph, 5, 5)) == 6


def test_all_matchings_canonical_order():
    mats = all_matchings(cycle(5), 1, 2)
    keys = [tuple(m.sorted_edges()) for m in mats]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_all_matchings_cap():
    with pytest.raises(EnumerationCapError):
        all_matchings(complete(8), 1, 4, cap=10)


def test_matching_enumeration_is_not_bounded_by_the_interpreter_stack():
    """The first branch of the search over disjoint edges is as deep as the
    edge count, here well past the recursion limit."""
    pairs = sys.getrecursionlimit() + 500
    g = SimpleGraph(2 * pairs, frozenset((2 * i, 2 * i + 1) for i in range(pairs)))
    with pytest.raises(EnumerationCapError):
        all_matchings(g, 1, pairs, cap=5_000)


def test_matching_count_identity():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(0, 7))
        nonempty = all_matchings(g, 1, g.edge_count or 1)
        assert len(nonempty) == matching_count_by_deletion(g) - 1
        keys = [tuple(m.sorted_edges()) for m in nonempty]
        assert keys == sorted(keys)
        for l in range(1, 4):
            for m in range(l, 4):
                assert all_matchings(g, l, m) == [mat for mat in nonempty if l <= len(mat) <= m]


def test_min_cover_basics(petersen_graph):
    assert min_cover_bruteforce(cycle(4), 1, 2).value == 2
    assert math.isinf(min_cover_bruteforce(star(3), 2, 2).value)
    result = min_cover_bruteforce(petersen_graph, 4, 5)
    assert result.value == 4
    assert verify_covering(petersen_graph, result.witness, 4, 5)
    assert min_cover_bruteforce(empty(3), 1, 2).value == 0


def test_min_cover_reproduces_golden_witnesses():
    """Values and witnesses (matchings and their order) recorded from the
    previous implementation: every labelled graph on at most 4 vertices at
    1 <= l <= m <= 3, and the Petersen graph at [3,5], [4,5] and [5,5]."""
    golden = json.loads((Path(__file__).parent / "data" / "oracle_witnesses.json").read_text())
    assert len(golden) == 459
    for entry in golden:
        result = min_cover_bruteforce(parse_graph6(entry["graph6"]), entry["l"], entry["m"])
        value = "infinity" if math.isinf(result.value) else result.value
        witness = None if result.witness is None else covering_to_json(result.witness)
        assert (value, witness) == (entry["value"], entry["witness"]), entry


def test_min_cover_rejects_unverified_witness(monkeypatch):
    monkeypatch.setattr(oracle_module, "verify_covering", lambda *args: False)
    with pytest.raises(InvariantError):
        min_cover_bruteforce(cycle(4), 1, 2)


def test_one_enumeration_filtered_by_size_gives_every_window_its_candidates():
    """The sweep enumerates a graph's matchings once and filters them by size
    per window; that list equals the window's own enumeration, in order, and
    the cover found from it is the same value, rule and witness."""
    cap = 1_000_000
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            edges = g.sorted_edges()
            masks = oracle_module._matching_masks(edges, 1, 5, cap)
            for l in range(1, 6):
                for m in range(l, 6):
                    candidates = [mask for mask in masks if l <= mask.bit_count() <= m]
                    assert candidates == oracle_module._matching_masks(edges, l, m, cap)
                    alone = min_cover_bruteforce(g, l, m)
                    given = min_cover_bruteforce(g, l, m, candidates=candidates)
                    assert (alone.value, alone.rule) == (given.value, given.rule)
                    if alone.witness is not None:
                        assert covering_to_json(alone.witness) == covering_to_json(given.witness)
                    else:
                        assert given.witness is None


def test_bruteforce_chromatic_index(petersen_graph):
    assert chromatic_index_bruteforce(cycle(5)) == 3
    assert chromatic_index_bruteforce(complete(4)) == 3
    assert chromatic_index_bruteforce(empty(2)) == 0
    assert chromatic_index_bruteforce(petersen_graph) == 4


def test_bruteforce_matching_number_small():
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            eligible = all_matchings(g, 0, n)
            assert max_matching_size_bruteforce(g) == max(len(m) for m in eligible)


def test_sweep_tiny_scopes_clean():
    assert small_graph_sweep(SweepConfig(max_vertices=3, max_m=2)) == []
    assert small_graph_sweep(SweepConfig(max_vertices=4, max_m=4)) == []


def test_sweep_samples_above_exhaustive_limit():
    config = SweepConfig(max_vertices=6, max_m=2, seed=3, samples_per_size=3, exhaustive_limit=4)
    assert small_graph_sweep(config) == []


def test_sweep_shares_each_graphs_work_across_its_windows(monkeypatch):
    """One matching enumeration per graph, and one closed-form index per
    (graph, window): the pairwise route reads the [i,i+1] values already found."""
    calls = {"masks": 0, "formula": 0}
    real_masks, real_formula = oracle_module._matching_masks, excessive_module.excessive_lm_index

    def masks(*args):
        calls["masks"] += 1
        return real_masks(*args)

    def formula(*args):
        calls["formula"] += 1
        return real_formula(*args)

    monkeypatch.setattr(oracle_module, "_matching_masks", masks)
    monkeypatch.setattr(excessive_module, "excessive_lm_index", formula)
    assert small_graph_sweep(SweepConfig(max_vertices=4, max_m=4)) == []
    graphs = sum(2 ** (n * (n - 1) // 2) for n in range(5))
    assert calls == {"masks": graphs, "formula": graphs * 10}


def test_sweep_detects_injected_bug(monkeypatch):
    real = excessive_module.excessive_lm_index
    skew = {"adjacent_only": False}

    def skewed(g, l, m):
        result = real(g, l, m)
        if result.finite and result.value == 2 and (m == l + 1 or not skew["adjacent_only"]):
            return excessive_module.IndexResult(
                3, excessive_module.Covering(result.witness.matchings + result.witness.matchings[:1]),
                result.rule,
            )
        return result

    monkeypatch.setattr(excessive_module, "excessive_lm_index", skewed)
    records = small_graph_sweep(SweepConfig(max_vertices=3, max_m=2))
    assert records
    assert all(set(r) == {"graph6", "l", "m", "main", "oracle", "check"} for r in records)
    # skewed only at [i,i+1]: on wider windows only the pairwise route sees it
    skew["adjacent_only"] = True
    records = small_graph_sweep(SweepConfig(max_vertices=4, max_m=3))
    assert any(r["check"] == "pairs" and r["m"] - r["l"] >= 2 for r in records)


def test_incoherence_search_returns_known_smallest():
    found = find_incoherence_example(max_vertices=6)
    assert found is not None
    from excfact import encode_graph6

    assert encode_graph6(found) == "Es\\_"
