"""The brute-force layer itself, plus the cross-checking sweep harness."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings

from excfact import (
    EnumerationCapError,
    InvariantError,
    ParameterError,
    SimpleGraph,
    covering_to_json,
    encode_graph6,
    parse_graph6,
    verify_covering,
)
from excfact import excessive as excessive_module
from excfact import oracle as oracle_module
from excfact.families import complete, cycle, empty, path, star
from excfact.oracle import SweepConfig, enumerate_labeled_graphs, min_cover_bruteforce, random_graph, small_graph_sweep
from oracles import all_matchings, chromatic_index_bruteforce, matching_count_by_deletion, max_matching_size_bruteforce
from strategies import simple_graphs

FIND_INCOHERENCE = Path(__file__).parent.parent / "scripts" / "find_incoherence.py"


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


def test_greedy_cover_matches_a_full_scan_greedy():
    """The greedy incumbent's scan stops early at a candidate whose gain no
    later one can beat; over every labelled graph on at most 5 vertices and
    every window up to m = 5 it picks what a full scan picks."""

    def full_scan(masks, full):
        picks, covered = [], 0
        while covered != full:
            gains = [(mask & ~covered).bit_count() for mask in masks]
            picks.append(gains.index(max(gains)))  # the first candidate of largest gain
            covered |= masks[picks[-1]]
        return picks

    compared = 0
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            edges = g.sorted_edges()
            full = (1 << len(edges)) - 1
            masks = oracle_module._matching_masks(edges, 1, 5, 1_000_000)
            for l in range(1, 6):
                for m in range(l, 6):
                    candidates = [mask for mask in masks if l <= mask.bit_count() <= m]
                    union = 0
                    for mask in candidates:
                        union |= mask
                    if union == full:
                        assert oracle_module._greedy_cover(candidates, full) == full_scan(candidates, full)
                        compared += 1
    assert compared == 7_900


def test_one_enumeration_filtered_by_size_gives_every_window_its_candidates():
    """The sweep enumerates a graph's matchings once and filters them by size
    per window; that list equals the window's own enumeration, in order, and
    the cover found from it is the same value, rule and witness.  Windows
    with equal lists get the same value, rule and witness from their own
    searches, so the sweep may search each distinct list once."""
    cap = 1_000_000
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            edges = g.sorted_edges()
            masks = oracle_module._matching_masks(edges, 1, 5, cap)
            by_list: dict[tuple[int, ...], tuple] = {}
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
                    witness = None if given.witness is None else covering_to_json(given.witness)
                    result = (given.value, given.rule, witness)
                    assert by_list.setdefault(tuple(candidates), result) == result, (encode_graph6(g), l, m)


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


@pytest.mark.parametrize(
    "fields",
    [{"max_m": 0}, {"max_m": -1}, {"max_vertices": -2}, {"samples_per_size": -1}, {"exhaustive_limit": -1}],
)
def test_sweep_config_rejects_scopes_that_compare_nothing(fields):
    with pytest.raises(ParameterError):
        SweepConfig(**fields)


def test_sweep_config_accepts_the_smallest_scopes():
    assert small_graph_sweep(SweepConfig(max_vertices=0, max_m=1, samples_per_size=0, exhaustive_limit=0)) == []


def test_sweep_shares_each_graphs_work_across_its_windows(monkeypatch):
    """One matching enumeration per relabelling key, one closed-form index per
    (graph, window): the pairwise route reads the [i,i+1] values already found,
    and one brute-force cover per distinct candidate list of a key's first graph."""
    calls = {"masks": 0, "formula": 0, "cover": 0}
    real_masks, real_formula = oracle_module._matching_masks, excessive_module.excessive_lm_index
    real_cover = oracle_module.min_cover_bruteforce

    def masks(*args):
        calls["masks"] += 1
        return real_masks(*args)

    def formula(*args):
        calls["formula"] += 1
        return real_formula(*args)

    def cover(*args, **kwargs):
        calls["cover"] += 1
        return real_cover(*args, **kwargs)

    monkeypatch.setattr(oracle_module, "_matching_masks", masks)
    monkeypatch.setattr(excessive_module, "excessive_lm_index", formula)
    monkeypatch.setattr(oracle_module, "min_cover_bruteforce", cover)
    assert small_graph_sweep(SweepConfig(max_vertices=4, max_m=4)) == []
    graphs = sum(2 ** (n * (n - 1) // 2) for n in range(5))
    # 24 relabelling keys; one search per graph and window would be graphs * 10 = 760
    assert calls == {"masks": 24, "formula": graphs * 10, "cover": 65}


def test_sweep_catches_a_wrong_oracle_value_in_every_window_sharing_it(monkeypatch):
    """A reference value that is off by one for one candidate list of the one
    graph the oracle runs on for a relabelling key is reported for every
    labelled graph with that key, in each window with that list, and nowhere
    else."""
    target = path(4)
    edges = target.sorted_edges()
    masks = oracle_module._matching_masks(edges, 1, 4, 1_000_000)
    lists = {(l, m): tuple(x for x in masks if l <= x.bit_count() <= m) for l in range(1, 5) for m in range(l, 5)}
    skewed_list = lists[1, 2]  # every matching
    sharing = {window for window, candidates in lists.items() if candidates == skewed_list}
    assert sharing == {(1, 2), (1, 3), (1, 4)}
    key = oracle_module._relabelling_key(target)
    copies = {encode_graph6(g) for g in enumerate_labeled_graphs(4) if oracle_module._relabelling_key(g) == key}
    assert len(copies) == 6  # half of the 12 labelled paths
    real_cover = oracle_module.min_cover_bruteforce
    ran_on = set()

    def cover(g, l, m, *, candidates):
        result = real_cover(g, l, m, candidates=candidates)
        if oracle_module._relabelling_key(g) == key:
            ran_on.add(encode_graph6(g))
            if (l, m) == (1, 2):
                return excessive_module.IndexResult(
                    result.value + 1,
                    excessive_module.Covering(result.witness.matchings + result.witness.matchings[:1]),
                    result.rule,
                )
        return result

    monkeypatch.setattr(oracle_module, "min_cover_bruteforce", cover)
    records = small_graph_sweep(SweepConfig(max_vertices=4, max_m=4))
    assert len(ran_on) == 1 and ran_on <= copies
    assert {(r["graph6"], r["l"], r["m"]) for r in records} == {(code, l, m) for code in copies for l, m in sharing}
    assert all(r["oracle"] == r["main"] + 1 for r in records)


#: seed 1 draws K6 four times among its 40 six-vertex samples
REPEATING = SweepConfig(max_vertices=6, max_m=3, seed=1, samples_per_size=40)
WINDOWS = [(l, m) for l in range(1, 4) for m in range(l, 4)]


def test_sweep_graphs_keep_their_repeated_samples():
    """The sweep's graph sequence, which the witness digest also reads, still
    holds every draw; only the sweep skips repeats."""
    codes = [encode_graph6(g) for g in oracle_module._sweep_graphs(REPEATING)]
    assert (len(codes), len(set(codes)), codes.count(encode_graph6(complete(6)))) == (1140, 1137, 4)
    codes = [encode_graph6(g) for g in oracle_module._sweep_graphs(SweepConfig(6, 5, seed=1, samples_per_size=500))]
    assert (len(codes), len(set(codes))) == (1600, 1506)


def test_sweep_runs_every_route_once_per_distinct_graph(monkeypatch):
    calls = {"formula": [], "exc": [], "cover": []}
    real_formula, real_exc = excessive_module.excessive_lm_index, excessive_module.exc_algorithm
    real_cover = oracle_module.min_cover_bruteforce

    def counting(name, real):
        def wrapper(g, l, m, **kwargs):
            calls[name].append((encode_graph6(g), l, m))
            return real(g, l, m, **kwargs)

        return wrapper

    monkeypatch.setattr(excessive_module, "excessive_lm_index", counting("formula", real_formula))
    monkeypatch.setattr(excessive_module, "exc_algorithm", counting("exc", real_exc))
    monkeypatch.setattr(oracle_module, "min_cover_bruteforce", counting("cover", real_cover))
    assert small_graph_sweep(REPEATING) == []
    distinct = {encode_graph6(g) for g in oracle_module._sweep_graphs(REPEATING)}
    for name in ("formula", "exc"):
        assert sorted(calls[name]) == sorted((code, l, m) for code in distinct for l, m in WINDOWS), name
    assert len(set(calls["cover"])) == len(calls["cover"])
    keys = {oracle_module._relabelling_key(parse_graph6(code)) for code in distinct}
    covered = {code for code, _, _ in calls["cover"]}
    assert len(covered) == len(keys)
    assert {oracle_module._relabelling_key(parse_graph6(code)) for code in covered} == keys


def test_sweep_reports_a_wrong_value_on_a_repeated_sample_once_per_window(monkeypatch):
    target = complete(6)
    real_exc = excessive_module.exc_algorithm

    def exc(g, l, m):
        result = real_exc(g, l, m)
        if g == target:
            return excessive_module.IndexResult(
                result.value + 1, excessive_module.Covering(result.witness.matchings + result.witness.matchings[:1]),
                result.rule,
            )
        return result

    monkeypatch.setattr(excessive_module, "exc_algorithm", exc)
    records = small_graph_sweep(REPEATING)
    assert sorted((r["graph6"], r["l"], r["m"], r["check"]) for r in records) == [
        (encode_graph6(target), l, m, "exc") for l, m in WINDOWS
    ]


def _key_graph(key: tuple[int, int]) -> nx.Graph:
    n, mask = key
    h = nx.empty_graph(n)
    h.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if mask >> (i * n + j) & 1)
    return h


def _nx_graph(g: SimpleGraph) -> nx.Graph:
    h = nx.empty_graph(g.vertex_count)
    h.add_edges_from(g.edges)
    return h


def test_relabelling_key_is_an_isomorphic_copy_on_every_small_graph():
    counts = []
    for n in range(6):
        keys = set()
        for g in enumerate_labeled_graphs(n):
            key = oracle_module._relabelling_key(g)
            assert nx.is_isomorphic(_key_graph(key), _nx_graph(g)), encode_graph6(g)
            keys.add(key)
        counts.append(len(keys))
    # never below the isomorphism classes (OEIS A000088: 1, 1, 2, 4, 11, 34)
    assert counts == [1, 1, 2, 4, 16, 58]


@settings(max_examples=200, deadline=None)
@given(simple_graphs(max_vertices=8))
def test_relabelling_key_is_an_isomorphic_copy(g):
    assert nx.is_isomorphic(_key_graph(oracle_module._relabelling_key(g)), _nx_graph(g))


def test_sweep_shares_exact_references(monkeypatch):
    """Every window's shared reference equals the brute-force value of the
    graph itself: the exc route, replaced by that value, never disagrees."""
    real_cover, real_rows = oracle_module.min_cover_bruteforce, oracle_module._reference_rows
    filled = []

    def rows(g, max_m):
        filled.append(g)
        return real_rows(g, max_m)

    monkeypatch.setattr(excessive_module, "exc_algorithm", lambda g, l, m: real_cover(g, l, m))
    monkeypatch.setattr(oracle_module, "_reference_rows", rows)
    assert small_graph_sweep(SweepConfig(6, 5, seed=1, samples_per_size=500)) == []
    assert len(filled) == 228  # relabelling keys among the 1,506 distinct graphs


def test_sweep_reports_records_under_a_key_that_merges_non_isomorphic_graphs(monkeypatch):
    """C6 and 2K3 have one degree sequence, but their [3,3]-indices are 2 and
    infinity: a key that merges them makes the sweep report records."""
    two_triangles = SimpleGraph(6, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}))
    monkeypatch.setattr(oracle_module, "_sweep_graphs", lambda config: iter([cycle(6), two_triangles]))
    config = SweepConfig(6, 3)
    assert small_graph_sweep(config) == []

    def degree_sequence(g):
        return g.vertex_count, tuple(sorted(sum(v in e for e in g.edges) for v in range(g.vertex_count)))

    monkeypatch.setattr(oracle_module, "_relabelling_key", degree_sequence)
    records = small_graph_sweep(config)
    assert {r["graph6"] for r in records} == {encode_graph6(two_triangles)}
    assert ("infinity", 2) in {(r["main"], r["oracle"]) for r in records if (r["l"], r["m"]) == (3, 3)}


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
    spec = importlib.util.spec_from_file_location("find_incoherence", FIND_INCOHERENCE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    found = script.find_incoherence_example(max_vertices=6)
    assert found is not None
    assert encode_graph6(found) == "Es\\_"
