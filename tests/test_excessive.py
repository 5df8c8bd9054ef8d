"""The index computations: closed form, two-branch algorithm, verification."""

from __future__ import annotations

import copy
import gc
import hashlib
import json
import math
import pickle
import random
import tracemalloc
from collections import Counter
from math import ceil
from pathlib import Path

import pytest

from excfact import (
    BudgetExceededError,
    Covering,
    INFINITY,
    Matching,
    InvariantError,
    ParameterError,
    PreconditionError,
    SimpleGraph,
    chromatic_index,
    coherence_report,
    compatibility_index,
    covering_to_json,
    exc_algorithm,
    excessive_lm_index,
    excessive_m_index,
    is_lm_coverable,
    lm_index_via_pairs,
    maximum_matching,
    optimal_m_bounded_coloring,
    parse_graph6,
    verify_covering,
)
from excfact import coloring as coloring_module
from excfact import matching as matching_module
from excfact.analysis import coherence_report_to_json
from excfact.budget import time_budget
from excfact import excessive as excessive_module
from excfact.excessive import (
    RULE_FORMULA_CEIL,
    RULE_FORMULA_CHI,
    RULE_FORMULA_EXC_L,
    RULE_LEMMA_CF,
    RULE_NOT_COVERABLE,
    RULE_SEARCH,
    IndexResult,
    index_result_to_json,
)
from excfact.families import complete, cycle, empty, path, petersen, star
from excfact.graphs import covering_violations
from excfact.oracle import (
    SweepConfig,
    enumerate_labeled_graphs,
    min_cover_bruteforce,
    random_graph,
    small_graph_sweep,
)
from memos import excfact_memos
from oracles import chromatic_index_bruteforce


def _small_graphs(max_vertices):
    for n in range(max_vertices + 1):
        yield from enumerate_labeled_graphs(n)


def test_verify_covering_window():
    g = cycle(4)
    partition = Covering(
        (Matching(frozenset({(0, 1), (2, 3)})), Matching(frozenset({(1, 2), (0, 3)})))
    )
    assert verify_covering(g, partition, 2, 2)
    assert not verify_covering(g, partition, 3, 3)
    assert not verify_covering(g, Covering(partition.matchings[:1]), 1, 2)  # misses edges
    with pytest.raises(ParameterError):
        verify_covering(g, partition, 2, 1)


def test_covering_violations_text():
    g = cycle(4)
    partition = (Matching(frozenset({(0, 1), (2, 3)})), Matching(frozenset({(1, 2), (0, 3)})))
    assert covering_violations(g, Covering(partition), 1, 2) == []
    assert covering_violations(g, Covering(partition + (Matching(frozenset({(0, 2)})),)), 1, 2) == [
        "matching 2 uses non-edges [(0, 2)]"
    ]
    assert covering_violations(g, Covering(partition), 3, 3) == [
        "matching 0 has size 2 outside [3, 3]",
        "matching 1 has size 2 outside [3, 3]",
    ]
    assert covering_violations(g, Covering(partition[:1]), 1, 2) == ["edges not covered: [(0, 3), (1, 2)]"]
    assert covering_violations(g, Covering((Matching(frozenset({(0, 2), (1, 3)})),)), 1, 1) == [
        "matching 0 uses non-edges [(0, 2), (1, 3)]",
        "matching 0 has size 2 outside [1, 1]",
        "edges not covered: [(0, 1), (0, 3), (1, 2), (2, 3)]",
    ]


# sha256 over one JSON line [value, rule, witness] per graph, window and
# route below: it pins the witnesses that the equalizer's walk order gives.
# A change that moves witnesses regenerates it and keeps the values line of
# scripts/witness_digest.py
WITNESS_SHA256 = "a00699afbc9f18f11327ad78af480723312b33de17e640da6f335af9b6cc8089"


def test_witnesses_of_larger_graphs_keep_their_hash():
    # equalize swaps many edges into empty classes on these graphs, which the
    # digest's small graphs rarely need
    digest = hashlib.sha256()
    for g in (path(40), cycle(31), complete(9), petersen(), star(12)):
        for l in range(1, 5):
            for m in range(l, 5):
                for route in (excessive_lm_index, exc_algorithm):
                    r = route(g, l, m)
                    witness = None if r.witness is None else covering_to_json(r.witness)
                    digest.update(json.dumps([r.value, r.rule, witness]).encode() + b"\n")
    assert digest.hexdigest() == WITNESS_SHA256


def test_index_result_consistency_checks():
    with pytest.raises(ValueError) as infinite:
        IndexResult(INFINITY, Covering(()), RULE_NOT_COVERABLE)
    with pytest.raises(ValueError) as cardinality:
        IndexResult(2, Covering(()), RULE_SEARCH)
    with pytest.raises(ValueError) as rule:
        IndexResult(1, Covering((Matching(frozenset({(0, 1)})),)), "BOGUS")
    assert infinite.type is cardinality.type is rule.type is PreconditionError


def test_m_index_petersen_values(petersen_graph):
    assert excessive_m_index(petersen_graph, 3).value == 5  # 15/3 >= chi'
    assert excessive_m_index(petersen_graph, 3).rule == RULE_LEMMA_CF
    assert min_cover_bruteforce(petersen_graph, 3, 3).value == 5
    four = excessive_m_index(petersen_graph, 4)
    assert four.value == 4 and four.rule == RULE_SEARCH
    five = excessive_m_index(petersen_graph, 5)
    assert five.value == 5 and five.rule == RULE_SEARCH
    assert min_cover_bruteforce(petersen_graph, 5, 5).value == 5


def test_m_index_star_not_coverable():
    result = excessive_m_index(star(3), 2)
    assert math.isinf(result.value)
    assert result.rule == RULE_NOT_COVERABLE and result.witness is None


def test_m_index_edgeless():
    result = excessive_m_index(empty(3), 2)
    assert result.value == 0 and len(result.witness) == 0


def test_edgeless_outputs_come_from_the_general_path():
    """chi' = 0 on an edgeless graph, so the ceiling branch answers 0 with an
    empty covering; every route reports exactly that."""
    for n in (0, 1, 3):
        g = empty(n)
        assert chromatic_index_bruteforce(g) == 0 and compatibility_index(g) == 0
        for l, m in ((1, 1), (1, 3), (2, 5)):
            for route in (excessive_lm_index, exc_algorithm):
                result = route(g, l, m)
                assert (result.value, result.rule, covering_to_json(result.witness)) == (
                    0, RULE_FORMULA_CEIL, {"matchings": []}
                )
            assert index_result_to_json(g, l, m, excessive_lm_index(g, l, m)) == {
                "value": 0,
                "rule": RULE_FORMULA_CEIL,
                "witness": {"matchings": []},
                "checks": {"lower_bound": True, "verified": True},
            }
            assert coherence_report_to_json(coherence_report(g, l, m)) == {
                "l": l, "m": m, "coherent": True, "lhs": 0, "rhs": 0, "characterization_holds": False,
            }
            oracle = min_cover_bruteforce(g, l, m)
            assert (oracle.value, oracle.rule, covering_to_json(oracle.witness)) == (
                0, RULE_SEARCH, {"matchings": []}
            )


def test_m_index_witnesses_have_exact_size(petersen_graph):
    for m in (3, 4, 5):
        result = excessive_m_index(petersen_graph, m)
        assert verify_covering(petersen_graph, result.witness, m, m)
        assert len(result.witness) == result.value


def test_m_index_matches_oracle_small():
    for g in _small_graphs(4):
        for m in range(1, 5):
            assert excessive_m_index(g, m).value == min_cover_bruteforce(g, m, m).value


def test_lm_index_petersen(petersen_graph):
    result = excessive_lm_index(petersen_graph, 4, 5)
    assert result.value == 4
    # 15/4 falls below l = 4, so the fixed-size branch applies
    assert result.rule == RULE_FORMULA_EXC_L
    assert verify_covering(petersen_graph, result.witness, 4, 5)
    assert all(len(m) in (4, 5) for m in result.witness)
    middle = excessive_lm_index(petersen_graph, 3, 5)
    assert middle.value == 4 and middle.rule == RULE_FORMULA_CHI


def test_chromatic_index_branch_witness_is_the_memoised_colouring(petersen_graph):
    # the equalized chi'-colouring is the witness itself, not a copy of it
    result = excessive_lm_index(petersen_graph, 3, 5)
    assert result.rule == RULE_FORMULA_CHI
    assert result.witness is coloring_module._chi_coloring(petersen_graph)


def test_lm_index_equals_m_index_on_diagonal(petersen_graph):
    for g in list(_small_graphs(4)) + [petersen_graph]:
        for m in range(1, 5):
            assert excessive_lm_index(g, m, m).value == excessive_m_index(g, m).value


def test_lm_index_parameter_errors():
    with pytest.raises(ParameterError):
        excessive_lm_index(cycle(4), 0, 2)
    with pytest.raises(ParameterError):
        excessive_lm_index(cycle(4), 3, 2)
    with pytest.raises(ParameterError):
        excessive_m_index(cycle(4), 0)


def test_lm_index_matches_oracle_small():
    for g in _small_graphs(4):
        for l in range(1, 5):
            for m in range(l, 5):
                main = excessive_lm_index(g, l, m)
                assert main.value == min_cover_bruteforce(g, l, m).value
                if main.finite:
                    assert verify_covering(g, main.witness, l, m)


def test_exc_algorithm_matches_formula_small(petersen_graph):
    for g in _small_graphs(4):
        for l in range(1, 5):
            for m in range(l, 5):
                left = exc_algorithm(g, l, m)
                right = excessive_lm_index(g, l, m)
                assert left.value == right.value
                if left.finite:
                    assert verify_covering(g, left.witness, l, m)
    result = exc_algorithm(petersen_graph, 4, 5)
    assert result.value == 4 and verify_covering(petersen_graph, result.witness, 4, 5)


def test_exc_algorithm_infinite_branch():
    # both bounded colour counts collapse to 3, then the size-2 index is infinite
    result = exc_algorithm(star(3), 2, 3)
    assert math.isinf(result.value) and result.rule == RULE_NOT_COVERABLE


def test_pairwise_reduction(petersen_graph):
    assert lm_index_via_pairs(petersen_graph, 3, 5) == 4
    single = SimpleGraph(2, frozenset({(0, 1)}))
    assert lm_index_via_pairs(single, 1, 2) == 1
    with pytest.raises(ParameterError):
        lm_index_via_pairs(single, 2, 2)
    for g in _small_graphs(4):
        for l in range(1, 4):
            for m in range(l + 1, 5):
                assert lm_index_via_pairs(g, l, m) == excessive_lm_index(g, l, m).value


def test_lower_bound_and_finiteness_properties():
    for g in _small_graphs(4):
        chi = chromatic_index(g)
        for l in range(1, 5):
            for m in range(l, 5):
                result = excessive_lm_index(g, l, m)
                assert result.finite == is_lm_coverable(g, l)
                if result.finite and g.edges:
                    assert result.value >= max(chi, -(-g.edge_count // m))


def test_window_monotonicity():
    for g in _small_graphs(4):
        values = {
            (l, m): excessive_lm_index(g, l, m).value
            for l in range(1, 5)
            for m in range(l, 5)
        }
        for (l, m), v in values.items():
            for (l2, m2), v2 in values.items():
                if l2 <= l and m <= m2:
                    assert v2 <= v  # wider window never increases the index


def test_upper_bound_versus_fixed_sizes():
    for g in _small_graphs(4):
        for l in range(1, 5):
            for m in range(l, 5):
                best_fixed = min(excessive_m_index(g, i).value for i in range(l, m + 1))
                assert excessive_lm_index(g, l, m).value <= best_fixed


def test_high_ratio_regime_collapses_to_fixed_size():
    # above |E|/chi', widening by one is free and the fixed-size index is monotone
    for g in _small_graphs(4):
        if not g.edges:
            continue
        chi = chromatic_index(g)
        for i in range(1, 6):
            if i * chi < g.edge_count:
                continue
            assert excessive_lm_index(g, i, i + 1).value == excessive_m_index(g, i).value
            assert excessive_m_index(g, i + 1).value >= excessive_m_index(g, i).value


def test_unbounded_above_window(petersen_graph):
    # m = |E| is an exact stand-in for an unbounded upper size (clamped to
    # keep the window nonempty when the graph has fewer than l edges)
    for g in list(_small_graphs(4)) + [petersen_graph]:
        if not g.edges:
            continue
        chi = chromatic_index(g)
        for l in range(1, 5):
            result = excessive_lm_index(g, l, max(l, g.edge_count))
            if g.edge_count >= l * chi:
                assert result.value == chi
            else:
                assert result.value == excessive_m_index(g, l).value


def test_boundary_ratios_agree():
    # |E| = m * chi' on C4 with m = 2: ceiling and chromatic branches coincide
    g = cycle(4)
    assert excessive_lm_index(g, 1, 2).value == 2 == chromatic_index(g)
    # |E| = l * chi' on C6 with l = 3: chromatic and fixed-size branches coincide
    h = cycle(6)
    result = excessive_lm_index(h, 3, 4)
    assert result.value == 2 == excessive_m_index(h, 3).value


def test_deep_sparse_windows_do_not_recurse_per_edge():
    """Large sparse graphs whose colouring search once recursed once per edge
    and raised RecursionError."""
    rows, cols = 23, 24
    grid = SimpleGraph(rows * cols, frozenset(
        [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
        + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    ))
    assert excessive_lm_index(cycle(1000), 1, 500).value == 2
    assert excessive_lm_index(path(1100), 1, 549).value == 3
    assert excessive_lm_index(grid, 1, 264).value == 5


def test_ten_thousand_edge_windows_run_inside_the_budget():
    """The equalizer swaps many paths per pair of classes, so both routes
    build these ceiling witnesses in well under a second; an equalizer that
    moves one edge per pass takes over 10 s here and exceeds the budget."""
    for g, value in ((path(10_000), 2000), (cycle(10_001), 2001)):
        with time_budget(5_000):
            closed = excessive_lm_index(g, 1, 5)
            routed = exc_algorithm(g, 1, 5)
        assert closed.value == routed.value == value
        assert verify_covering(g, closed.witness, 1, 5)
        assert verify_covering(g, routed.witness, 1, 5)


def test_result_json_shape(petersen_graph):
    result = excessive_lm_index(petersen_graph, 4, 5)
    blob = index_result_to_json(petersen_graph, 4, 5, result)
    assert blob["value"] == 4 and blob["rule"] == RULE_FORMULA_EXC_L
    assert blob["checks"] == {"lower_bound": True, "verified": True}
    assert len(blob["witness"]["matchings"]) == 4
    hidden = index_result_to_json(petersen_graph, 4, 5, result, include_witness=False)
    assert hidden["witness"] is None and hidden["checks"]["verified"]
    infinite = excessive_lm_index(star(3), 2, 2)
    blob = index_result_to_json(star(3), 2, 2, infinite)
    assert blob["value"] == "infinity" and blob["witness"] is None


def test_main_path_reproduces_golden_witnesses():
    """Values, rules and witnesses (matchings and their order) recorded from
    the previous implementation: the [m]-index for m = 1..3 on 60 seeded
    random 7-vertex graphs and for m = 1..5 on the Petersen graph (35 of
    these windows take the SEARCH rule)."""
    golden = json.loads((Path(__file__).parent / "data" / "main_witnesses.json").read_text())
    assert len(golden) == 185
    assert sum(entry.get("rule") == RULE_SEARCH for entry in golden) == 35
    for entry in golden:
        result = excessive_m_index(parse_graph6(entry["graph6"]), entry["m"])
        value = "infinity" if math.isinf(result.value) else result.value
        witness = None if result.witness is None else covering_to_json(result.witness)
        assert (value, result.rule, witness) == (entry["value"], entry["rule"], entry["witness"]), entry


def _result_blob(result: IndexResult) -> dict:
    return {
        "value": "infinity" if math.isinf(result.value) else result.value,
        "rule": result.rule,
        "witness": None if result.witness is None else covering_to_json(result.witness),
    }


def _takes_m_bounded_branch(g: SimpleGraph, l: int, m: int) -> bool:
    chi = chromatic_index(g)
    return bool(g.edges) and max(chi, ceil(g.edge_count / m)) < max(chi, ceil(g.edge_count / l))


def test_lm_windows_reproduce_golden_witnesses():
    """Values, rules and witnesses of both [l,m] routes recorded from the
    previous implementation, for every window 1 <= l <= m <= nu of Petersen,
    K5, K6, C7, the flower snark J5 and 40 seeded random 7-vertex graphs."""
    golden = json.loads((Path(__file__).parent / "data" / "lm_witnesses.json").read_text())
    assert len(golden) == 272
    rules = {entry["excessive_lm_index"]["rule"] for entry in golden}
    assert {RULE_FORMULA_CHI, RULE_FORMULA_CEIL, RULE_FORMULA_EXC_L} <= rules
    above_chi = 0
    for entry in golden:
        g, l, m = parse_graph6(entry["graph6"]), entry["l"], entry["m"]
        assert _result_blob(excessive_lm_index(g, l, m)) == entry["excessive_lm_index"], entry
        assert _result_blob(exc_algorithm(g, l, m)) == entry["exc_algorithm"], entry
        if _takes_m_bounded_branch(g, l, m) and ceil(g.edge_count / m) > chromatic_index(g):
            above_chi += 1
    assert above_chi == 46  # m-bounded witnesses with more than chi' colours


def test_exc_algorithm_witness_is_the_optimal_m_bounded_covering():
    """The m-bounded branch of the two-branch route takes its witness from the
    public optimal m-bounded colouring; the two coverings must be equal,
    matchings in the same order."""
    rng = random.Random(4)
    graphs = [petersen()] + [random_graph(rng, rng.choice((6, 7, 8))) for _ in range(60)]
    above_chi_seen = set()
    for g in graphs:
        for m in range(1, 6):
            for l in range(1, m + 1):
                if not _takes_m_bounded_branch(g, l, m):
                    continue
                result = exc_algorithm(g, l, m)
                expected = optimal_m_bounded_coloring(g, m)
                assert covering_to_json(result.witness) == covering_to_json(expected), (g, l, m)
                above_chi_seen.add(ceil(g.edge_count / m) > chromatic_index(g))
    assert above_chi_seen == {False, True}  # both k = chi' and k > chi' occur


def test_m_bounded_colouring_above_chi_is_padded_inside_the_budget():
    """A random cubic graph on 50 vertices (75 edges, chi' = 3, nu = 25) at
    [1, 19] takes the m-bounded branch with 4 colours.  Its 3-colouring is
    found at once; a backtracking search for a 4-colouring runs for seconds,
    so the 4-colouring must come from padding the 3-colouring."""
    g = parse_graph6((Path(__file__).parent / "data" / "cubic50_class1.g6").read_text())
    with time_budget(2000):
        result = exc_algorithm(g, 1, 19)
    assert (g.edge_count, chromatic_index(g), len(maximum_matching(g))) == (75, 3, 25)
    assert (result.value, result.rule) == (4, RULE_FORMULA_CEIL)
    assert verify_covering(g, result.witness, 1, 19)
    assert covering_to_json(result.witness) == covering_to_json(optimal_m_bounded_coloring(g, 19))


def test_cold_pass_colours_each_graph_once(monkeypatch):
    """Every colouring is read from or padded from one memoised
    chi'-colouring, so a cold pass searches each graph at the maximum
    degree once, and at one more colour only when that search failed.
    Memos live on the graph object, so the graphs are kept alive and
    counted by object: equal graphs drawn twice are two graphs."""
    for f in excfact_memos():
        f.cache_clear()
    searched = Counter()
    failed = set()
    real = coloring_module.find_k_edge_coloring

    def counted(g, k):
        searched[id(g), k] += 1
        found = real(g, k)
        if found is None:
            failed.add((id(g), k))
        return found

    monkeypatch.setattr(coloring_module, "find_k_edge_coloring", counted)
    rng = random.Random(11)
    graphs = [random_graph(rng, rng.randint(4, 7)) for _ in range(40)]
    for g in graphs:
        for l in range(1, 6):
            for m in range(l, 6):
                excessive_lm_index(g, l, m)
                exc_algorithm(g, l, m)
        for m in range(1, 6):
            if g.edges:
                optimal_m_bounded_coloring(g, m)
    assert searched and max(searched.values()) == 1
    assert set(searched) == {(id(g), g.max_degree()) for g in graphs} | {(i, k + 1) for i, k in failed}


def test_missing_colouring_raises_invariant_error(monkeypatch):
    """When no colouring is found at the maximum degree, the search at one
    more colour inside ``_chi_coloring`` is the guard: its failure would
    contradict Vizing, so every reader gets a colouring or an
    InvariantError, never a None to unpack."""
    memos = excfact_memos()
    for f in memos:
        f.cache_clear()
    monkeypatch.setattr(coloring_module, "find_k_edge_coloring", lambda g, k: None)
    try:  # no 2-colouring of C4 is found, and no 3-colouring either
        for route in (
            lambda: excessive_lm_index(cycle(4), 1, 2),
            lambda: exc_algorithm(cycle(4), 1, 4),
            lambda: excessive_m_index(cycle(4), 1),
            lambda: optimal_m_bounded_coloring(cycle(4), 2),
        ):
            with pytest.raises(InvariantError):
                route()
    finally:
        for f in memos:
            f.cache_clear()


def test_unverified_witness_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(excessive_module, "verify_covering", lambda *args: False)
    excessive_m_index.cache_clear()
    with pytest.raises(InvariantError):
        excessive_lm_index(cycle(4), 1, 2)
    with pytest.raises(InvariantError):  # the sweep relies on the routes' own checks
        small_graph_sweep(SweepConfig(max_vertices=2, max_m=1))


def _drop_one_edge(c: Covering) -> Covering:
    first, *rest = c.matchings
    return Covering((Matching(frozenset(first.sorted_edges()[1:])), *rest))


@pytest.mark.parametrize(
    "target, route, rule",
    [
        pytest.param("_ceil_witness", lambda g: excessive_m_index(g, 1), RULE_LEMMA_CF, id="ceil-m"),
        pytest.param("_ceil_witness", lambda g: excessive_lm_index(g, 1, 2), RULE_FORMULA_CEIL, id="ceil-lm"),
        pytest.param("_ceil_witness", lambda g: exc_algorithm(g, 1, 1), RULE_FORMULA_EXC_L, id="ceil-exc"),
        pytest.param("_search_m_index", lambda g: excessive_m_index(g, 5), RULE_SEARCH, id="search-m"),
        pytest.param("_search_m_index", lambda g: excessive_lm_index(g, 4, 5), RULE_FORMULA_EXC_L, id="search-lm"),
        pytest.param("_search_m_index", lambda g: exc_algorithm(g, 4, 5), RULE_FORMULA_EXC_L, id="search-exc"),
    ],
)
def test_one_verification_guards_every_pass_through_route(monkeypatch, target, route, rule):
    """Every route that returns an [m]-index witness relies on the one
    verification inside ``excessive_m_index``: a witness with one edge
    dropped, from either construction, must raise on each of them."""
    assert route(petersen()).rule == rule
    for f in excfact_memos():
        f.cache_clear()
    real = getattr(excessive_module, target)

    def broken(g, m):
        found = real(g, m)
        if target == "_ceil_witness":
            return _drop_one_edge(found)
        k, witness = found
        return k, _drop_one_edge(witness)

    monkeypatch.setattr(excessive_module, target, broken)
    with pytest.raises(InvariantError):
        route(petersen())


@pytest.mark.parametrize(
    "route, rule",
    [
        pytest.param(chromatic_index, None, id="chromatic-index"),
        pytest.param(lambda g: excessive_lm_index(g, 3, 4), RULE_FORMULA_CHI, id="formula-chi"),
        pytest.param(lambda g: exc_algorithm(g, 3, 4), RULE_FORMULA_CHI, id="exc-chi"),
        pytest.param(lambda g: excessive_m_index(g, 4), RULE_SEARCH, id="search-chi"),
    ],
)
def test_the_chi_colouring_is_verified_where_it_is_built(monkeypatch, route, rule):
    """Every route that takes the memoised chi'-colouring on without
    verifying it again relies on the one verification inside
    ``_chi_coloring``: a colouring with one edge dropped must raise there,
    on each of them."""
    result = route(petersen())  # chi' = 4, and each window is answered by the chi'-colouring
    assert result == 4 if rule is None else (result.value, result.rule) == (4, rule)
    real = coloring_module.find_k_edge_coloring

    def broken(g, k):
        found = real(g, k)
        return None if found is None else _drop_one_edge(found)

    monkeypatch.setattr(coloring_module, "find_k_edge_coloring", broken)
    memos = excfact_memos()
    for f in memos:
        f.cache_clear()
    try:
        with pytest.raises(InvariantError, match="chi'-colouring"):
            route(petersen())
    finally:
        for f in memos:
            f.cache_clear()


def test_windows_answered_by_the_chi_colouring_or_no_covering_cost_arithmetic(monkeypatch):
    """Once ``chromatic_index`` has built the chi'-colouring, a FORMULA_CHI
    window and an ``exc_algorithm`` window answered at chi' colours make no
    ``verify_covering`` call, and a window with no [l,m]-covering constructs
    no ``IndexResult``, on every window l <= m <= 6 of two graphs."""
    verified, built = [], []
    real_verify, real_init = excessive_module.verify_covering, IndexResult.__init__
    for module in (coloring_module, excessive_module):
        monkeypatch.setattr(module, "verify_covering", lambda *args: verified.append(args) or real_verify(*args))
    monkeypatch.setattr(IndexResult, "__init__", lambda self, *args: built.append(args) or real_init(self, *args))
    seen = Counter()
    for g in (petersen(), cycle(5)):
        chromatic_index(g)
        for l in range(1, 7):
            for m in range(l, 7):
                for route in (excessive_lm_index, exc_algorithm):
                    verified.clear()
                    built.clear()
                    result = route(g, l, m)
                    if result.rule == RULE_FORMULA_CHI:
                        seen["chi"] += 1
                        assert verified == [], (route.__name__, l, m)
                    elif not result.finite:
                        seen["not coverable"] += 1
                        assert built == [], (route.__name__, l, m)
    # Petersen (|E| = 15, chi' = 4, nu = 5): l <= 3 < 4 <= m, and l = m = 6;
    # C5 (|E| = 5, chi' = 3, nu = 2): l = 1 < m, and 3 <= l; each on both routes
    assert seen == {"chi": 2 * (9 + 5), "not coverable": 2 * (1 + 10)}


def test_memos_hold_per_graph_values_only():
    """A SEARCH-rule index leaves no per-window or per-class entries behind:
    every entry in the graph's table is one of the four per-graph memos,
    called with nothing or with one m, and the colouring search's admission
    memo is dropped when the search returns."""
    per_graph = {
        maximum_matching,
        matching_module._nu_coverable,
        coloring_module._chi_coloring,
        excessive_m_index,
    }
    g = petersen()
    result = excessive_m_index(g, 5)
    assert (result.value, result.rule) == (5, RULE_SEARCH)
    for f, *args in g._memo:
        assert f in per_graph, f
        assert len(args) <= 1 and all(type(a) is int and 1 <= a <= g.edge_count for a in args), (f, args)
    assert {(f.__name__, *args) for f, *args in g._memo} == {
        ("maximum_matching",),
        ("_nu_coverable",),
        ("_chi_coloring",),  # chi', and the colouring the SEARCH regime tries first
        ("excessive_m_index", 5),
    }


def _color_in_order_raises(*args):
    raise AssertionError("the colouring search ran")


def _equalize_raises(*args):
    raise AssertionError("the ceiling witness was equalized")


@pytest.mark.parametrize(
    "make, m", [(lambda: cycle(5), 2), (lambda: cycle(7), 3), (petersen, 4)], ids=["C5-2", "C7-3", "petersen-4"]
)
def test_search_window_takes_the_extended_chi_colouring(monkeypatch, make, m):
    """When every class of the equalized chi'-colouring extends to an
    [m]-matching, those extensions are the witness and no colouring search
    runs: any covering by k [m]-matchings is a proper k-colouring, so chi'
    is the least k."""
    monkeypatch.setattr(excessive_module, "_color_in_order", _color_in_order_raises)
    g = make()
    chi = chromatic_index(g)
    result = excessive_m_index(g, m)
    assert (result.value, result.rule) == (chi, RULE_SEARCH)
    assert g.edge_count < m * chi and verify_covering(g, result.witness, m, m)
    classes = coloring_module._chi_coloring(g).matchings
    assert all(cls.edges <= found.edges for cls, found in zip(classes, result.witness.matchings))


def test_search_window_above_chi_still_searches(monkeypatch):
    """Petersen at m = 5 has value 5 > chi' = 4, so some class of its
    4-colouring extends to no perfect matching, and the search runs at
    k = 4 and k = 5."""
    calls = []
    real = excessive_module._color_in_order
    monkeypatch.setattr(excessive_module, "_color_in_order", lambda *args: calls.append(args[2]) or real(*args))
    g = petersen()
    result = excessive_m_index(g, 5)
    assert (chromatic_index(g), result.value, result.rule) == (4, 5, RULE_SEARCH)
    assert calls == [4, 5]


@pytest.mark.parametrize(
    "make, m",
    [(lambda: cycle(12), 2), (lambda: cycle(12), 3), (lambda: path(3000), 1)],
    ids=["C12-2", "C12-3", "P3000-1"],
)
def test_ceiling_witness_cuts_classes_that_m_divides(monkeypatch, make, m):
    """When m divides every class of the equalized chi'-colouring, the
    witness is each class cut, in sorted edge order, into runs of m edges;
    nothing is padded or equalized again."""
    monkeypatch.setattr(excessive_module, "equalize", _equalize_raises)
    g = make()
    result = excessive_m_index(g, m)
    classes = coloring_module._chi_coloring(g).matchings
    runs = [edges[i : i + m] for cls in classes for edges in [cls.sorted_edges()] for i in range(0, len(edges), m)]
    assert (result.value, result.rule) == (g.edge_count // m, RULE_LEMMA_CF)
    assert [found.sorted_edges() for found in result.witness.matchings] == runs


def test_ceiling_witness_equalizes_when_m_leaves_a_remainder(monkeypatch):
    """path(40) has classes of 20 and 19 edges, which 3 does not divide."""
    calls = []
    real = excessive_module.equalize
    monkeypatch.setattr(excessive_module, "equalize", lambda c: calls.append(c) or real(c))
    g = path(40)
    result = excessive_m_index(g, 3)
    sizes = sorted(len(cls) for cls in coloring_module._chi_coloring(g).matchings)
    assert sizes == [19, 20] and len(calls) == 1
    assert (result.value, result.rule) == (13, RULE_LEMMA_CF)
    assert all(len(found) == 3 for found in result.witness.matchings)


def test_memo_entries_die_with_their_graph():
    """Each graph holds its own memo entries, so a cold 2,000-graph sweep
    leaves nothing behind once its graphs are gone."""
    for f in excfact_memos():
        f.cache_clear()
    config = SweepConfig(max_vertices=5, max_m=1, seed=2, samples_per_size=500, exhaustive_limit=1)
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        assert small_graph_sweep(config) == []
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_equal_but_distinct_graphs_compute_their_own_values():
    first, second = petersen(), petersen()
    assert first == second and first is not second
    expected = (chromatic_index(first), excessive_m_index(first, 5))
    misses = coloring_module._chi_coloring.cache_info().misses, excessive_m_index.cache_info().misses
    assert (chromatic_index(second), excessive_m_index(second, 5)) == expected
    assert (coloring_module._chi_coloring.cache_info().misses, excessive_m_index.cache_info().misses) == (
        misses[0] + 1,
        misses[1] + 1,
    )


def test_cache_clear_makes_the_next_call_on_a_live_graph_a_miss():
    """A copy is equal, hashes and prints alike, and starts with its own empty table."""
    g = petersen()
    value = excessive_m_index(g, 5)
    assert excessive_m_index(g, 5) is value
    excessive_m_index.cache_clear()
    assert tuple(excessive_m_index.cache_info()) == (0, 0, 0)
    assert excessive_m_index(g, 5) == value
    assert excessive_m_index(g, 5) == value
    assert tuple(excessive_m_index.cache_info()) == (1, 1, 1)
    for twin in (copy.copy(g), pickle.loads(pickle.dumps(g))):
        assert (twin, hash(twin), repr(twin)) == (g, hash(g), repr(g))
        assert excessive_m_index(twin, 5) == value
    assert tuple(excessive_m_index.cache_info()) == (1, 3, 3)


def test_budget_abort_in_chromatic_index_stores_nothing():
    """Petersen needs the exhaustive 3-colouring search; aborting it leaves
    only the maximum matching, which completed, on the graph."""
    g = petersen()
    maximum_matching(g)
    size = coloring_module._chi_coloring.cache_info().currsize
    with pytest.raises(BudgetExceededError), time_budget(0):
        chromatic_index(g)
    assert {key[0] for key in g._memo} == {maximum_matching}
    assert coloring_module._chi_coloring.cache_info().currsize == size
    assert chromatic_index(g) == 4


def _generalized_petersen(n, k):
    return SimpleGraph(2 * n, {(i, (i + 1) % n) for i in range(n)} | {(i, n + i) for i in range(n)}
                       | {(n + i, n + (i + k) % n) for i in range(n)})


def _flower_snark(k):
    # star i: centre 4i, leaves 4i+1 (the k-cycle), 4i+2 and 4i+3 (one 2k-cycle with a twist)
    edges = set()
    for i in range(k):
        j = (i + 1) % k
        edges |= {(4 * i, 4 * i + 1), (4 * i, 4 * i + 2), (4 * i, 4 * i + 3), (4 * i + 1, 4 * j + 1)}
        twist = 0 if j else 1
        edges |= {(4 * i + 2, 4 * j + 2 + twist), (4 * i + 3, 4 * j + 3 - twist)}
    return SimpleGraph(4 * k, edges)


def _grid(rows, cols):
    return SimpleGraph(rows * cols, {(v, v + 1) for v in range(rows * cols) if (v + 1) % cols}
                       | {(v, v + cols) for v in range(rows * cols - cols)})


@pytest.mark.parametrize(
    "g, chi",
    [
        (_generalized_petersen(200, 2), 3),  # GP(n, k) other than the Petersen graph: class 1 (Castagna-Prins)
        (_generalized_petersen(101, 3), 3),
        (_flower_snark(11), 4),  # flower snarks: class 2 (Isaacs)
        (_flower_snark(13), 4),
        (_grid(20, 20), 4),  # bipartite: chi' = Delta (Konig)
        (_grid(15, 40), 4),
    ],
    ids=["GP(200,2)", "GP(101,3)", "J11", "J13", "grid20x20", "grid15x40"],
)
def test_known_families_agree_at_the_ceiling_the_ratio_and_past_nu(g, chi):
    assert chromatic_index(g) == chi
    edges, nu = g.edge_count, len(maximum_matching(g))
    for l, m in ((1, edges // chi), (edges // chi, -(-edges // chi)), (nu + 1, nu + 2)):
        formula, two_branch = excessive_lm_index(g, l, m), exc_algorithm(g, l, m)
        assert formula.value == two_branch.value
        assert formula.finite == (l <= nu)
        for result in (formula, two_branch):
            assert result.witness is None or verify_covering(g, result.witness, l, m)
