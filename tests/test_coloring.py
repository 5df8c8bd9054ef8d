"""Chromatic index, k-colouring search, and the class-size equalizer."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest

from excfact import (
    Covering,
    InvariantError,
    Matching,
    ParameterError,
    PreconditionError,
    SimpleGraph,
    chromatic_index,
    equalize,
    find_k_edge_coloring,
    optimal_m_bounded_coloring,
    verify_covering,
)
from excfact.coloring import EdgeColoring, _surplus_path
from excfact.families import complete, cycle, empty, path, star
from excfact.oracle import enumerate_labeled_graphs
from oracles import all_matchings, chromatic_index_bruteforce
from strategies import random_valid_coloring


def test_chromatic_index_named_graphs(petersen_graph):
    assert chromatic_index(cycle(4)) == 2
    assert chromatic_index(complete(3)) == 3
    assert chromatic_index(complete(4)) == 3
    assert chromatic_index(cycle(5)) == 3
    assert chromatic_index(star(3)) == 3
    assert chromatic_index(empty(3)) == 0
    assert chromatic_index(petersen_graph) == 4  # class 2


def test_chromatic_index_against_bruteforce():
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            assert chromatic_index(g) == chromatic_index_bruteforce(g)


def test_find_coloring_below_degree_fails():
    assert find_k_edge_coloring(star(3), 2) is None


def test_petersen_is_class_two(petersen_graph):
    assert find_k_edge_coloring(petersen_graph, 3) is None
    found = find_k_edge_coloring(petersen_graph, 4)
    assert found is not None and found.k == 4
    assert find_k_edge_coloring(petersen_graph, 4) == found  # deterministic


def test_coloring_type_rejects_adjacent_same_colour():
    h = SimpleGraph(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(PreconditionError):
        EdgeColoring(h, (frozenset({(0, 1), (1, 2)}),))
    with pytest.raises(PreconditionError):
        EdgeColoring(h, (frozenset({(0, 1)}),))  # (1,2) never coloured
    with pytest.raises(PreconditionError):
        EdgeColoring(h, (frozenset({(0, 1)}), frozenset({(1, 2)}), frozenset({(0, 2)})))  # not an edge


def test_equalize_checks_every_edge_keeps_its_class_count(monkeypatch):
    # a broken swap that copies (0,1) into the small class instead of moving it
    g = SimpleGraph(4, frozenset({(0, 1), (2, 3)}))
    colouring = EdgeColoring(g, (g.edges, frozenset()))
    monkeypatch.setattr("excfact.coloring._surplus_path", lambda a, b: ({(0, 1)}, {(0, 1)}))
    with pytest.raises(InvariantError, match="class count"):
        equalize(colouring)


def test_equalize_fixed_point():
    h = SimpleGraph(3, frozenset({(0, 1), (1, 2)}))
    colouring = EdgeColoring(h, (frozenset({(0, 1)}), frozenset({(1, 2)})))
    assert equalize(colouring) == colouring
    uneven = EdgeColoring(SimpleGraph(4, h.edges | {(2, 3)}), (frozenset({(0, 1), (2, 3)}), frozenset({(1, 2)})))
    trace: list[int] = []
    assert equalize(uneven, trace=trace) == uneven
    assert trace == []


def test_equalize_returns_a_balanced_colouring_itself():
    # pins the balanced-input fast path: fails on the code before it, which
    # returned an equal rebuilt copy
    h = SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    colouring = EdgeColoring(h, (frozenset({(0, 1), (2, 3)}), frozenset({(1, 2)})))
    assert equalize(colouring) is colouring


def test_surplus_path_into_an_empty_class_is_the_smallest_edge():
    assert _surplus_path({(4, 5), (2, 3), (0, 6)}, set()) == ({(0, 6)}, set())
    assert _surplus_path({(1, 2)}, set()) == ({(1, 2)}, set())
    assert _surplus_path(set(), set()) is None


def test_equalize_balances_a_star_colouring():
    # path of 4 edges coloured alternately with colours {1, 2} then colour 2
    # emptied into colour 3 by hand: sizes (2, 2, 0) must become (2, 1, 1)
    g = SimpleGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}))
    skewed = EdgeColoring(g, (frozenset({(0, 1), (2, 3)}), frozenset({(1, 2), (3, 4)}), frozenset()))
    trace: list[int] = []
    balanced = equalize(skewed, trace=trace)
    assert sorted(balanced.class_sizes()) == [1, 1, 2]
    before = sum(s * s for s in skewed.class_sizes())
    assert trace and all(a > b for a, b in zip([before] + trace, trace))


def test_equalized_coloring_sizes():
    assert sorted(equalize(find_k_edge_coloring(cycle(4), 2)).class_sizes()) == [2, 2]
    assert sorted(equalize(find_k_edge_coloring(cycle(4), 3)).class_sizes()) == [1, 1, 2]
    assert find_k_edge_coloring(cycle(5), 2) is None


def test_equalized_petersen_four_colouring(petersen_graph):
    colouring = equalize(find_k_edge_coloring(petersen_graph, 4))
    assert sorted(colouring.class_sizes()) == [3, 4, 4, 4]


def test_equalize_induced_petersen_multigraph(petersen_graph):
    # three perfect matchings plus the leftover triple: 18 instances in all;
    # equalizing a 4-colouring must land every class on 4 or 5 edges and the
    # projected covering becomes a [4,5]-covering
    perfect = all_matchings(petersen_graph, 5, 5)
    first_valid = next(
        (i, j, k)
        for i, j, k in combinations(range(len(perfect)), 3)
        if _is_matching(petersen_graph.edges - perfect[i].edges - perfect[j].edges - perfect[k].edges)
    )
    i, j, k = first_valid
    rest = Matching(petersen_graph.edges - perfect[i].edges - perfect[j].edges - perfect[k].edges)
    covering = Covering((perfect[i], perfect[j], perfect[k], rest))
    colouring = EdgeColoring(petersen_graph, tuple(m.edges for m in covering))  # the matchings are its classes
    assert sum(colouring.class_sizes()) == 18
    balanced = equalize(colouring)
    assert sorted(balanced.class_sizes()) == [4, 4, 5, 5]
    projected = balanced.covering
    assert verify_covering(petersen_graph, projected, 4, 5)


def _is_matching(edges) -> bool:
    try:
        Matching(frozenset(edges))
    except PreconditionError:
        return False
    return True


def test_equalize_random_instances():
    rng = random.Random(2024)
    for _ in range(120):
        colouring = random_valid_coloring(rng)
        total, k = sum(colouring.class_sizes()), colouring.k
        trace: list[int] = []
        balanced = equalize(colouring, trace=trace)
        assert balanced.graph == colouring.graph and balanced.k == k
        lo, hi = total // k, -(-total // k)
        assert all(lo <= s <= hi for s in balanced.class_sizes())
        start = sum(s * s for s in colouring.class_sizes())
        assert all(a > b for a, b in zip([start] + trace, trace))
        merged = Counter(e for cls in balanced.classes for e in cls)
        assert merged == Counter(e for cls in colouring.classes for e in cls)


def test_optimal_m_bounded_basics(petersen_graph):
    colouring = optimal_m_bounded_coloring(star(3), 1)
    assert colouring.k == 3 and colouring.class_sizes() == [1, 1, 1]
    colouring = optimal_m_bounded_coloring(petersen_graph, 5)
    assert colouring.k == 4 and sorted(colouring.class_sizes()) == [3, 4, 4, 4]
    colouring = optimal_m_bounded_coloring(petersen_graph, 3)
    assert colouring.k == 5 and colouring.class_sizes() == [3, 3, 3, 3, 3]
    with pytest.raises(ParameterError):
        optimal_m_bounded_coloring(empty(2), 1)
    with pytest.raises(ParameterError):
        optimal_m_bounded_coloring(star(3), 0)


def test_coloring_json_is_canonical(petersen_graph):
    from excfact.coloring import coloring_to_json

    colouring = equalize(find_k_edge_coloring(petersen_graph, 4))
    blob = coloring_to_json(colouring)
    assert blob["k"] == 4 and len(blob["classes"]) == 4
    for cls in blob["classes"]:
        assert cls == sorted(cls)
        assert all(u < v for u, v in cls)


def test_optimal_m_bounded_uses_exact_colour_count():
    for n in range(2, 5):
        for g in enumerate_labeled_graphs(n):
            if not g.edges:
                continue
            for m in range(1, 5):
                colouring = optimal_m_bounded_coloring(g, m)
                expected = max(chromatic_index(g), -(-g.edge_count // m))
                assert colouring.k == expected
                assert max(colouring.class_sizes()) <= m


def test_search_depth_is_not_bounded_by_the_interpreter_stack():
    # the search depth is one node per edge, far beyond the recursion limit
    assert chromatic_index(path(3000)) == 2
    assert chromatic_index(cycle(1001)) == 3
    colouring = find_k_edge_coloring(path(3000), 2)
    assert colouring is not None and colouring.graph == path(3000) and colouring.k == 2
    assert sorted(colouring.class_sizes()) == [1499, 1500]
