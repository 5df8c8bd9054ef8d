"""Chromatic index, k-colouring search, and the class-size equalizer."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given

from excfact import (
    BudgetExceededError,
    Covering,
    InvariantError,
    Matching,
    ParameterError,
    PreconditionError,
    SimpleGraph,
    chromatic_index,
    covering_to_json,
    equalize,
    find_k_edge_coloring,
    optimal_m_bounded_coloring,
    verify_covering,
)
from excfact import coloring as coloring_module
from excfact.budget import time_budget
from excfact.coloring import _surplus_paths
from excfact.graphs import covering_violations
from excfact.families import complete, cycle, empty, path, star
from excfact.oracle import enumerate_labeled_graphs
from oracles import all_matchings, chromatic_index_bruteforce
from strategies import random_valid_coloring, simple_graphs


def _sizes(colouring: Covering) -> list[int]:
    return [len(cls) for cls in colouring]


def _colouring(*classes) -> Covering:
    return Covering(tuple(Matching(frozenset(cls)) for cls in classes))


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
    assert found is not None and len(found) == 4
    # deterministic, colour order included (Covering equality ignores order)
    assert covering_to_json(find_k_edge_coloring(petersen_graph, 4)) == covering_to_json(found)


def test_coloring_type_rejects_adjacent_same_colour():
    # a colour class is a Matching, so two adjacent edges never share a colour
    with pytest.raises(PreconditionError):
        _colouring({(0, 1), (1, 2)})


@pytest.mark.parametrize(
    "corrupt",
    [
        # an edge never coloured: clear the lowest bit of the first class
        lambda classes, n: (classes[0] & classes[0] - 1,) + classes[1:],
        # a non-edge coloured: set the bit of index n, one past the last edge
        lambda classes, n: classes[:1] + (classes[1] | 1 << n,) + classes[2:],
    ],
    ids=["uncoloured-edge", "non-edge"],
)
def test_find_k_edge_coloring_checks_its_classes_are_the_edge_set(monkeypatch, corrupt):
    """The search returns its classes as bitmasks over edge indices; their
    union must be exactly the indices of the edges."""
    real = coloring_module._color_in_order
    monkeypatch.setattr(coloring_module, "_color_in_order", lambda edges, *args: corrupt(real(edges, *args), len(edges)))
    with pytest.raises(InvariantError, match="edge set"):
        find_k_edge_coloring(path(4), 2)


@given(simple_graphs(max_vertices=7))
def test_found_colourings_cover_the_graph_by_matchings(g):
    d = g.max_degree()
    for k in (d, d + 1):
        found = find_k_edge_coloring(g, k)
        if found is None:  # only a class-two graph lacks a colouring at its maximum degree
            assert k == d and chromatic_index(g) == d + 1
            continue
        assert len(found) == k
        assert covering_violations(g, found, 0, g.edge_count) == []


def test_equalize_checks_every_edge_keeps_its_class_count(monkeypatch):
    # a broken swap that copies (0,1) into the small class instead of moving it
    g = SimpleGraph(4, frozenset({(0, 1), (2, 3)}))
    colouring = _colouring(g.edges, ())
    monkeypatch.setattr("excfact.coloring._surplus_paths", lambda a, b: iter([({(0, 1)}, {(0, 1)})]))
    with pytest.raises(InvariantError, match="class count"):
        equalize(colouring)


def test_equalize_fixed_point():
    colouring = _colouring({(0, 1)}, {(1, 2)})
    assert equalize(colouring) == colouring
    uneven = _colouring({(0, 1), (2, 3)}, {(1, 2)})
    trace: list[int] = []
    assert equalize(uneven, trace=trace) == uneven
    assert trace == []


def test_equalize_returns_a_balanced_colouring_itself():
    # pins the balanced-input fast path: fails on the code before it, which
    # returned an equal rebuilt copy
    colouring = _colouring({(0, 1), (2, 3)}, {(1, 2)})
    assert equalize(colouring) is colouring


def test_surplus_paths_walk_each_component_once():
    # into an empty class every edge is a surplus path, in sorted order
    assert list(_surplus_paths({(4, 5), (2, 3), (0, 6)}, set())) == [
        ({(0, 6)}, set()), ({(2, 3)}, set()), ({(4, 5)}, set())
    ]
    assert list(_surplus_paths(set(), set())) == []
    # an a-b-a path is one component, met from either of its a edges
    assert list(_surplus_paths({(0, 1), (2, 3)}, {(1, 2)})) == [({(0, 1), (2, 3)}, {(1, 2)})]
    # an even cycle has no surplus; the a-b path beside it is balanced
    square = ({(0, 1), (2, 3)}, {(1, 2), (0, 3)})
    assert list(_surplus_paths(square[0] | {(4, 5)}, square[1] | {(5, 6)})) == []


def test_equalize_stops_on_the_budget():
    skewed = _colouring([(2 * i, 2 * i + 1) for i in range(50)], ())
    with time_budget(0), pytest.raises(BudgetExceededError):
        equalize(skewed)


def test_equalize_balances_a_star_colouring():
    # path of 4 edges coloured alternately with colours {1, 2} then colour 2
    # emptied into colour 3 by hand: sizes (2, 2, 0) must become (2, 1, 1)
    skewed = _colouring({(0, 1), (2, 3)}, {(1, 2), (3, 4)}, ())
    trace: list[int] = []
    balanced = equalize(skewed, trace=trace)
    assert sorted(_sizes(balanced)) == [1, 1, 2]
    before = sum(s * s for s in _sizes(skewed))
    assert trace and all(a > b for a, b in zip([before] + trace, trace))


def test_equalized_coloring_sizes():
    assert sorted(_sizes(equalize(find_k_edge_coloring(cycle(4), 2)))) == [2, 2]
    assert sorted(_sizes(equalize(find_k_edge_coloring(cycle(4), 3)))) == [1, 1, 2]
    assert find_k_edge_coloring(cycle(5), 2) is None


def test_equalized_petersen_four_colouring(petersen_graph):
    colouring = equalize(find_k_edge_coloring(petersen_graph, 4))
    assert sorted(_sizes(colouring)) == [3, 4, 4, 4]


def test_equalize_overlapping_petersen_classes_into_a_4_5_covering(petersen_graph):
    # three perfect matchings plus the leftover triple: 18 edge instances in
    # all; equalizing these four classes must land every class on 4 or 5
    # edges, which makes them a [4,5]-covering
    perfect = all_matchings(petersen_graph, 5, 5)
    first_valid = next(
        (i, j, k)
        for i, j, k in combinations(range(len(perfect)), 3)
        if _is_matching(petersen_graph.edges - perfect[i].edges - perfect[j].edges - perfect[k].edges)
    )
    i, j, k = first_valid
    rest = Matching(petersen_graph.edges - perfect[i].edges - perfect[j].edges - perfect[k].edges)
    colouring = Covering((perfect[i], perfect[j], perfect[k], rest))  # the matchings are its classes
    assert sum(_sizes(colouring)) == 18
    balanced = equalize(colouring)
    assert sorted(_sizes(balanced)) == [4, 4, 5, 5]
    assert verify_covering(petersen_graph, balanced, 4, 5)


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
        total, k = sum(_sizes(colouring)), len(colouring)
        trace: list[int] = []
        balanced = equalize(colouring, trace=trace)
        assert len(balanced) == k
        lo, hi = total // k, -(-total // k)
        assert all(lo <= s <= hi for s in _sizes(balanced))
        start = sum(s * s for s in _sizes(colouring))
        assert all(a > b for a, b in zip([start] + trace, trace))
        merged = Counter(e for cls in balanced for e in cls.edges)
        assert merged == Counter(e for cls in colouring for e in cls.edges)


def test_optimal_m_bounded_basics(petersen_graph):
    colouring = optimal_m_bounded_coloring(star(3), 1)
    assert _sizes(colouring) == [1, 1, 1]
    colouring = optimal_m_bounded_coloring(petersen_graph, 5)
    assert sorted(_sizes(colouring)) == [3, 4, 4, 4]
    colouring = optimal_m_bounded_coloring(petersen_graph, 3)
    assert _sizes(colouring) == [3, 3, 3, 3, 3]
    with pytest.raises(ParameterError):
        optimal_m_bounded_coloring(empty(2), 1)
    with pytest.raises(ParameterError):
        optimal_m_bounded_coloring(star(3), 0)


def test_coloring_json_is_canonical(petersen_graph):
    colouring = equalize(find_k_edge_coloring(petersen_graph, 4))
    blob = covering_to_json(colouring)
    assert len(blob["matchings"]) == 4
    for cls in blob["matchings"]:
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
                assert len(colouring) == expected
                assert max(_sizes(colouring)) <= m


def test_search_depth_is_not_bounded_by_the_interpreter_stack():
    # the search depth is one node per edge, far beyond the recursion limit
    assert chromatic_index(path(3000)) == 2
    assert chromatic_index(cycle(1001)) == 3
    colouring = find_k_edge_coloring(path(3000), 2)
    assert colouring is not None and verify_covering(path(3000), colouring, 1499, 1500)
    assert sorted(_sizes(colouring)) == [1499, 1500]
