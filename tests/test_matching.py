"""Maximum matching (including blossoms) against brute-force ground truth."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from excfact import (
    BudgetExceededError,
    Matching,
    ParameterError,
    PreconditionError,
    SimpleGraph,
    extend_to_lm_matching,
    is_lm_coverable,
    maximum_matching,
)
from excfact import matching as matching_module
from excfact.budget import time_budget
from excfact.families import cycle, empty, path, petersen, star
from excfact.oracle import enumerate_labeled_graphs, random_graph
from oracles import all_matchings, max_matching_size_bruteforce
from strategies import simple_graphs


def test_empty_graph():
    assert maximum_matching(empty(4)) == Matching(frozenset())


def test_isolated_vertices_root_no_augmenting_search(monkeypatch):
    """Each augmenting search allocates per-vertex arrays, so rooting one at
    every isolated vertex made a sparse graph quadratic in its vertex count."""
    roots = []
    real = matching_module._try_augment
    monkeypatch.setattr(
        matching_module, "_try_augment", lambda root, adj, match: roots.append(root) or real(root, adj, match)
    )
    g = SimpleGraph(10_000, frozenset({(0, 9_999), (1, 2), (2, 3)}))
    assert len(maximum_matching(g)) == 2 and roots == [3]


def test_even_cycle_has_perfect_matching():
    assert len(maximum_matching(cycle(4))) == 2


def test_petersen_matching_number(petersen_graph):
    assert len(maximum_matching(petersen_graph)) == 5
    assert max_matching_size_bruteforce(petersen_graph) == 5


def test_blossom_handles_odd_components():
    # two triangles joined by a bridge force blossom contractions
    g = SimpleGraph(6, frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}))
    assert len(maximum_matching(g)) == max_matching_size_bruteforce(g) == 3


def test_matches_bruteforce_exhaustively_small():
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            assert len(maximum_matching(g)) == max_matching_size_bruteforce(g)


@given(simple_graphs(max_vertices=10))
def test_matches_bruteforce_random(g):
    found = maximum_matching(g)
    assert found.edges <= g.edges
    assert len(found) == max_matching_size_bruteforce(g)


def test_maximum_matching_is_deterministic(petersen_graph):
    assert maximum_matching(petersen_graph) == maximum_matching(petersen_graph)


def _largest_extension(g: SimpleGraph, n: Matching) -> int:
    """Largest size of a matching of ``g`` that contains ``n``."""
    sizes = range(len(n), g.edge_count + 1)
    return max(s for s in sizes if extend_to_lm_matching(g, n, s, s) is not None)


def test_forced_empty_reduces_to_maximum(petersen_graph):
    assert _largest_extension(petersen_graph, Matching(frozenset())) == 5


def test_forced_star_edge():
    assert _largest_extension(star(3), Matching(frozenset({(0, 1)}))) == 1


def test_every_petersen_edge_extends_to_perfect(petersen_graph):
    perfect = all_matchings(petersen_graph, 5, 5)
    for e in petersen_graph.sorted_edges():
        extended = extend_to_lm_matching(petersen_graph, Matching(frozenset({e})), 5, 5)
        assert extended in perfect and e in extended.edges


def test_forced_requires_subgraph():
    with pytest.raises(PreconditionError):
        extend_to_lm_matching(cycle(4), Matching(frozenset({(0, 2)})), 1, 2)


@given(simple_graphs(max_vertices=7))
def test_forced_monotone_under_restriction(g):
    base = maximum_matching(g)
    edges = base.sorted_edges()
    values = [_largest_extension(g, Matching(frozenset(edges[:i]))) for i in range(len(edges) + 1)]
    assert all(a >= b for a, b in zip(values, values[1:]))  # larger forced set, smaller value
    assert values[0] == len(base)


def test_extends_window_and_membership():
    assert extend_to_lm_matching(cycle(6), Matching(frozenset({(0, 1)})), 3, 3) is not None
    assert extend_to_lm_matching(star(3), Matching(frozenset({(0, 1)})), 2, 3) is None
    big = maximum_matching(cycle(6))
    assert extend_to_lm_matching(cycle(6), big, 1, 3) is not None
    assert extend_to_lm_matching(cycle(6), big, 1, 2) is None  # already larger than m
    with pytest.raises(ParameterError):
        extend_to_lm_matching(cycle(6), big, 3, 2)


def test_extends_against_bruteforce_small():
    rng = random.Random(7)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 6))
        mats = all_matchings(g, 0, g.edge_count)
        for n in mats[:12]:
            for l in range(1, 4):
                for m in range(l, 4):
                    expected = any(
                        n.edges <= other.edges and l <= len(other) <= m for other in mats
                    )
                    assert (extend_to_lm_matching(g, n, l, m) is not None) == expected


def test_extend_witness_contains_and_sizes():
    g = cycle(6)
    seed = Matching(frozenset({(0, 1)}))
    found = extend_to_lm_matching(g, seed, 3, 3)
    assert found is not None and seed.edges <= found.edges and len(found) == 3
    assert extend_to_lm_matching(star(3), seed, 2, 2) is None
    # truncation target is max(l, |n|)
    assert len(extend_to_lm_matching(g, seed, 1, 3)) == 1


def test_is_lm_coverable_basics(petersen_graph):
    assert is_lm_coverable(cycle(5), 1)
    assert not is_lm_coverable(star(3), 2)
    assert is_lm_coverable(petersen_graph, 5)
    assert not is_lm_coverable(petersen_graph, 6)
    assert is_lm_coverable(empty(3), 4)
    with pytest.raises(ParameterError):
        is_lm_coverable(cycle(4), 0)


@given(simple_graphs(max_vertices=8))
def test_coverability_antitone(g):
    nu = len(maximum_matching(g))
    flags = [is_lm_coverable(g, l) for l in range(1, nu + 2)]
    assert all(a or not b for a, b in zip(flags, flags[1:]))
    if g.edges:
        assert not flags[-1]  # l = nu + 1 is never coverable


@given(simple_graphs(max_vertices=8))
def test_coverability_is_the_per_edge_forced_matching_test(g):
    nu = len(maximum_matching(g))
    for l in range(1, nu + 2):
        covered = {e for matching in all_matchings(g, l, nu) for e in matching.edges}
        assert is_lm_coverable(g, l) == (covered == g.edges)


def test_coverability_below_the_matching_number_needs_no_per_edge_search():
    assert is_lm_coverable(path(3000), 5)


def test_coverability_at_the_matching_number_stops_at_the_first_uncovered_edge(monkeypatch):
    """Banning the edge (1, 2) of a path isolates vertex 0, so that edge lies
    in no maximum matching and no later edge needs a matching of its own."""
    calls = []
    real = matching_module._matching_avoiding
    monkeypatch.setattr(
        matching_module, "_matching_avoiding", lambda *args: calls.append(args) or real(*args)
    )
    matching_module._nu_coverable.cache_clear()
    assert not is_lm_coverable(path(3000), 1500)
    assert len(calls) <= 3


def _every_edge_in_a_maximum_matching(g):
    """The coverability answer from one blossom run per edge."""
    real = matching_module._matching_avoiding
    nu = len(real(g))
    return all(1 + len(real(g, frozenset(e))) >= nu for e in g.edges)


def test_coverability_at_the_matching_number_skips_the_maximum_matching(monkeypatch):
    """The edges of the memoised maximum matching, and of every successful
    run, lie in a maximum matching already, so only the edges outside them
    get a blossom run of their own, and the answer is the one a run per
    edge gives."""
    real = matching_module._matching_avoiding
    calls = []
    monkeypatch.setattr(
        matching_module, "_matching_avoiding", lambda *args: calls.append(args) or real(*args)
    )
    g = petersen()
    assert is_lm_coverable(g, 5)
    # the maximum matching, then runs for (0, 4), (0, 5), (1, 6) and (2, 7)
    # only: with the maximum matching, those runs hold every later edge
    assert len(calls) == 1 + 4
    monkeypatch.undo()
    assert _every_edge_in_a_maximum_matching(g)
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            assert matching_module._nu_coverable(g) == _every_edge_in_a_maximum_matching(g), g


@given(simple_graphs(max_vertices=9))
def test_coverability_at_the_matching_number_agrees_with_a_run_per_edge(g):
    assert matching_module._nu_coverable(g) == _every_edge_in_a_maximum_matching(g)


def test_coverability_at_the_matching_number_stops_on_budget():
    """The greedy seed matches the cycle perfectly, and also the path left
    when the one run bans the ends of edge (0, 2999); that run holds every
    edge the maximum matching misses.  No augmenting search starts, so only
    the check on entry to each blossom run can stop it."""
    g = cycle(3000)
    maximum_matching(g)
    matching_module._nu_coverable.cache_clear()
    with pytest.raises(BudgetExceededError), time_budget(0):
        is_lm_coverable(g, 1500)


@given(simple_graphs(max_vertices=7), st.integers(0, 3), st.integers(1, 4), st.integers(0, 3))
def test_isolated_vertices_change_no_answer(g, forced, l, extra):
    """Embedding vertex v as 3v + 1 among isolated vertices relabels every answer."""

    def spread(edges):
        return frozenset((3 * u + 1, 3 * v + 1) for u, v in edges)

    def relabel(found):
        return None if found is None else Matching(spread(found.edges))

    wide = SimpleGraph(3 * g.vertex_count + 2, spread(g.edges))
    base = maximum_matching(g)
    assert maximum_matching(wide) == relabel(base)
    n = Matching(frozenset(base.sorted_edges()[:forced]))
    expected = relabel(extend_to_lm_matching(g, n, l, l + extra))
    assert extend_to_lm_matching(wide, relabel(n), l, l + extra) == expected
    for size in range(1, len(base) + 2):
        assert is_lm_coverable(wide, size) == is_lm_coverable(g, size)
