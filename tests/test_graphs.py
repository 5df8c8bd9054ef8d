"""Graph types, the two text formats, and the covering constructions."""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given

from excfact import (
    Covering,
    FormatError,
    Matching,
    ParameterError,
    PreconditionError,
    SimpleGraph,
    covering_from_json,
    covering_to_json,
    encode_graph6,
    equalize,
    find_k_edge_coloring,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
    verify_covering,
)
from excfact.families import complete, cycle, petersen
from excfact.graphs import _decimal
from excfact.oracle import enumerate_labeled_graphs
from strategies import simple_graphs

PETERSEN_EDGE_LINES = """
0 1
1 2
2 3
3 4
4 0
5 7
7 9
9 6
6 8
8 5
0 5
1 6
2 7
3 8
4 9
"""


def test_parse_edge_list_with_header():
    g = parse_edge_list("n 3\n0 1\n1 2")
    assert g.vertex_count == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_edge_list_collapses_duplicates():
    g = parse_edge_list("0 1\n0 1")
    assert g.vertex_count == 2
    assert g.edges == frozenset({(0, 1)})


def test_parse_edge_list_petersen():
    g = parse_edge_list(PETERSEN_EDGE_LINES)
    assert g.vertex_count == 10
    assert g.edge_count == 15
    assert Counter(v for e in g.edges for v in e) == Counter({v: 3 for v in range(10)})
    assert g == petersen()


def test_parse_edge_list_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n0 1  # inline\nn 4\n")
    assert g.vertex_count == 4
    assert g.edges == frozenset({(0, 1)})


@pytest.mark.parametrize(
    "text",
    ["0 0", "0 x", "0", "0 1 2", "n", "n 1 2", "n 2\n0 5", "n 1\nn 2", "-1 2", "1_0 2", "\u0661 \u0662", "n 1_0\n0 1"],
)
def test_parse_edge_list_rejects(text):
    with pytest.raises(FormatError):
        parse_edge_list(text)


def test_parse_edge_list_caps_the_vertex_count():
    # the largest count encode_graph6 writes; a header or an endpoint beyond it
    # is refused before any per-vertex structure is built
    assert parse_edge_list("n 258047\n0 1").vertex_count == 258047
    assert parse_edge_list("0 258046").vertex_count == 258047
    for text in ("0 100000000", "0 258047", "n 30000000\n0 1", "n 258048"):
        with pytest.raises(FormatError):
            parse_edge_list(text)


def test_a_number_past_ints_digit_limit_is_a_format_error_without_the_token():
    assert _decimal("9" * 4300) == 10**4300 - 1
    with pytest.raises(FormatError, match=r"^a 4301-digit number has too many digits$"):
        _decimal("9" * 4301)
    for text in ("0 " + "9" * 5000, "n " + "9" * 5000 + "\n0 1"):
        with pytest.raises(FormatError, match=r"^line 1: a 5000-digit number has too many digits$"):
            parse_edge_list(text)


def test_edge_list_round_trip():
    g = petersen()
    assert parse_edge_list(format_edge_list(g)) == g


def test_graph6_single_vertex():
    g = parse_graph6("@")
    assert g == SimpleGraph(1, frozenset())
    assert encode_graph6(g) == "@"


def test_graph6_k3_against_reference_encoder():
    reference = nx.to_graph6_bytes(nx.complete_graph(3), header=False).decode().strip()
    assert encode_graph6(complete(3)) == reference == "Bw"
    assert parse_graph6(reference) == complete(3)


def test_graph6_accepts_standard_header():
    assert parse_graph6(">>graph6<<Bw") == complete(3)


@pytest.mark.parametrize(
    "text",
    # truncated count, nonzero padding, and the 8-byte count form (here 258,048 vertices)
    ["", "B", "Bw~extra", "B\x1c", "C" + chr(200), "~??", "Bx", "~~???~??"],
)
def test_graph6_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_graph6(text)


def test_graph6_eight_byte_count_names_the_vertex_cap():
    with pytest.raises(FormatError, match="258047"):
        parse_graph6("~~???~??")


def test_graph6_encoder_rejects_a_count_past_the_cap_before_building_the_payload():
    # the payload of 258,048 vertices would take about 5.5 GB
    with pytest.raises(FormatError, match="too large"):
        encode_graph6(SimpleGraph(258_048))


def test_graph6_round_trip_exhaustive_small():
    for n in range(6):
        for g in enumerate_labeled_graphs(n):
            assert parse_graph6(encode_graph6(g)) == g


def test_graph6_matches_networkx_both_ways():
    for n in range(5):
        for g in enumerate_labeled_graphs(n):
            mirror = nx.Graph()
            mirror.add_nodes_from(range(n))
            mirror.add_edges_from(g.edges)
            reference = nx.to_graph6_bytes(mirror, header=False).decode().strip()
            assert encode_graph6(g) == reference
            decoded = nx.from_graph6_bytes(encode_graph6(g).encode())
            assert frozenset(map(lambda e: (min(e), max(e)), decoded.edges())) == g.edges


@given(simple_graphs(max_vertices=8))
def test_graph6_round_trip_random(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_extended_vertex_count():
    g = SimpleGraph(63, frozenset({(0, 62), (10, 20)}))
    encoded = encode_graph6(g)
    assert encoded.startswith("~")
    assert parse_graph6(encoded) == g
    mirror = nx.Graph()
    mirror.add_nodes_from(range(63))
    mirror.add_edges_from(g.edges)
    assert encoded == nx.to_graph6_bytes(mirror, header=False).decode().strip()


@pytest.mark.parametrize("p", [0.03, 0.5, 1])
@pytest.mark.parametrize("n", [62, 63, 65, 100])  # 1, 3, 4 and 0 bits in the last payload character
def test_graph6_matches_networkx_on_random_graphs(n, p):
    rng = random.Random(n * 100 + int(p * 100))
    g = SimpleGraph(n, frozenset((i, j) for j in range(n) for i in range(j) if rng.random() < p))
    mirror = nx.Graph()
    mirror.add_nodes_from(range(n))
    mirror.add_edges_from(g.edges)
    reference = nx.to_graph6_bytes(mirror, header=False).decode().strip()
    assert encode_graph6(g) == reference
    assert parse_graph6(reference) == g


def test_simple_graph_rejects_loops_and_range():
    with pytest.raises(PreconditionError):
        SimpleGraph(3, frozenset({(1, 1)}))
    with pytest.raises(PreconditionError):
        SimpleGraph(2, frozenset({(0, 2)}))


@given(simple_graphs())
def test_sorted_edges_is_a_new_sorted_list_each_call(g):
    first = g.sorted_edges()
    assert first == sorted(g.edges)
    first.append((-1, -1))
    first.reverse()
    second = g.sorted_edges()
    assert second == sorted(g.edges) and second is not g.sorted_edges()


def test_copies_ignore_the_sorted_edge_order():
    g = petersen()
    order = g.sorted_edges()
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin._sorted is None
        assert (twin, hash(twin), repr(twin)) == (g, hash(g), repr(g))
        assert twin.sorted_edges() == order


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError) as caught:
        cycle(2)
    assert caught.type is ParameterError


def test_matching_rejects_shared_vertex():
    with pytest.raises(PreconditionError):
        Matching(frozenset({(0, 1), (1, 2)}))


def test_matching_stores_canonical_edges_from_any_input():
    canonical = frozenset({(0, 1), (2, 3)})
    for edges in (
        {(0, 1), (2, 3)},
        [(0, 1), (2, 3)],
        [(1, 0), (3, 2)],
        frozenset({(1, 0), (2, 3)}),
        frozenset({frozenset({0, 1}), frozenset({2, 3})}),
        canonical,
    ):
        stored = Matching(edges).edges
        assert type(stored) is frozenset and stored == canonical
        assert all(type(e) is tuple for e in stored)


def test_edge_set_errors_keep_their_messages():
    for edges, message in (
        ({(1, 1)}, "loop edge at vertex 1"),
        (frozenset({(1, 1)}), "loop edge at vertex 1"),
        ([(-1, 2)], "negative vertex in edge (-1, 2)"),
        (frozenset({(2, -1)}), "negative vertex in edge (2, -1)"),
        (frozenset({(0, 1), (1, 2)}), "edges of a matching must be vertex-disjoint"),
        ([(1, 0), (2, 1)], "edges of a matching must be vertex-disjoint"),
    ):
        with pytest.raises(PreconditionError) as info:
            Matching(edges)
        assert str(info.value) == message
    for n, edges, message in (
        (-1, {(1, 1)}, "vertex_count must be nonnegative"),
        (2, frozenset({(3, 3)}), "loop edge at vertex 3"),
        (2, {(-1, 0)}, "negative vertex in edge (-1, 0)"),
        (2, frozenset({(0, 5)}), "edge endpoint 5 outside vertex range 0..1"),
        (2, [(5, 0)], "edge endpoint 5 outside vertex range 0..1"),
    ):
        with pytest.raises(PreconditionError) as info:
            SimpleGraph(n, edges)
        assert str(info.value) == message


def test_canonical_edge_sets_are_kept_as_given():
    # pins the canonical-input fast path: fails on the code before it, which
    # stored an equal rebuilt copy
    edges = frozenset({(0, 1), (2, 3)})
    assert Matching(edges).edges is edges
    assert SimpleGraph(4, edges).edges is edges
    assert Matching(frozenset({(1, 0)})).edges == frozenset({(0, 1)})


def test_covering_equality_is_multiset():
    a = Matching(frozenset({(0, 1)}))
    b = Matching(frozenset({(2, 3)}))
    assert Covering((a, b)) == Covering((b, a))
    assert Covering((a, a)) != Covering((a,))
    assert hash(Covering((a, b))) == hash(Covering((b, a)))


def test_petersen_4_5_witness_total_size_lies_in_the_window(petersen_graph):
    from excfact import excessive_lm_index

    witness = excessive_lm_index(petersen_graph, 4, 5).witness
    assert 4 * 4 <= sum(len(m) for m in witness) <= 4 * 5


def test_coloring_covering_is_its_classes():
    # a colouring is the Covering whose matchings are its classes, in colour order
    colouring = find_k_edge_coloring(cycle(4), 2)
    assert type(colouring) is Covering
    assert [m.sorted_edges() for m in colouring] == [[(0, 1), (2, 3)], [(0, 3), (1, 2)]]


def test_coloring_covering_repeats_an_edge_in_two_classes():
    # an edge in two classes stands for two parallel instances: the covering
    # holds its matching twice, and equalizing keeps both
    e = Matching(frozenset({(0, 1)}))
    colouring = Covering((e, e))
    assert len(colouring) == 2 and colouring != Covering((e,))
    assert equalize(colouring) is colouring
    assert verify_covering(SimpleGraph(2, {(0, 1)}), colouring, 1, 1)


def test_covering_json_round_trip(petersen_graph):
    from excfact import excessive_lm_index

    witness = excessive_lm_index(petersen_graph, 4, 5).witness
    blob = covering_to_json(witness)
    for matching in blob["matchings"]:
        assert matching == sorted(matching)
        assert all(u < v for u, v in matching)
    assert covering_from_json(blob) == witness


@pytest.mark.parametrize(
    "obj",
    [{}, {"matchings": 3}, {"matchings": [[(0,)]]}, {"matchings": [[[0, "x"]]]}, {"matchings": [[[True, False]]]}],
)
def test_covering_json_rejects_malformed(obj):
    with pytest.raises(FormatError):
        covering_from_json(obj)
