"""Known-value tests of the benchmark's graph generators.

Run with ``python3 -m pytest perfbench/test_generators.py``.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from worker import import_excfact

import_excfact()

import generators as gen  # noqa: E402
from excfact.coloring import chromatic_index  # noqa: E402
from excfact.families import petersen  # noqa: E402
from excfact.matching import maximum_matching  # noqa: E402


def degrees(g) -> Counter:
    counts = Counter({v: 0 for v in range(g.vertex_count)})
    for u, v in g.edges:
        counts[u] += 1
        counts[v] += 1
    return counts


@pytest.mark.parametrize("n, d", [(10, 3), (24, 3), (32, 3), (9, 4), (12, 5)])
def test_random_regular_is_d_regular(n, d):
    g = gen.random_regular(n, d, random.Random(n * d))
    assert g.vertex_count == n and g.edge_count == n * d // 2
    assert set(degrees(g).values()) == {d}


def test_random_regular_is_seeded():
    first = gen.random_regular(30, 3, random.Random(7))
    assert first == gen.random_regular(30, 3, random.Random(7))
    assert first != gen.random_regular(30, 3, random.Random(8))


def test_random_regular_rejects_odd_degree_sum():
    with pytest.raises(ValueError):
        gen.random_regular(7, 3, random.Random(0))


def test_generalized_petersen_5_2_is_petersen():
    assert gen.generalized_petersen(5, 2) == petersen()
    assert chromatic_index(petersen()) == 4


@pytest.mark.parametrize("n, k", [(7, 2), (8, 3), (12, 5)])
def test_generalized_petersen_is_cubic_class_one(n, k):
    g = gen.generalized_petersen(n, k)
    assert g.vertex_count == 2 * n and set(degrees(g).values()) == {3}
    assert chromatic_index(g) == 3


@pytest.mark.parametrize("k", [5, 7])
def test_flower_snarks_are_cubic_class_two(k):
    g = gen.flower_snark(k)
    assert g.vertex_count == 4 * k and set(degrees(g).values()) == {3}
    assert chromatic_index(g) == 4
    assert len(maximum_matching(g)) == 2 * k


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_odd_complete_graphs_are_class_two(k):
    n = 2 * k + 1
    assert chromatic_index(gen.complete(n)) == n


@pytest.mark.parametrize("rows, cols", [(2, 2), (3, 4), (5, 6), (6, 8)])
def test_grids_are_class_one(rows, cols):
    g = gen.grid(rows, cols)
    assert g.edge_count == rows * (cols - 1) + (rows - 1) * cols
    assert chromatic_index(g) == max(degrees(g).values())


def test_paths_and_cycles():
    assert chromatic_index(gen.path(50)) == 2
    assert chromatic_index(gen.cycle(50)) == 2
    assert chromatic_index(gen.cycle(51)) == 3
    assert len(maximum_matching(gen.path(51))) == 25


def test_gnp_extremes_and_seeding():
    assert gen.gnp(8, 0.0, random.Random(1)).edge_count == 0
    assert gen.gnp(8, 1.0, random.Random(1)) == gen.complete(8)
    assert gen.gnp(9, 0.5, random.Random(3)) == gen.gnp(9, 0.5, random.Random(3))
