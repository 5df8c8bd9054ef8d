"""Hypothesis strategies and random generators shared by the test modules."""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from hypothesis import strategies as st

from excfact.graphs import Covering, Matching, SimpleGraph


@st.composite
def simple_graphs(draw, min_vertices: int = 0, max_vertices: int = 8) -> SimpleGraph:
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return SimpleGraph(n, frozenset())
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return SimpleGraph(n, frozenset(edges))


@st.composite
def nonempty_graphs(draw, max_vertices: int = 8) -> SimpleGraph:
    n = draw(st.integers(2, max_vertices))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    return SimpleGraph(n, frozenset(edges))


def random_valid_coloring(rng: random.Random, max_vertices: int = 12) -> Covering:
    """A random valid colouring in which an edge lies in up to 3 classes.

    The instance is built colouring-first: random matchings become the colour
    classes, so it is a colouring of the graph that is their union.
    """
    n = rng.randint(2, max_vertices)
    k = rng.randint(1, 6)
    classes: list[set] = []
    for _ in range(k):
        vertices = list(range(n))
        rng.shuffle(vertices)
        cls = set()
        while len(vertices) >= 2 and rng.random() < 0.8:
            u, v = vertices.pop(), vertices.pop()
            cls.add((min(u, v), max(u, v)))
        classes.append(cls)
    memberships = Counter(e for cls in classes for e in cls)
    for e, count in memberships.items():
        surplus = count - 3
        for cls in classes:
            if surplus <= 0:
                break
            if e in cls:
                cls.remove(e)
                surplus -= 1
    return Covering(tuple(Matching(frozenset(cls)) for cls in classes))
