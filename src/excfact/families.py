"""Named small graphs used throughout the tests and scripts."""

from __future__ import annotations

from itertools import combinations

from .errors import ParameterError
from .graphs import SimpleGraph


def empty(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset())


def path(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> SimpleGraph:
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    return SimpleGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset(combinations(range(n), 2)))


def star(leaves: int) -> SimpleGraph:
    return SimpleGraph(leaves + 1, frozenset((0, i) for i in range(1, leaves + 1)))


def petersen() -> SimpleGraph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return SimpleGraph(10, frozenset(outer + inner + spokes))
