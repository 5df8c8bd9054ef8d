"""Brute-force references that only the tests use.

Like ``excfact.oracle``, nothing here shares code with the main path: the
matchings come from the oracle's own bitmask enumeration, the matching count
from edge deletion and contraction, the maximum matching size from a bitmask
dynamic program over vertex subsets, and the chromatic index from a vertex
colouring of the line graph.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from excfact.budget import check_budget
from excfact.graphs import Edge, Matching, SimpleGraph
from excfact.oracle import _matching_masks, _matching_of


def all_matchings(g: SimpleGraph, l: int, m: int, cap: int = 1_000_000) -> list[Matching]:
    """Every matching of ``g`` with size in [l, m], in canonical order.

    Aborts with :class:`EnumerationCapError` once more than ``cap`` matchings
    have been produced; the caller owns the combinatorial-blowup risk.
    """
    edges = g.sorted_edges()
    return [_matching_of(edges, mask) for mask in _matching_masks(edges, l, m, cap)]


def matching_count_by_deletion(g: SimpleGraph) -> int:
    """Number of matchings (including the empty one) via edge deletion/contraction."""

    def count(edges: tuple[Edge, ...]) -> int:
        if not edges:
            return 1
        (u, v), rest = edges[0], edges[1:]
        without = count(rest)
        shrunk = tuple(e for e in rest if u not in e and v not in e)
        return without + count(shrunk)

    return count(tuple(g.sorted_edges()))


def max_matching_size_bruteforce(g: SimpleGraph) -> int:
    """Maximum matching size by dynamic programming over vertex subsets."""
    n = g.vertex_count
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    @lru_cache(maxsize=None)
    def best(active: int) -> int:
        live = active
        while live:
            v = (live & -live).bit_length() - 1
            if adj[v] & active:
                break
            live &= live - 1
        else:
            return 0
        rest = active & ~(1 << v)
        result = best(rest)  # leave v unmatched
        partners = adj[v] & active
        while partners:
            u = (partners & -partners).bit_length() - 1
            result = max(result, 1 + best(rest & ~(1 << u)))
            partners &= partners - 1
        return result

    return best((1 << n) - 1)


def chromatic_index_bruteforce(g: SimpleGraph) -> int:
    """Exact chromatic index via vertex colouring of the line graph.

    Colours are tried from the maximum degree upward with no further
    shortcut, keeping this route independent of the main implementation.
    """
    edges = g.sorted_edges()
    neighbours: list[list[int]] = [[] for _ in edges]
    for i, j in combinations(range(len(edges)), 2):
        if set(edges[i]) & set(edges[j]):
            neighbours[i].append(j)
            neighbours[j].append(i)
    order = list(range(len(edges)))[::-1]
    colour = [0] * len(edges)

    def colourable(pos: int, k: int) -> bool:
        check_budget()
        if pos == len(order):
            return True
        item = order[pos]
        forbidden = {colour[other] for other in neighbours[item] if colour[other]}
        for c in range(1, k + 1):
            if c in forbidden:
                continue
            colour[item] = c
            if colourable(pos + 1, k):
                return True
            colour[item] = 0
            if c > max((colour[o] for o in order[:pos]), default=0):
                break  # higher fresh colours are symmetric
        return False

    k = g.max_degree()
    while True:
        colour[:] = [0] * len(edges)
        if colourable(0, k):
            return k
        k += 1
