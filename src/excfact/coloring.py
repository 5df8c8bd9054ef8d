"""Proper edge colourings: exact chromatic index, k-colouring search, and
class-size equalization.

A colouring of a simple graph is a :class:`Covering` whose matchings are its
colour classes, in colour order: ``k`` matchings whose union is the edge set.
An edge in ``t`` classes stands for ``t`` parallel instances with distinct
colours, so an edge's multiplicity is its class count and instance identity
never needs to be tracked.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from math import ceil
from typing import Callable, Iterator

from .budget import check_budget
from .errors import InvariantError, ParameterError
from .graphs import Covering, Edge, Matching, SimpleGraph, _graph_memo, verify_covering
from .matching import maximum_matching


def _color_in_order(
    edges: list[Edge], vertex_count: int, k: int, admits: Callable[[int], bool] | None = None
) -> tuple[int, ...] | None:
    """The k colour classes of the first proper colouring found, as bitmasks
    over indices into ``edges``, or None.

    Edges are coloured in the given order, lowest feasible colour first, by
    backtracking over an explicit index (no recursion, so the depth is not
    bounded by the interpreter stack).  Colours are introduced in increasing
    order.  ``admits``, if given, sees a class with the current edge joined
    and may reject that colour.  The budget is checked once per search node
    entered.
    """
    n = len(edges)
    masks = [0] * vertex_count
    assign = [0] * n  # colour of edges[i], or the last colour tried; 0 = none yet
    top = [0] * (n + 1)  # top[i]: highest colour among edges[:i]
    classes = [0] * k  # classes[c - 1]: bitmask of the indices of the edges coloured c
    i = 0
    check_budget()
    while i < n:
        u, v = edges[i]
        c = assign[i]
        if c:  # the subtree below colour c failed: undo it and try the next one
            bit = 1 << c
            masks[u] ^= bit
            masks[v] ^= bit
            classes[c - 1] ^= 1 << i
            first = c + 1
        else:
            first = 1
        taken = masks[u] | masks[v]
        used = top[i]
        for c in range(first, (used + 1 if used < k else k) + 1):
            bit = 1 << c
            if taken & bit:
                continue
            joined = classes[c - 1] | 1 << i
            if admits is not None and not admits(joined):
                continue
            classes[c - 1] = joined
            masks[u] |= bit
            masks[v] |= bit
            assign[i] = c
            top[i + 1] = c if c > used else used
            i += 1
            check_budget()
            break
        else:
            assign[i] = 0
            if i == 0:
                return None
            i -= 1
    return tuple(classes)


def find_k_edge_coloring(g: SimpleGraph, k: int) -> Covering | None:
    """First (lexicographically smallest) proper k-edge colouring, or None.

    Edges are coloured in sorted order, lowest feasible colour first.  One
    symmetry break keeps the search small without changing the first
    solution found: colours are introduced in increasing order (an edge may
    open colour ``c + 1`` only once colours ``1..c`` are in use).
    """
    if g.max_degree() > k:
        return None
    # every class is a matching, so k of them hold at most k * nu edges;
    # this settles dense infeasible cases fast
    if k * len(maximum_matching(g)) < g.edge_count:
        return None
    edges = g.sorted_edges()
    classes = _color_in_order(edges, g.vertex_count, k)
    if classes is None:
        return None
    coloured = 0
    for cls in classes:
        coloured |= cls
    # one comparison: every edge is coloured and no index lies past the last edge
    if coloured != (1 << len(edges)) - 1:
        raise InvariantError("the colour classes do not cover exactly the edge set")
    return Covering(tuple(Matching(frozenset(e for j, e in enumerate(edges) if cls >> j & 1)) for cls in classes))


def chromatic_index(g: SimpleGraph) -> int:
    """Exact chromatic index of a simple graph (0 for edgeless graphs): the
    number of classes of the memoised chi'-colouring."""
    return len(_chi_coloring(g))


def _surplus_paths(a_edges: set[Edge], b_edges: set[Edge]) -> Iterator[tuple[set[Edge], set[Edge]]]:
    """Every path component of the union of two disjoint matchings with one
    more edge of ``a`` than of ``b``, as its ``a`` and ``b`` edges: one walk
    from each unvisited ``a`` edge in sorted order, over maps built once.
    """
    at: tuple[dict[int, Edge], dict[int, Edge]] = ({}, {})  # vertex -> its edge in a, in b
    for side, edges in enumerate((a_edges, b_edges)):
        for e in edges:
            at[side][e[0]] = at[side][e[1]] = e
    visited: set[Edge] = set()
    for first in sorted(a_edges):
        if first in visited:
            continue
        visited.add(first)
        comp: tuple[set[Edge], set[Edge]] = ({first}, set())
        for vertex in first:  # walk away from ``first`` through each endpoint
            side = 1
            while (e := at[side].get(vertex)) is not None and e not in visited:
                visited.add(e)
                comp[side].add(e)
                vertex = e[0] if e[1] == vertex else e[1]
                side = 1 - side
        if len(comp[0]) == len(comp[1]) + 1:
            yield comp


def equalize(c: Covering, trace: list[int] | None = None) -> Covering:
    """Rebalance a valid colouring until all class sizes differ by at most one.

    While the first largest class exceeds the first smallest by two or more,
    swapping the two colours along ``(hi - lo) // 2`` surplus paths of their
    union (one walk, see :func:`_surplus_paths`) leaves the pair within one
    edge; the choices are deterministic.  The budget is checked once per
    pair.  If ``trace`` is given, the sum of squared class sizes is appended
    after every pair (it strictly decreases).  Every edge keeps its class
    count, which is checked.  A colouring that is balanced already is
    returned itself.
    """
    sizes = [len(cls) for cls in c.matchings]
    if len(sizes) <= 1 or max(sizes) - min(sizes) <= 1:
        return c
    total = sum(sizes)
    classes = [set(cls.edges) for cls in c.matchings]
    counts = Counter(e for cls in classes for e in cls)
    while (hi := max(sizes)) - (lo := min(sizes)) > 1:
        check_budget()
        a, b = sizes.index(hi), sizes.index(lo)
        common = classes[a] & classes[b]
        d = (hi - lo) // 2
        paths = list(islice(_surplus_paths(classes[a] - common, classes[b] - common), d))
        # the union is paths and even cycles, and surplus paths outnumber
        # deficit paths by hi - lo >= d
        if len(paths) < d:
            raise InvariantError("no rebalancing path found in an unbalanced colouring")
        for comp_a, comp_b in paths:
            classes[a] -= comp_a
            classes[a] |= comp_b
            classes[b] -= comp_b
            classes[b] |= comp_a
        sizes[a], sizes[b] = hi - d, lo + d
        if trace is not None:
            trace.append(sum(len(cls) ** 2 for cls in classes))
    if Counter(e for cls in classes for e in cls) != counts:
        raise InvariantError("equalizing changed the class count of an edge")
    k = len(classes)
    if not all(total // k <= len(cls) <= ceil(total / k) for cls in classes):
        raise InvariantError("equalized class sizes differ by more than one")
    return Covering(tuple(Matching(frozenset(cls)) for cls in classes))


@_graph_memo
def _chi_coloring(g: SimpleGraph) -> Covering:
    """The equalized chi'-colouring of ``g``: the one place a simple graph is
    coloured.  Only the maximum degree and one more colour need testing
    (Vizing); every colouring with more colours is derived from this one.

    It is verified here, once per graph, as a covering with class sizes in
    ``[floor(|E|/chi'), ceil(|E|/chi')]`` (the edgeless graph's empty
    colouring at [0, 0]).  A window whose size range contains that one
    takes the colouring as its witness without verifying it again.
    """
    d = g.max_degree()
    found = find_k_edge_coloring(g, d)
    if found is None:
        found = find_k_edge_coloring(g, d + 1)
        if found is None:
            raise InvariantError(f"no colouring with {d + 1} colours")
    psi = equalize(found)
    chi = len(psi)
    low, high = (g.edge_count // chi, ceil(g.edge_count / chi)) if chi else (0, 0)
    if not verify_covering(g, psi, low, high):
        raise InvariantError(f"the equalized chi'-colouring is not a [{low},{high}]-covering")
    return psi


def optimal_m_bounded_coloring(g: SimpleGraph, m: int) -> Covering:
    """Edge colouring with the fewest colours subject to class sizes <= m.

    ``k = max(chi', ceil(|E|/m))`` colours are always enough, and fewer are
    impossible: the chi'-colouring padded with ``k - chi'`` empty classes
    and equalized has classes of size at most ``ceil(|E|/k) <= m``, which
    :func:`equalize` checks (at ``k = chi'`` the chi'-colouring is itself
    equalized).  Public as the paper's optimal m-bounded colouring, which
    the acceptance gate checks.
    """
    if m < 1:
        raise ParameterError("m must be at least 1")
    if not g.edges:
        raise ParameterError("graph has no edges")
    psi = _chi_coloring(g)
    k = max(len(psi), ceil(g.edge_count / m))
    return equalize(Covering(psi.matchings + (Matching(),) * (k - len(psi)))) if k > len(psi) else psi
