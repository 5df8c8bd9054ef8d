"""Maximum matchings and matching-extension tests on general graphs.

The maximum-matching routine is an augmenting-path search with blossom
contraction.  Everything is deterministic: vertices are scanned in
increasing order and augmenting paths are taken first-found over sorted
adjacency lists, so repeated runs return identical matchings.
"""

from __future__ import annotations

from collections import deque

from .budget import check_budget
from .errors import ParameterError, PreconditionError
from .graphs import Edge, Matching, SimpleGraph, _graph_memo


def _try_augment(root: int, adj: list[list[int]], match: list[int]) -> bool:
    """Grow an alternating tree from ``root``; flip one augmenting path if found."""
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # odd cycle: contract the blossom up to the common base
                cur = _common_base(v, to, base, parent, match)
                marks = [False] * n
                _mark_blossom_path(v, cur, to, marks, base, parent, match)
                _mark_blossom_path(to, cur, v, marks, base, parent, match)
                for i in range(n):
                    if marks[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    _flip_path(to, parent, match)
                    return True
                used[match[to]] = True
                queue.append(match[to])
    return False


def _common_base(a: int, b: int, base, parent, match) -> int:
    seen = [False] * len(base)
    v = a
    while True:
        v = base[v]
        seen[v] = True
        if match[v] == -1:
            break
        v = base[parent[match[v]]]
    v = b
    while True:
        v = base[v]
        if seen[v]:
            return v
        v = base[parent[match[v]]]


def _mark_blossom_path(v: int, b: int, child: int, marks, base, parent, match) -> None:
    while base[v] != b:
        marks[base[v]] = True
        marks[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


def _flip_path(v: int, parent, match) -> None:
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt


@_graph_memo
def maximum_matching(g: SimpleGraph) -> Matching:
    """A maximum-cardinality matching of ``g`` (deterministic for a fixed input)."""
    return Matching(frozenset(_matching_avoiding(g)))


def _matching_avoiding(g: SimpleGraph, banned: frozenset[int] = frozenset()) -> list[Edge]:
    """A maximum matching of ``g`` with the vertices in ``banned`` removed.

    Only endpoints of the remaining edges are numbered, in increasing order:
    the cost follows the edges, and every scan keeps the vertex order.
    """
    check_budget()
    live = [(u, v) for u, v in g.sorted_edges() if u not in banned and v not in banned]
    vertices = sorted({v for e in live for v in e})
    index = {v: i for i, v in enumerate(vertices)}
    adj: list[list[int]] = [[] for _ in vertices]
    for u, v in live:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    match = [-1] * len(vertices)
    for v, neighbours in enumerate(adj):  # cheap deterministic greedy seed
        if match[v] == -1:
            for u in neighbours:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(len(vertices)):
        if match[v] == -1:
            check_budget()
            _try_augment(v, adj, match)
    return [(vertices[v], vertices[u]) for v, u in enumerate(match) if u > v]


def extend_to_lm_matching(g: SimpleGraph, n: Matching, l: int, m: int) -> Matching | None:
    """A concrete matching of size ``max(l, |n|)`` containing ``n``, or None.

    The extension is a maximum matching of the graph with the endpoints of
    ``n`` removed; it is then truncated by repeatedly dropping the
    lexicographically largest non-forced edge, so results are reproducible.
    """
    if l > m:
        raise ParameterError(f"invalid size window [{l}, {m}]")
    if not n.edges <= g.edges:
        raise PreconditionError("forced edges must all belong to the graph")
    if len(n) > m:
        return None
    extra = _matching_avoiding(g, n.vertices())  # pairs come in increasing order
    target = max(l, len(n))
    if len(n) + len(extra) < target:
        return None
    return Matching(n.edges | frozenset(extra[: target - len(n)]))


@_graph_memo
def _nu_coverable(g: SimpleGraph) -> bool:
    """Whether every edge of ``g`` lies in a maximum matching.  An edge e
    with a matching of ``nu - 1`` edges avoiding it makes that matching plus
    e maximum, so those edges, like the memoised maximum matching's, need no
    matching of their own."""
    best = maximum_matching(g)
    nu = len(best)
    covered = set(best.edges)
    for e in g.sorted_edges():
        if e not in covered:
            run = _matching_avoiding(g, frozenset(e))
            if 1 + len(run) < nu:
                return False
            covered.update(run)
    return True


def is_lm_coverable(g: SimpleGraph, l: int) -> bool:
    """Whether every edge of ``g`` lies in a matching of size at least ``l``.

    Forcing an edge uv leaves a matching of ``g - u - v`` with at least
    ``nu - 2`` edges, so the largest matching through any edge has ``nu - 1``
    or ``nu`` edges.  Only ``l = nu`` needs a matching per edge.
    """
    if l < 1:
        raise ParameterError("l must be at least 1")
    if not g.edges:
        return True
    nu = len(maximum_matching(g))
    if l != nu:
        return l < nu
    return _nu_coverable(g)
