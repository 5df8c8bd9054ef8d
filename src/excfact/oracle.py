"""Independent brute-force ground truth for the main computations.

Nothing here shares search code with the main modules: matchings are
enumerated as edge-index bitmasks by a depth-first search over increasing
edge indices (which yields them in canonical order without sorting), and
the minimum cover is an exact branch-and-bound over that enumeration.
Agreement with the main path is therefore evidence, not tautology.

The branch-and-bound seeds its incumbent with a greedy cover (first
candidate of largest gain), branches in a fixed edge order and prunes only
with valid lower bounds (uncovered edges over m, and uncovered edges at one
vertex), so its witness does not depend on how much it prunes; see
:func:`min_cover_bruteforce`.

The sweep computes the brute-force values once per relabelling key: the
edge set of the graph relabelled in order of (degree, sorted degrees of the
neighbours, label).  Equal keys mean isomorphic graphs, which have the same
minimum covers, so sharing the values is exact; the key is no canonical
form, so some isomorphic graphs just share nothing.
"""

from __future__ import annotations

import random
from itertools import combinations

from . import excessive as _excessive
from .budget import check_budget
from .errors import EnumerationCapError, InvariantError, ParameterError
from .excessive import INFINITY, IndexResult, RULE_NOT_COVERABLE, RULE_SEARCH, _json_value, verify_covering
from .graphs import Covering, Edge, Matching, SimpleGraph, _Value, encode_graph6


def _matching_masks(edges: list[Edge], l: int, m: int, cap: int) -> list[int]:
    """Edge-index bitmasks of every matching with size in [l, m], in canonical order.

    Depth-first search over increasing edge indices, with the used vertices
    kept as a bitmask.  A matching is emitted before its extensions and
    siblings follow in index order, so the output is already sorted the way
    ``sorted`` would sort the tuples of (sorted) edges.  A loop over the
    matchings on the current branch replaces recursion; each node checks the budget.
    """
    # a matching with l edges needs 2l distinct endpoints
    if m < max(l, 0) or 2 * l > len({v for e in edges for v in e}):
        return []
    ends = [(1 << u) | (1 << v) for u, v in edges]
    count = len(ends)
    found: list[int] = [0] if l <= 0 else []
    stack = [[0, 0, 0]]  # per matching on the branch: next edge index to try, mask, used vertices
    while stack:
        check_budget()
        frame = stack[-1]
        idx, mask, used = frame
        if len(stack) > m:  # the matching has m edges: no extension
            idx = count
        while idx < count and ends[idx] & used:
            idx += 1
        if idx == count:
            stack.pop()
            continue
        frame[0] = idx + 1
        mask |= 1 << idx
        if len(stack) >= l:
            found.append(mask)
            if len(found) > cap:
                raise EnumerationCapError(f"more than {cap} matchings")
        stack.append([idx + 1, mask, used | ends[idx]])
    return found


def _matching_of(edges: list[Edge], mask: int) -> Matching:
    chosen = []
    while mask:
        low = mask & -mask
        chosen.append(edges[low.bit_length() - 1])
        mask ^= low
    return Matching(frozenset(chosen))


def _branch_targets(masks: list[int], edge_count: int) -> list[tuple[int, list[int]]]:
    """``(1 << edge, candidates containing the edge)`` for every edge, in branching order.

    The order is fewest containing candidates first, then lowest edge index
    (the sort is stable).
    """
    containing: list[list[int]] = [[] for _ in range(edge_count)]
    for idx, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            containing[low.bit_length() - 1].append(idx)
            mask ^= low
    order = sorted(range(edge_count), key=lambda bit: len(containing[bit]))
    return [(1 << bit, containing[bit]) for bit in order]


def _greedy_cover(masks: list[int], full: int) -> list[int]:
    """Indices of a greedy cover of the edge bitmask ``full`` by ``masks``,
    whose union is ``full``: each step takes the first candidate of largest
    gain.  A step's scan stops at a candidate that gains as much as the
    widest candidate holds or as many edges as are uncovered, since no later
    candidate can gain more.
    """
    greedy: list[int] = []
    covered = 0
    widest = max(map(int.bit_count, masks), default=0)
    while covered != full:
        uncovered = full & ~covered
        most = min(widest, uncovered.bit_count())
        best_gain = pick = -1
        for idx, mask in enumerate(masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:  # strict: the first candidate of largest gain wins
                best_gain, pick = gain, idx
                if gain == most:
                    break
        greedy.append(pick)
        covered |= masks[pick]
    return greedy


def min_cover_bruteforce(g: SimpleGraph, l: int, m: int, *, candidates: list[int] | None = None) -> IndexResult:
    """Exact minimum [l,m]-cover by branch and bound over all [l,m]-matchings.

    The candidates are the edge bitmasks of the [l,m]-matchings in canonical
    order; ``Matching`` objects are built only for the witness.  A caller
    that already holds them passes ``candidates``: edge-index bitmasks over
    ``g.sorted_edges()``, exactly the [l,m]-matchings in canonical order;
    otherwise they are enumerated here.  A greedy
    cover seeds the incumbent: each step takes the candidate covering the
    most uncovered edges, the first such candidate on ties.  The search
    branches on the uncovered edge contained in the fewest candidates (lowest
    edge index on ties), trying its candidates in order.  It prunes when the
    chosen count plus a lower bound reaches the incumbent size; the bound is
    the larger of ceil(uncovered / m), since a matching covers at most m
    edges, and the most uncovered edges at one vertex, since a matching
    covers at most one edge per vertex.  Only subtrees without a strictly
    smaller cover are pruned, and the incumbent changes only on a strictly
    smaller cover, so value and witness (matchings and their order) are the
    ones the unpruned search in the same order returns: they depend only on
    ``g`` and the candidates.

    Raises :class:`ParameterError` unless ``1 <= l <= m``, and
    :class:`InvariantError` if the witness fails verification.
    """
    if l < 1 or l > m:
        raise ParameterError(f"invalid size window [{l}, {m}]")
    edges = g.sorted_edges()
    masks = _matching_masks(edges, l, m, 1_000_000) if candidates is None else candidates
    full = (1 << len(edges)) - 1
    union = 0
    for mask in masks:
        union |= mask
    if union != full:
        return IndexResult(INFINITY, None, RULE_NOT_COVERABLE)
    stars = [0] * g.vertex_count
    for i, (u, v) in enumerate(edges):
        stars[u] |= 1 << i
        stars[v] |= 1 << i
    stars = [s for s in stars if s]
    # built at the first node the bounds do not prune; most windows never get there
    targets: list[tuple[int, list[int]]] = []

    best_choice = _greedy_cover(masks, full)  # the initial upper bound
    best_size = len(best_choice)

    def branch(covered: int, chosen: list[int]) -> None:
        nonlocal best_choice, best_size
        check_budget()
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_choice = list(chosen)
            return
        uncovered = full & ~covered
        slack = best_size - len(chosen)
        if -(-uncovered.bit_count() // m) >= slack:
            return
        for star in stars:
            if (uncovered & star).bit_count() >= slack:
                return
        if not targets:
            targets.extend(_branch_targets(masks, len(edges)))
        for bit, options in targets:
            if uncovered & bit:
                break
        for idx in options:
            chosen.append(idx)
            branch(covered | masks[idx], chosen)
            chosen.pop()

    branch(0, [])
    witness = Covering(tuple(_matching_of(edges, masks[i]) for i in best_choice))
    if not verify_covering(g, witness, l, m):
        raise InvariantError(f"brute-force witness is not an [{l},{m}]-covering")
    return IndexResult(best_size, witness, RULE_SEARCH)


def enumerate_labeled_graphs(n: int):
    """All 2^C(n,2) labeled graphs on n vertices, in subset order."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = frozenset(pairs[i] for i in range(len(pairs)) if (bits >> i) & 1)
        yield SimpleGraph(n, edges)


def random_graph(rng: random.Random, n: int) -> SimpleGraph:
    p = rng.random()
    edges = frozenset(pair for pair in combinations(range(n), 2) if rng.random() < p)
    return SimpleGraph(n, edges)


class SweepConfig(_Value):
    """Scope of :func:`small_graph_sweep`; ``samples_per_size`` random graphs
    are drawn for each vertex count above ``exhaustive_limit``.  It counts
    draws: the sweep checks a repeated draw once."""

    __slots__ = _fields = ("max_vertices", "max_m", "seed", "samples_per_size", "exhaustive_limit")

    def __init__(
        self, max_vertices: int = 5, max_m: int = 5, seed: int = 0, samples_per_size: int = 40, exhaustive_limit: int = 5
    ) -> None:
        object.__setattr__(self, "max_vertices", max_vertices)
        object.__setattr__(self, "max_m", max_m)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "samples_per_size", samples_per_size)
        object.__setattr__(self, "exhaustive_limit", exhaustive_limit)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.max_m < 1:
            raise ParameterError(f"max_m must be at least 1, got {self.max_m}")
        for name in ("max_vertices", "samples_per_size", "exhaustive_limit"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be non-negative, got {getattr(self, name)}")


def _sweep_graphs(config: SweepConfig):
    rng = random.Random(config.seed)
    for n in range(0, min(config.max_vertices, config.exhaustive_limit) + 1):
        yield from enumerate_labeled_graphs(n)
    for n in range(config.exhaustive_limit + 1, config.max_vertices + 1):
        for _ in range(config.samples_per_size):
            yield random_graph(rng, n)


def _relabelling_key(g: SimpleGraph) -> tuple[int, int]:
    """``(n, edge bitmask of g relabelled)``, where the vertices are numbered in
    order of (degree, sorted degrees of the neighbours, label) and the pair
    (i, j) is bit i * n + j.

    A key is the edge set of a relabelling of ``g``, so graphs with equal keys
    are isomorphic.  The key is not a canonical form: isomorphic graphs may
    get different keys.
    """
    n = g.vertex_count
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    order = sorted(range(n), key=lambda v: (len(neighbours[v]), sorted(len(neighbours[w]) for w in neighbours[v])))
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    mask = 0
    for u, v in g.edges:
        i, j = sorted((position[u], position[v]))
        mask |= 1 << (i * n + j)
    return n, mask


def _reference_rows(g: SimpleGraph, max_m: int) -> tuple[tuple[int | float, ...], ...]:
    """Brute-force minimum [l,m]-cover values of ``g``: row l - 1 holds
    m = l..top, where top = min(max_m, nu + 1).

    The matchings are enumerated once and filtered by size per window, which
    keeps each window's candidates in canonical order.  No matching has more
    than nu edges, so a window (l, m) has the candidates of
    (min(l, top), min(m, top)), and (l, nu + 1) those of (l, nu) for l <= nu;
    it takes that value, since the brute-force result depends only on the
    graph and the candidates (see :func:`min_cover_bruteforce`).
    """
    masks = _matching_masks(g.sorted_edges(), 1, max_m, 1_000_000)
    nu = max(map(int.bit_count, masks), default=0)
    top = min(max_m, nu + 1)
    rows = []
    for l in range(1, top + 1):
        row: list[int | float] = []
        for m in range(l, top + 1):
            check_budget()
            if l <= nu < m:
                row.append(row[-1])
            else:
                candidates = [mask for mask in masks if l <= mask.bit_count() <= m]
                row.append(min_cover_bruteforce(g, l, m, candidates=candidates).value)
        rows.append(tuple(row))
    return tuple(rows)


def small_graph_sweep(config: SweepConfig) -> list[dict]:
    """Compare the closed form, the two-branch algorithm, the pairwise
    reduction, and the brute-force minimum cover on every graph in scope.

    The brute-force values are computed once per relabelling key (see
    :func:`_relabelling_key`) and shared by every later graph with that key.
    That is exact: equal keys mean isomorphic graphs, and isomorphic graphs
    have the same minimum [l,m]-covers; isomorphic graphs with different keys
    just share nothing.  The key table belongs to one call and holds tuples
    of values, never graphs.  Every other route runs on every distinct
    labelled graph.
    A graph's windows, visited in order with one budget check each, share
    its work: its brute-force values come from one matching enumeration
    (see :func:`_reference_rows`), and the pairwise route is a running
    minimum of the closed form's [i,i+1] values, the expression
    ``lm_index_via_pairs`` evaluates.
    A random sample equal to one already swept is skipped: every route is
    deterministic, so its records would repeat the first copy's.
    A window's route and record lists are built only when one of its values
    disagrees with the reference.
    Returns one record per disagreement (expected: none); each route verifies its own witnesses.
    """
    records: list[dict] = []
    swept: set[str] = set()  # graph6 strings, not graphs, which would keep their memos alive
    references: dict[tuple[int, int], tuple[tuple[int | float, ...], ...]] = {}
    for g in _sweep_graphs(config):
        if g.vertex_count > config.exhaustive_limit:  # only samples repeat
            code = encode_graph6(g)
            if code in swept:
                continue
            swept.add(code)
        key = _relabelling_key(g)
        rows = references.get(key)
        if rows is None:
            rows = references[key] = _reference_rows(g, config.max_m)
        top = len(rows)
        pair_values: list[int | float] = []  # [i - 1]: the closed form's [i, i+1] value, filled while l = 1
        for l in range(1, config.max_m + 1):
            for m in range(l, config.max_m + 1):
                check_budget()
                reference = rows[min(l, top) - 1][min(m, top) - min(l, top)]
                if l == 1 < m:
                    pair_values.append(_excessive.excessive_lm_index(g, m - 1, m).value)
                formula = pair_values[l - 1] if m == l + 1 else _excessive.excessive_lm_index(g, l, m).value
                exc = _excessive.exc_algorithm(g, l, m).value
                if l < m:
                    pairs = formula if m == l + 1 else min(pairs, pair_values[m - 2])
                if formula != reference or exc != reference or (l < m and pairs != reference):
                    routes = [("formula", formula), ("exc", exc)]
                    if l < m:
                        routes.append(("pairs", pairs))
                    for check, value in routes:
                        if value != reference:
                            records.append({"graph6": encode_graph6(g), "l": l, "m": m, "main": _json_value(value),
                                            "oracle": _json_value(reference), "check": check})
    return records
