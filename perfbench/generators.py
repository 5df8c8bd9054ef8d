"""Seeded graph generators for the benchmark inputs.

Every generator is deterministic for a given ``random.Random`` state, so a
workload seed fixes the whole input set.  Vertices are ``0..n-1``.
"""

from __future__ import annotations

import random
from itertools import combinations

from excfact.graphs import SimpleGraph


def random_regular(n: int, d: int, rng: random.Random) -> SimpleGraph:
    """Uniform-ish random d-regular simple graph: configuration model with rejection.

    Stubs are paired by a random shuffle; a pairing with a loop or a repeated
    pair is thrown away whole, which keeps the accepted graphs uniform.
    """
    if d >= n or (n * d) % 2:
        raise ValueError(f"no {d}-regular simple graph on {n} vertices")
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = set()
        for u, v in zip(stubs[::2], stubs[1::2]):
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return SimpleGraph(n, frozenset(edges))


def generalized_petersen(n: int, k: int) -> SimpleGraph:
    """GP(n, k): outer n-cycle, spokes, inner star polygon with step k."""
    if n < 3 or not 1 <= k < n / 2:
        raise ValueError(f"GP({n}, {k}) needs n >= 3 and 1 <= k < n/2")
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return SimpleGraph(2 * n, frozenset(outer + spokes + inner))


def flower_snark(k: int) -> SimpleGraph:
    """Flower snark J_k (odd k >= 3): 4k vertices, cubic, chromatic index 4.

    Star i has centre a_i = 4i and leaves b_i, c_i, d_i; the b's form a
    k-cycle and the c's and d's together one 2k-cycle with a twist.
    """
    if k < 3 or k % 2 == 0:
        raise ValueError("flower snarks J_k need odd k >= 3")
    a, b, c, d = (lambda i: 4 * i), (lambda i: 4 * i + 1), (lambda i: 4 * i + 2), (lambda i: 4 * i + 3)
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(a(i), b(i)), (a(i), c(i)), (a(i), d(i)), (b(i), b(j))]
        if j:
            edges += [(c(i), c(j)), (d(i), d(j))]
        else:  # the twist closes c and d into a single cycle
            edges += [(c(i), d(j)), (d(i), c(j))]
    return SimpleGraph(4 * k, frozenset(edges))


def complete(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset(combinations(range(n), 2)))


def path(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def grid(rows: int, cols: int) -> SimpleGraph:
    """The rows x cols grid graph; vertex (r, c) is r * cols + c."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return SimpleGraph(rows * cols, frozenset(edges))


def gnp(n: int, p: float, rng: random.Random) -> SimpleGraph:
    """Erdos-Renyi G(n, p): each pair independently with probability p."""
    return SimpleGraph(n, frozenset(e for e in combinations(range(n), 2) if rng.random() < p))
