#!/usr/bin/env python3
"""Search small graphs for a strict incoherence witness.

Finds the first graph (by vertex count, then edge subset order) whose
[2,3]-index equals its chromatic index 3 while both fixed-size indices at
2 and 3 equal 4.  The first hit is frozen as tests/data/incoherent_2_3.g6;
rerun this to reproduce it.
"""

from __future__ import annotations

import argparse
import time
from itertools import combinations

from excfact import SimpleGraph, chromatic_index, encode_graph6, excessive_lm_index, excessive_m_index
from excfact.cli import decimal


def find_incoherence_example(max_vertices: int = 8) -> SimpleGraph | None:
    """Search for the smallest graph witnessing strict incoherence.

    Looks for a graph with chromatic index ``chi`` = 3 whose [2,3]-index is
    ``chi`` while both fixed-size indices at 2 and 3 equal 4 > ``chi``.  The
    edge count is pinned by the requirement 2 < |E|/chi < 3, which keeps the
    enumeration manageable.
    """
    chi, low, high, target = 3, 2, 3, 4
    for n in range(4, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for edge_total in range(low * chi + 1, high * chi):
            for combo in combinations(pairs, edge_total):
                g = SimpleGraph(n, frozenset(combo))
                if g.max_degree() > chi or len({v for e in combo for v in e}) < n:
                    continue
                if chromatic_index(g) != chi:
                    continue
                if excessive_m_index(g, high).value != target:
                    continue
                if excessive_m_index(g, low).value != target:
                    continue
                if excessive_lm_index(g, low, high).value != chi:
                    continue
                return g
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=decimal, default=8)
    args = parser.parse_args()

    start = time.monotonic()
    g = find_incoherence_example(max_vertices=args.max_vertices)
    elapsed = time.monotonic() - start
    if g is None:
        print(f"no witness found up to {args.max_vertices} vertices ({elapsed:.1f}s)")
        return 1
    print(f"found on {g.vertex_count} vertices, {g.edge_count} edges ({elapsed:.1f}s)")
    print(f"graph6: {encode_graph6(g)}")
    print(f"edges:  {g.sorted_edges()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
