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

from excfact import encode_graph6
from excfact.analysis import find_incoherence_example


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-vertices", type=int, default=8)
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
