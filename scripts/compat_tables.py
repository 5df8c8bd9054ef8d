#!/usr/bin/env python3
"""Tabulate compatibility indices and functions for a zoo of named graphs.

Emits one CSV block per graph: the compatibility index, the threshold
function f over m = 1..max_m, and which windows [l, m] are coherent.
"""

from __future__ import annotations

import argparse

from excfact import coherence_report, compatibility_report
from excfact.analysis import f_table_csv
from excfact.cli import decimal
from excfact.families import complete, cycle, path, petersen, star


def named_graphs():
    return {
        "petersen": petersen(),
        "c4": cycle(4),
        "c5": cycle(5),
        "c6": cycle(6),
        "k4": complete(4),
        "k13": star(3),
        "p4": path(4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=decimal, default=5)
    args = parser.parse_args(argv)
    if args.max_m < 1:
        parser.error("--max-m must be at least 1")

    for name, g in named_graphs().items():
        report = compatibility_report(g, args.max_m)
        print(f"## {name}: |V|={g.vertex_count} |E|={g.edge_count} com={report.com}")
        print(f_table_csv(report), end="")
        incoherent = [
            (l, m)
            for l in range(1, args.max_m + 1)
            for m in range(l + 1, args.max_m + 1)
            if not coherence_report(g, l, m).coherent
        ]
        print(f"incoherent windows: {incoherent or 'none'}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
