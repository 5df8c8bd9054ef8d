#!/usr/bin/env python3
"""Print two sha256 digests: one over the values, rule tags and witnesses of
every route, one over the values and rule tags alone.

The graph set is the sweep of ``SweepConfig(6, 5, seed=1,
samples_per_size=500)``, 150 seeded G(7-8, p) from ``random.Random(7)`` and
the Petersen graph.  Per graph it hashes:

- value, rule and witness of ``excessive_lm_index`` and ``exc_algorithm``
  for 1 <= l <= m <= 5, and of ``excessive_m_index`` for m <= 5;
- ``index_result_to_json`` of each [l,m]-result, the optimal m-bounded
  colouring for m <= 5, the chromatic index, and the coherence and
  compatibility report JSON;
- ``min_cover_bruteforce`` for 1 <= l <= m <= 3 on the first 1,200 graphs.

The second digest hashes, per graph, the chromatic index, the (value, rule)
pair of every index route above and the coherence and compatibility report
JSON, none of which holds a witness.  A change that must keep every output
byte-identical keeps both digests; a change that may move witnesses keeps
the second.  The expected lines are stored in
``tests/data/witness_digest.txt``.  Run it with
``PYTHONPATH=src python scripts/witness_digest.py`` (about 10 s on a 2-vCPU
host).
"""

from __future__ import annotations

import hashlib
import json
import random

from excfact import (
    chromatic_index,
    coherence_report,
    compatibility_report,
    covering_to_json,
    exc_algorithm,
    excessive_lm_index,
    excessive_m_index,
    optimal_m_bounded_coloring,
)
from excfact.analysis import coherence_report_to_json, compatibility_report_to_json
from excfact.excessive import index_result_to_json
from excfact.families import petersen
from excfact.oracle import SweepConfig, _sweep_graphs, min_cover_bruteforce, random_graph

MAX_M = 5
ORACLE_MAX_M = 3
ORACLE_GRAPHS = 1_200


def _graphs():
    yield from _sweep_graphs(SweepConfig(6, MAX_M, seed=1, samples_per_size=500))
    rng = random.Random(7)
    for _ in range(150):
        yield random_graph(rng, rng.randint(7, 8))
    yield petersen()


def _result(r) -> list:
    return [r.value, r.rule, None if r.witness is None else covering_to_json(r.witness)]


def _bounded(c) -> dict:  # an m-bounded colouring's record: colour count and classes
    return {"k": len(c), "classes": covering_to_json(c)["matchings"]}


def _records(index: int, g) -> tuple[dict, dict]:
    """The full record of ``g`` and its witness-free part."""
    windows = [(l, m) for l in range(1, MAX_M + 1) for m in range(l, MAX_M + 1)]
    routes = {
        "m_index": [excessive_m_index(g, m) for m in range(1, MAX_M + 1)],
        "lm_index": [excessive_lm_index(g, l, m) for l, m in windows],
        "exc": [exc_algorithm(g, l, m) for l, m in windows],
    }
    if index < ORACLE_GRAPHS:
        routes["oracle"] = [
            min_cover_bruteforce(g, l, m)
            for l in range(1, ORACLE_MAX_M + 1)
            for m in range(l, ORACLE_MAX_M + 1)
        ]
    values: dict = {
        "graph": [g.vertex_count, g.sorted_edges()],
        "chi": chromatic_index(g),
        "coherence": [coherence_report_to_json(coherence_report(g, l, m)) for l, m in windows],
        "compat": compatibility_report_to_json(compatibility_report(g, MAX_M)),
    }
    record = {
        **values,
        **{name: [_result(r) for r in results] for name, results in routes.items()},
        "json": [index_result_to_json(g, l, m, r) for (l, m), r in zip(windows, routes["lm_index"])],
        "bounded": [  # an edgeless graph has no m-bounded colouring
            _bounded(optimal_m_bounded_coloring(g, m)) for m in range(1, MAX_M + 1)
        ] if g.edges else None,
    }
    values.update({name: [[r.value, r.rule] for r in results] for name, results in routes.items()})
    return record, values


def main() -> int:
    digests = hashlib.sha256(), hashlib.sha256()
    for index, g in enumerate(_graphs()):
        for digest, part in zip(digests, _records(index, g)):
            digest.update(json.dumps(part, sort_keys=True).encode() + b"\n")
    for digest in digests:
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
