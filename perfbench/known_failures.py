"""The failures known at the seed commit, checked one by one.

These cases are kept out of the measured workloads, which must run without
failed ops; this script shows which of them still fail.  It prints one JSON
line per case and a summary line, and exits 0 either way::

    python3 perfbench/run.py --known-failures
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

from worker import SRC, import_excfact


def cli_budget_zero() -> dict:
    """``analyze --budget-ms 0`` should exit 3 (budget exceeded) with JSON."""
    from excfact.graphs import format_edge_list

    import generators as gen

    with tempfile.TemporaryDirectory(dir=SRC.parent / ".perfbench") as tmp:
        graph = os.path.join(tmp, "petersen.el")
        with open(graph, "w") as fh:
            fh.write(format_edge_list(gen.generalized_petersen(5, 2)))
        argv = ["analyze", "--graph", graph, "--compat", "--budget-ms", "0"]
        proc = subprocess.run([sys.executable, "-m", "excfact.cli", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    traceback = "Traceback" in proc.stderr
    return {
        "case": "excfact analyze --compat --budget-ms 0 (Petersen)",
        "expected": "exit 3 (documented)",
        "observed": f"exit {proc.returncode}" + (" with a traceback" if traceback else ""),
        "still_failing": proc.returncode != 3 or traceback,
    }


def deep_index(name: str, g, l: int, m: int, value: int) -> dict:
    """Large sparse graphs whose colouring search recurses once per edge."""
    from excfact.excessive import excessive_lm_index

    try:
        got = excessive_lm_index(g, l, m).value
        observed = f"value {got}"
        failing = got != value
    except RecursionError:
        observed, failing = "RecursionError", True
    return {"case": f"excessive_lm_index({name}, {l}, {m})", "expected": f"value {value}",
            "observed": observed, "still_failing": failing}


def main() -> int:
    import_excfact()
    import generators as gen

    (SRC.parent / ".perfbench").mkdir(exist_ok=True)
    cases = [
        cli_budget_zero(),
        deep_index("cycle(1000)", gen.cycle(1000), 1, 500, 2),
        deep_index("path(1100)", gen.path(1100), 1, 549, 3),
        deep_index("grid(23, 24)", gen.grid(23, 24), 1, 264, 5),
    ]
    for case in cases:
        print(json.dumps(case))
    print(json.dumps({"known_failures": len(cases), "still_failing": sum(c["still_failing"] for c in cases)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
