"""Command-line front end.

Subcommands: ``index`` (excessive [l,m]-index of a graph file), ``analyze``
(compatibility / coherence reports), ``sweep`` (main path vs brute-force
oracle over small graphs), ``render`` (DOT drawing of a covering).  Output
is JSON (or JSON lines / DOT) on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 input error, 2 the requested index is infinite,
3 time budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .budget import time_budget
from .errors import BudgetExceededError, EnumerationCapError, FormatError, ParameterError, PreconditionError
from .excessive import exc_algorithm, excessive_lm_index, index_result_to_json
from .graphs import Covering, SimpleGraph, _decimal, covering_from_json, covering_violations, parse_edge_list, parse_graph6
# analysis and oracle are imported inside the commands that run them, so the others start faster

FORMAT_VERSION = 1

_PALETTE = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#a65628",
    "#f781bf", "#999999", "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3",
]


def _read_text(path_text: str) -> str:
    try:
        return Path(path_text).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path_text}: {exc}") from exc


def _load_graph(path_text: str) -> SimpleGraph:
    parse = parse_graph6 if Path(path_text).suffix == ".g6" else parse_edge_list
    return parse(_read_text(path_text))


def decimal(token: str, expected: str = "ASCII decimal digits") -> int:
    """The argparse type of every integer flag: the graph formats' digit rule,
    so a sign, a space, an underscore or a non-ASCII digit is a usage error."""
    try:
        return _decimal(token)
    except FormatError as exc:  # too many digits; the token is not repeated
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects {expected}, got {token!r}") from None


def _decimal_or_inf(token: str) -> int | None:
    """``index --m``: None for ``inf``, which needs the graph."""
    return None if token == "inf" else decimal(token, "ASCII decimal digits or 'inf'")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ParameterError, so it leaves ``main`` as one
    ``error:`` line with exit 1 like any other input error."""

    def error(self, message: str):
        raise ParameterError(message)


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _budget_exceeded(**extra) -> int:
    _emit({"format_version": FORMAT_VERSION, "outcome": "budget_exceeded", **extra})
    print("time budget exceeded; no exact value reported", file=sys.stderr)
    return 3


def _cmd_index(args) -> int:
    if args.l < 1:  # checked, like the flags' syntax, before the graph is read
        raise ParameterError("--l must be at least 1")
    g = _load_graph(args.graph)
    m = args.m
    if m is None:  # --m inf
        # matchings never exceed the edge count, so this cap is exact;
        # max() keeps the window nonempty on edgeless graphs
        m = max(g.edge_count, args.l)
    try:
        with time_budget(args.budget_ms):
            if args.method == "formula":
                result = excessive_lm_index(g, args.l, m)
            elif args.method == "exc":
                result = exc_algorithm(g, args.l, m)
            else:
                from .oracle import min_cover_bruteforce

                result = min_cover_bruteforce(g, args.l, m)
            # the report's lower-bound check reads chi', which the oracle route never computed
            payload = index_result_to_json(g, args.l, m, result, include_witness=args.witness)
    except BudgetExceededError:
        d = g.max_degree()
        return _budget_exceeded(chromatic_index_bracket=[d, d + 1])
    _emit({"format_version": FORMAT_VERSION, **payload})
    return 0 if result.finite else 2


def _cmd_analyze(args) -> int:
    from .analysis import coherence_report, coherence_report_to_json, compatibility_report, compatibility_report_to_json

    if not args.compat and not args.coherence:
        raise ParameterError("nothing to do: pass --compat and/or --coherence")
    if args.coherence and (args.l is None or args.m is None):
        raise ParameterError("--coherence requires --l and --m")
    g = _load_graph(args.graph)
    out: dict = {"format_version": FORMAT_VERSION}
    try:
        with time_budget(args.budget_ms):
            if args.compat:
                out["compatibility"] = compatibility_report_to_json(
                    compatibility_report(g, args.max_m)
                )
            if args.coherence:
                out["coherence"] = coherence_report_to_json(coherence_report(g, args.l, args.m))
    except BudgetExceededError:
        return _budget_exceeded()
    _emit(out)
    return 0


def _cmd_sweep(args) -> int:
    from .oracle import SweepConfig, small_graph_sweep

    config = SweepConfig(max_vertices=args.max_vertices, max_m=args.max_m, seed=args.seed)
    start = time.monotonic()
    try:
        with time_budget(args.budget_ms):
            records = small_graph_sweep(config)
    except BudgetExceededError:
        return _budget_exceeded()
    for record in records:
        print(json.dumps(record))
    scope = f"n<={config.max_vertices}, m<={config.max_m}, seed={config.seed}"
    print(f"# sweep {scope}: {len(records)} discrepancies in {time.monotonic() - start:.1f}s", file=sys.stderr)
    return 0 if not records else 1


def _cmd_render(args) -> int:
    g = _load_graph(args.graph)
    text = _read_text(args.witness)
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer past int()'s digit limit, or nesting
        raise FormatError(f"cannot read witness JSON: {exc}") from exc
    if isinstance(obj, dict) and "witness" in obj:
        obj = obj["witness"]
    covering = covering_from_json(obj)
    problems = covering_violations(g, covering, 0, max(g.edge_count, 1))
    if problems:
        for line in problems:
            print(f"invalid witness: {line}", file=sys.stderr)
        return 1
    print(_render_dot(g, covering))
    return 0


def _render_dot(g: SimpleGraph, covering: Covering) -> str:
    membership: dict = {e: [] for e in g.sorted_edges()}
    for idx, matching in enumerate(covering.matchings, start=1):
        for e in matching.edges:
            membership[e].append(idx)
    lines = [
        "graph covering {",
        f"  // format_version {FORMAT_VERSION}",
        "  node [shape=circle];",
    ]
    lines.extend(f"  {v};" for v in range(g.vertex_count))
    for (u, v), ids in membership.items():
        colour = _PALETTE[(ids[0] - 1) % len(_PALETTE)]
        label = ",".join(str(i) for i in ids)
        style = ', style=bold' if len(ids) > 1 else ""
        lines.append(f'  {u} -- {v} [label="{label}", color="{colour}"{style}];')
    lines.append("}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="excfact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    index = sub.add_parser("index", help="compute an excessive [l,m]-index")
    index.add_argument("--graph", required=True, help="graph file (.g6 graph6, otherwise edge list)")
    index.add_argument("--l", type=decimal, required=True)
    index.add_argument("--m", type=_decimal_or_inf, required=True, help="integer or 'inf'")
    index.add_argument("--method", choices=["formula", "exc", "oracle"], default="formula")
    index.add_argument("--budget-ms", type=decimal, default=10_000)
    index.add_argument("--witness", action="store_true", help="include the witness covering")
    index.set_defaults(func=_cmd_index)

    analyze = sub.add_parser("analyze", help="compatibility / coherence reports")
    analyze.add_argument("--graph", required=True)
    analyze.add_argument("--compat", action="store_true")
    analyze.add_argument("--max-m", type=decimal, default=5)
    analyze.add_argument("--coherence", action="store_true")
    analyze.add_argument("--l", type=decimal)
    analyze.add_argument("--m", type=decimal)
    analyze.add_argument("--budget-ms", type=decimal, default=10_000)
    analyze.set_defaults(func=_cmd_analyze)

    sweep = sub.add_parser("sweep", help="cross-check the main path against the oracle")
    sweep.add_argument("--max-vertices", type=decimal, default=4)
    sweep.add_argument("--max-m", type=decimal, default=4)
    sweep.add_argument("--seed", type=decimal, default=0)
    sweep.add_argument("--budget-ms", type=decimal, default=10_000)
    sweep.set_defaults(func=_cmd_sweep)

    render = sub.add_parser("render", help="DOT drawing of a covering witness")
    render.add_argument("--graph", required=True)
    render.add_argument("--witness", required=True, help="JSON file with the covering")
    render.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # the parser exits only after printing --help, with 0
        return exc.code
    except (EnumerationCapError, FormatError, ParameterError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
