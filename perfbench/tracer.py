"""Spans around excfact's public functions, for the traced run.

Each listed function is replaced, in every excfact module that holds it, by
a wrapper that records a span; internal calls between modules therefore go
through the wrappers too.  Object validation (the ``__post_init__`` of the
value types) gets spans as well.  ``check_budget`` is not given spans: each
call is counted against the innermost open search span instead, which makes
it a search-node counter.

Per span name the tracer keeps calls, total time and self time (total minus
the time covered by child spans) in memory, plus a capped log of individual
spans; :meth:`Tracer.write` stores both when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

#: (module, function) pairs that get spans, grouped by layer
SPANS = {
    "graphs": ("excfact.graphs", [
        "parse_graph6", "parse_edge_list", "encode_graph6", "format_edge_list",
        "covering_to_json", "covering_from_json", "induced_multigraph",
        "covering_induced_by_coloring", "underlying_simple",
    ]),
    "matching": ("excfact.matching", [
        "maximum_matching", "max_matching_with_forced", "extends_to_lm_matching",
        "extend_to_lm_matching", "is_lm_coverable",
    ]),
    "coloring": ("excfact.coloring", [
        "chromatic_index", "find_k_edge_coloring", "equalize", "equalized_k_coloring",
        "optimal_m_bounded_coloring",
    ]),
    "excessive": ("excfact.excessive", [
        "excessive_lm_index", "excessive_m_index", "exc_algorithm", "lm_index_via_pairs",
        "verify_covering", "covering_violations", "index_result_to_json",
    ]),
    "analysis": ("excfact.analysis", [
        "is_lm_compatible", "compatibility_index", "compatibility_function",
        "compatibility_report", "coherence_report",
    ]),
    "oracle": ("excfact.oracle", [
        "all_matchings", "min_cover_bruteforce", "chromatic_index_bruteforce",
        "max_matching_size_bruteforce", "small_graph_sweep",
    ]),
    "cli": ("excfact.cli", ["main"]),
}

#: value types whose construction validates its input
VALIDATED = {
    "graphs": ("excfact.graphs", ["SimpleGraph", "Multigraph", "Matching", "Covering"]),
    "coloring": ("excfact.coloring", ["EdgeColoring"]),
}

#: spans that run an exponential search, and the layer their nodes count for
SEARCHES = {
    "find_k_edge_coloring": "coloring",
    "excessive_m_index": "excessive",
    "min_cover_bruteforce": "oracle",
    "chromatic_index_bruteforce": "oracle",
}

SPAN_LOG_CAP = 100_000


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        self.search_nodes: Counter[str] = Counter()
        self.matchings_enumerated = 0
        self.log: list[tuple] = []
        self.dropped = 0
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._search: list[str] = ["none"]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for _layer, (mod_name, names) in SPANS.items():
            mod = sys.modules.get(mod_name)
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    self.missing.append(f"{mod_name}.{name}")
                    continue
                self._rebind(orig, self._span(name, orig))
        for _layer, (mod_name, names) in VALIDATED.items():
            mod = sys.modules.get(mod_name)
            for name in names:
                cls = getattr(mod, name, None)
                post_init = getattr(cls, "__post_init__", None)
                if post_init is None:
                    self.missing.append(f"{mod_name}.{name}.__post_init__")
                    continue
                self._restore.append((cls, "__post_init__", post_init))
                setattr(cls, "__post_init__", self._span(f"{name}.__post_init__", post_init))
        budget = sys.modules.get("excfact.budget")
        check = getattr(budget, "check_budget", None)
        if check is None:
            self.missing.append("excfact.budget.check_budget")
        else:
            self._rebind(check, self._counted_check(check))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _rebind(self, orig, replacement) -> None:
        """Replace ``orig`` under every name any excfact module binds it to."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "excfact" or mod_name.startswith("excfact."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, orig):
        stack, search = self._stack, self._search
        calls, total, self_time, log = self.calls, self.total, self.self_time, self.log
        search_kind = SEARCHES.get(name)
        is_main = name == "main"
        is_enumeration = name == "all_matchings"

        def wrapper(*args, **kwargs):
            span_name = name
            if is_main:
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"main:{argv[0] if argv else '?'}"
            frame = [0.0]
            stack.append(frame)
            if search_kind:
                search.append(search_kind)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
                if is_enumeration:
                    self.matchings_enumerated += len(result)
                return result
            finally:
                duration = perf_counter() - start
                if search_kind:
                    search.pop()
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[span_name] += 1
                total[span_name] += duration
                self_time[span_name] += duration - frame[0]
                if len(log) < SPAN_LOG_CAP:
                    log.append((self.op, span_name, len(stack), round(start, 7), round(duration, 7), round(duration - frame[0], 7)))
                else:
                    self.dropped += 1

        return wrapper

    def _counted_check(self, orig):
        search, nodes = self._search, self.search_nodes

        def check_budget():
            nodes[search[-1]] += 1
            return orig()

        return check_budget

    # -- results -----------------------------------------------------------

    def counts(self) -> dict:
        """Every count the tracer keeps; two traced passes over the same
        inputs must reproduce these exactly."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "search_nodes": dict(sorted(self.search_nodes.items())),
            "matchings_enumerated": self.matchings_enumerated,
        }

    def reset(self) -> None:
        for counter in (self.calls, self.total, self.self_time, self.search_nodes):
            counter.clear()
        self.matchings_enumerated = 0
        self.log.clear()
        self.dropped = 0

    def write(self, path: Path, extra: dict) -> None:
        spans = {
            name: {"calls": self.calls[name], "total_s": self.total[name], "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }
        payload = {
            **extra,
            "spans": spans,
            "search_nodes": dict(self.search_nodes),
            "missing": self.missing,
            "log_fields": ["op", "name", "depth", "start_s", "duration_s", "self_s"],
            "log": self.log,
            "log_dropped": self.dropped,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# per-layer metrics


def _self_ms(t: Tracer, *names: str):
    present = [n for n in names if t.calls[n]]
    return sum(t.self_time[n] for n in present) * 1000 if present else None


def _calls(t: Tracer, *names: str):
    total = sum(t.calls[n] for n in names)
    return total if total else None


def layer_metrics(t: Tracer, memo: dict, ops: int, cli_startup: dict | None) -> dict[str, tuple[float | None, str]]:
    """Per-layer metric -> (value or None when absent, unit).

    ``memo`` maps a memo's qualified name to its (hits, misses) over the
    pass and holds the peak entry count of the excessive memos.
    """
    validators = [f"{name}.__post_init__" for name in VALIDATED["graphs"][1]]
    budget_checks = sum(t.search_nodes.values())
    excessive_nodes = t.search_nodes.get("excessive", 0)
    forced = memo["hits_misses"].get("excfact.matching._forced_value")
    main = {cmd: _self_ms(t, f"main:{cmd}") for cmd in ("index", "analyze", "render", "sweep")}
    lm_calls = t.calls["excessive_lm_index"]
    m = {
        "graphs.parse_ms": (_self_ms(t, "parse_graph6", "parse_edge_list", "covering_from_json"), "ms"),
        "graphs.encode_ms": (_self_ms(t, "encode_graph6", "format_edge_list", "covering_to_json"), "ms"),
        "graphs.validate_ms": (_self_ms(t, *validators), "ms"),
        "graphs.objects": (_calls(t, *validators), "count"),
        "matching.maximum_matching_ms": (_self_ms(t, "maximum_matching"), "ms"),
        "matching.maximum_matching_calls": (_calls(t, "maximum_matching"), "count"),
        "matching.coverable_ms": (_self_ms(t, "is_lm_coverable"), "ms"),
        "matching.extend_ms": (_self_ms(t, "extend_to_lm_matching", "extends_to_lm_matching", "max_matching_with_forced"), "ms"),
        "matching.forced_hits": (forced[0] if forced else None, "count"),
        "matching.forced_misses": (forced[1] if forced else None, "count"),
        "matching.forced_hit_ratio": (forced[0] / (forced[0] + forced[1]) if forced and sum(forced) else None, "ratio"),
        "coloring.chromatic_index_ms": (_self_ms(t, "chromatic_index"), "ms"),
        "coloring.chromatic_index_calls": (_calls(t, "chromatic_index"), "count"),
        "coloring.find_k_ms": (_self_ms(t, "find_k_edge_coloring"), "ms"),
        "coloring.search_nodes": (t.search_nodes.get("coloring") if t.calls["find_k_edge_coloring"] else None, "count"),
        "coloring.equalize_ms": (_self_ms(t, "equalize", "equalized_k_coloring", "optimal_m_bounded_coloring"), "ms"),
        "coloring.validate_ms": (_self_ms(t, "EdgeColoring.__post_init__"), "ms"),
        "excessive.lm_index_self_ms": (_self_ms(t, "excessive_lm_index"), "ms"),
        "excessive.m_index_self_ms": (_self_ms(t, "excessive_m_index"), "ms"),
        "excessive.search_nodes": (excessive_nodes if t.calls["excessive_m_index"] else None, "count"),
        "excessive.search_share": (excessive_nodes / budget_checks if budget_checks and t.calls["excessive_m_index"] else None, "ratio"),
        "excessive.verify_ms": (_self_ms(t, "verify_covering", "covering_violations"), "ms"),
        "excessive.exc_algorithm_ms": (_self_ms(t, "exc_algorithm"), "ms"),
        "excessive.cache_entries": (memo["excessive_peak_entries"] if t.calls["excessive_lm_index"] or t.calls["excessive_m_index"] else None, "count"),
        "analysis.compat_self_ms": (_self_ms(t, "compatibility_report", "compatibility_function", "compatibility_index", "is_lm_compatible"), "ms"),
        "analysis.coherence_self_ms": (_self_ms(t, "coherence_report"), "ms"),
        "analysis.lm_calls_per_op": (lm_calls / ops if lm_calls and (t.calls["compatibility_report"] or t.calls["coherence_report"]) else None, "count"),
        "oracle.min_cover_ms": (_self_ms(t, "min_cover_bruteforce"), "ms"),
        "oracle.all_matchings_ms": (_self_ms(t, "all_matchings"), "ms"),
        "oracle.matchings_enumerated": (t.matchings_enumerated if t.calls["all_matchings"] else None, "count"),
        "oracle.search_nodes": (t.search_nodes.get("oracle") if t.calls["min_cover_bruteforce"] or t.calls["chromatic_index_bruteforce"] else None, "count"),
        "cli.interp_ms": ((cli_startup or {}).get("interp_ms"), "ms"),
        "cli.import_ms": ((cli_startup or {}).get("import_ms"), "ms"),
        "cli.index_ms": (main["index"], "ms"),
        "cli.analyze_ms": (main["analyze"], "ms"),
        "cli.render_ms": (main["render"], "ms"),
        "cli.sweep_ms": (main["sweep"], "ms"),
        "budget.checks": (budget_checks if budget_checks else None, "count"),
    }
    return m
