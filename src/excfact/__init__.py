"""Excessive [l,m]-factorizations of graphs.

Exact computation of excessive [l,m]-indices with witness coverings,
equalized edge colourings, compatibility and coherence analyses, and
brute-force oracles that double-check everything at desk scale.

``import excfact`` loads no submodule: a public name imports its home module
the first time it is used, so a caller pays only for the layers it runs.
"""

from importlib import import_module

#: each public name and the module that defines it
_HOME = {
    "BudgetExceededError": "errors",
    "CoherenceReport": "analysis",
    "CompatibilityReport": "analysis",
    "Covering": "graphs",
    "Edge": "graphs",
    "EnumerationCapError": "errors",
    "FormatError": "errors",
    "INFINITY": "excessive",
    "IndexResult": "excessive",
    "InvariantError": "errors",
    "Matching": "graphs",
    "ParameterError": "errors",
    "PreconditionError": "errors",
    "SimpleGraph": "graphs",
    "chromatic_index": "coloring",
    "coherence_report": "analysis",
    "compatibility_function": "analysis",
    "compatibility_index": "analysis",
    "compatibility_report": "analysis",
    "covering_from_json": "graphs",
    "covering_to_json": "graphs",
    "encode_graph6": "graphs",
    "equalize": "coloring",
    "exc_algorithm": "excessive",
    "excessive_lm_index": "excessive",
    "excessive_m_index": "excessive",
    "extend_to_lm_matching": "matching",
    "find_k_edge_coloring": "coloring",
    "format_edge_list": "graphs",
    "is_lm_compatible": "analysis",
    "is_lm_coverable": "matching",
    "lm_index_via_pairs": "excessive",
    "maximum_matching": "matching",
    "optimal_m_bounded_coloring": "coloring",
    "parse_edge_list": "graphs",
    "parse_graph6": "graphs",
    "verify_covering": "graphs",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
