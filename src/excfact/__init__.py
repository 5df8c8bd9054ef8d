"""Excessive [l,m]-factorizations of graphs.

Exact computation of excessive [l,m]-indices with witness coverings,
equalized edge colourings, compatibility and coherence analyses, and
brute-force oracles that double-check everything at desk scale.
"""

from .analysis import (
    CoherenceReport,
    CompatibilityReport,
    coherence_report,
    compatibility_function,
    compatibility_index,
    compatibility_report,
    is_lm_compatible,
)
from .coloring import (
    EdgeColoring,
    chromatic_index,
    equalize,
    find_k_edge_coloring,
    optimal_m_bounded_coloring,
)
from .errors import (
    BudgetExceededError,
    EnumerationCapError,
    FormatError,
    InvariantError,
    ParameterError,
    PreconditionError,
)
from .excessive import (
    INFINITY,
    IndexResult,
    exc_algorithm,
    excessive_lm_index,
    excessive_m_index,
    lm_index_via_pairs,
    verify_covering,
)
from .graphs import (
    Covering,
    Edge,
    Matching,
    SimpleGraph,
    covering_from_json,
    covering_to_json,
    encode_graph6,
    format_edge_list,
    parse_edge_list,
    parse_graph6,
)
from .matching import (
    extend_to_lm_matching,
    is_lm_coverable,
    maximum_matching,
)

__all__ = [
    "BudgetExceededError",
    "CoherenceReport",
    "CompatibilityReport",
    "Covering",
    "Edge",
    "EdgeColoring",
    "EnumerationCapError",
    "FormatError",
    "INFINITY",
    "IndexResult",
    "InvariantError",
    "Matching",
    "ParameterError",
    "PreconditionError",
    "SimpleGraph",
    "chromatic_index",
    "coherence_report",
    "compatibility_function",
    "compatibility_index",
    "compatibility_report",
    "covering_from_json",
    "covering_to_json",
    "encode_graph6",
    "equalize",
    "exc_algorithm",
    "excessive_lm_index",
    "excessive_m_index",
    "extend_to_lm_matching",
    "find_k_edge_coloring",
    "format_edge_list",
    "is_lm_compatible",
    "is_lm_coverable",
    "lm_index_via_pairs",
    "maximum_matching",
    "optimal_m_bounded_coloring",
    "parse_edge_list",
    "parse_graph6",
    "verify_covering",
]
