"""The public API: exactly the names the CLI, the scripts, the acceptance
gate and the paper's objects need."""

from __future__ import annotations

import excfact

PUBLIC = [
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
    "Multigraph",
    "ParameterError",
    "PreconditionError",
    "SimpleGraph",
    "StructuralError",
    "chromatic_index",
    "coherence_report",
    "compatibility_function",
    "compatibility_index",
    "compatibility_report",
    "covering_from_json",
    "covering_induced_by_coloring",
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
    "underlying_simple",
    "verify_covering",
]


def test_public_names_are_the_decided_set():
    assert sorted(excfact.__all__) == PUBLIC
    assert all(hasattr(excfact, name) for name in PUBLIC)
