"""The public API: exactly the names the CLI, the scripts, the acceptance
gate and the paper's objects need."""

from __future__ import annotations

import ast
from pathlib import Path

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


def test_public_names_are_the_decided_set():
    assert sorted(excfact.__all__) == PUBLIC
    assert all(hasattr(excfact, name) for name in PUBLIC)


LAYERS = ["errors", "budget", "graphs", "families", "matching", "coloring", "excessive", "analysis", "oracle", "cli"]


def _relative_imports(module: str) -> set[str]:
    """The sibling modules ``module`` imports, ``if TYPE_CHECKING:`` blocks included."""
    tree = ast.parse((Path(excfact.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
    return found


def test_each_module_imports_only_the_layers_below_it():
    package = Path(excfact.__file__).parent
    assert sorted(LAYERS) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    for i, module in enumerate(LAYERS):
        upward = _relative_imports(module) - set(LAYERS[:i])
        assert not upward, f"{module} imports {sorted(upward)} from its own layer or above"
    # the oracle's independence: nothing of the main path's searches
    assert _relative_imports("oracle") <= {"budget", "errors", "excessive", "graphs"}
