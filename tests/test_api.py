"""The public API: exactly the names the CLI, the scripts, the acceptance
gate and the paper's objects need."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import excfact

PUBLIC = [
    "BudgetExceededError",
    "CoherenceReport",
    "CompatibilityReport",
    "Covering",
    "Edge",
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
    # the walk reaches imports inside function bodies, such as the CLI's deferred ones
    assert {"analysis", "oracle"} <= _relative_imports("cli")


def _fresh(code: str):
    """What ``code`` prints as JSON when run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_only_the_layers_it_runs():
    loaded = set(_fresh("import sys, excfact.cli, json; print(json.dumps(sorted(sys.modules)))"))
    assert {"excfact.cli", "excfact.excessive"} <= loaded
    assert not {"excfact.analysis", "excfact.oracle", "dataclasses", "inspect"} & loaded


NAMESPACE_PROBE = """
import json, sys
import excfact
loaded = sorted(m for m in sys.modules if m.startswith("excfact."))
star = {}
exec("from excfact import *", star)
try:
    excfact.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
from excfact import analysis, oracle
print(json.dumps({
    "loaded": loaded,
    "star": sorted(name for name in star if not name.startswith("__")),
    "same": all(star[name] is getattr(excfact, name) for name in excfact.__all__),
    "dir": sorted(set(excfact.__all__) - set(dir(excfact))),
    "unknown": unknown,
    "submodules": [analysis.__name__, oracle.__name__],
}))
"""


def test_package_import_is_lazy_and_resolves_every_public_name():
    found = _fresh(NAMESPACE_PROBE)
    assert found["loaded"] == []  # ``import excfact`` alone loads no submodule
    assert found["star"] == PUBLIC and found["same"]
    assert found["dir"] == []
    assert found["unknown"] == "AttributeError"
    assert found["submodules"] == ["excfact.analysis", "excfact.oracle"]
