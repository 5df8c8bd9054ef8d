"""Compatibility and coherence analyses.

A graph is [l,m]-compatible when its excessive [l,m]-index attains the
universal lower bound max(chi', ceil(|E|/m)); it is [l,m]-coherent when the
index equals the best achievable with a single fixed matching size in
[l, m].  Both notions reduce to threshold functions of l and m, which these
report builders tabulate.
"""

from __future__ import annotations

from itertools import combinations
from math import ceil

from .budget import check_budget
from .coloring import chromatic_index
from .errors import InvariantError, ParameterError
from .excessive import _json_value, excessive_lm_index, excessive_m_index
from .graphs import SimpleGraph, _Value
from .matching import maximum_matching


class CompatibilityReport(_Value):
    __slots__ = _fields = ("com", "f_table")

    def __init__(self, com: int, f_table: dict[int, int] | None = None) -> None:
        object.__setattr__(self, "com", com)
        object.__setattr__(self, "f_table", {} if f_table is None else f_table)

    @property
    def edgeless(self) -> bool:
        return not self.f_table


class CoherenceReport(_Value):
    __slots__ = _fields = ("l", "m", "coherent", "lhs", "rhs")

    def __init__(self, l: int, m: int, coherent: bool, lhs: int | float, rhs: int | float) -> None:
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coherent", coherent)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def characterization_holds(self) -> bool:
        """The incoherence test; ``coherence_report`` checks it equals ``not coherent``."""
        return not self.coherent


def is_lm_compatible(g: SimpleGraph, l: int, m: int) -> bool:
    """Whether the [l,m]-index equals max(chi', ceil(|E|/m)); never true when infinite."""
    result = excessive_lm_index(g, l, m)
    if not result.finite:
        return False
    return result.value == max(chromatic_index(g), ceil(g.edge_count / m))


def compatibility_index(g: SimpleGraph) -> int:
    """Largest l for which the excessive [l]-index attains its lower bound.

    Compatibility at a single size is downward closed in l (McDiarmid): if
    l >= 2 is compatible and (l-1) * chi' >= |E|, chi' matchings of size l
    cover E with at least chi' surplus edge instances; dropping chi' of them
    and equalizing leaves chi' matchings of size l-1 that cover E.  Else the
    ceiling regime makes l-1 (< nu, so coverable) compatible.  The scan
    stops at the first size that fails, never above nu; edgeless graphs get 0.
    """
    nu = len(maximum_matching(g))
    com = next((l - 1 for l in range(1, nu + 1) if not is_lm_compatible(g, l, l)), nu)
    if nu and not com:
        raise InvariantError("unreachable: [1,1]-compatibility always holds")
    return com


def compatibility_function(g: SimpleGraph, m: int) -> int:
    """Largest l <= m such that the graph is [l,m]-compatible: min(m, com), as
    for l <= m both [l,m]- and [l,l]-compatibility mean l-coverable and
    either l * chi' <= |E| or an [l]-index of chi'.
    """
    if m < 1:
        raise ParameterError("m must be at least 1")
    if not g.edges:
        raise ParameterError("graph has no edges")
    return min(m, compatibility_index(g))


def compatibility_report(g: SimpleGraph, max_m: int) -> CompatibilityReport:
    """com and the rows f(m) = min(m, com) for m = 1..max_m."""
    if max_m < 1:
        raise ParameterError("max_m must be at least 1")
    if not g.edges:
        return CompatibilityReport(com=0)
    com = compatibility_index(g)
    table = {}
    for m in range(1, max_m + 1):
        check_budget()
        table[m] = min(m, com)
    return CompatibilityReport(com=com, f_table=table)


def coherence_report(g: SimpleGraph, l: int, m: int) -> CoherenceReport:
    """Compare the [l,m]-index with the best fixed-size index over [l, m].

    The report also evaluates the incoherence test (the ratio |E|/chi' lies
    strictly between l and m, and the index at size ceil(|E|/chi') exceeds
    chi') and checks that it agrees with the definition-level comparison.
    """
    lhs = excessive_lm_index(g, l, m).value
    # every [i]-index with i > nu >= 1 is infinite; an edgeless graph's is 0
    top = min(m, max(l, len(maximum_matching(g))))
    rhs = min(excessive_m_index(g, i).value for i in range(l, top + 1))
    coherent = lhs == rhs
    chi = chromatic_index(g)
    edge_total = g.edge_count
    if l * chi < edge_total < m * chi:
        k = ceil(edge_total / chi)
        characterization = excessive_m_index(g, k).value > chi
    else:
        characterization = False
    if coherent == characterization:
        raise InvariantError("incoherence test disagrees with definition")
    return CoherenceReport(l=l, m=m, coherent=coherent, lhs=lhs, rhs=rhs)


def find_incoherence_example(max_vertices: int = 8) -> SimpleGraph | None:
    """Search for the smallest graph witnessing strict incoherence.

    Looks for a graph with chromatic index ``chi`` = 3 whose [2,3]-index is
    ``chi`` while both fixed-size indices at 2 and 3 equal 4 > ``chi``.  The
    edge count is pinned by the requirement 2 < |E|/chi < 3, which keeps the
    enumeration manageable.
    """
    chi, low, high, target = 3, 2, 3, 4
    for n in range(4, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for edge_total in range(low * chi + 1, high * chi):
            for combo in combinations(pairs, edge_total):
                g = SimpleGraph(n, frozenset(combo))
                if g.max_degree() > chi or len({v for e in combo for v in e}) < n:
                    continue
                if chromatic_index(g) != chi:
                    continue
                if excessive_m_index(g, high).value != target:
                    continue
                if excessive_m_index(g, low).value != target:
                    continue
                if excessive_lm_index(g, low, high).value != chi:
                    continue
                return g
    return None


def compatibility_report_to_json(report: CompatibilityReport) -> dict:
    return {
        "com": report.com,
        "f_table": {str(m): report.f_table[m] for m in sorted(report.f_table)},
        "edgeless": report.edgeless,
    }


def coherence_report_to_json(report: CoherenceReport) -> dict:
    return {
        "l": report.l,
        "m": report.m,
        "coherent": report.coherent,
        "lhs": _json_value(report.lhs),
        "rhs": _json_value(report.rhs),
        "characterization_holds": report.characterization_holds,
    }


def f_table_csv(report: CompatibilityReport) -> str:
    lines = ["m,f"]
    lines.extend(f"{m},{report.f_table[m]}" for m in sorted(report.f_table))
    return "\n".join(lines) + "\n"
