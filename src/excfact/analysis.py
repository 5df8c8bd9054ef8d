"""Compatibility and coherence analyses.

A graph is [l,m]-compatible when its excessive [l,m]-index attains the
universal lower bound max(chi', ceil(|E|/m)); it is [l,m]-coherent when the
index equals the best achievable with a single fixed matching size in
[l, m].  Both notions reduce to threshold functions of l and m, which these
report builders tabulate.
"""

from __future__ import annotations

from math import ceil
from typing import Iterator

from .budget import check_budget
from .coloring import chromatic_index
from .errors import InvariantError, ParameterError
from .excessive import _json_value, excessive_lm_index, excessive_m_index
from .graphs import SimpleGraph, _Value
from .matching import maximum_matching


class CompatibilityReport(_Value):
    """com; the rows f(m) = min(m, com) for m = 1..max_m are derived when read."""

    __slots__ = _fields = ("com", "max_m")

    def __init__(self, com: int, max_m: int) -> None:
        object.__setattr__(self, "com", com)
        object.__setattr__(self, "max_m", max_m)

    @property
    def edgeless(self) -> bool:
        return self.com == 0

    def rows(self) -> Iterator[tuple[int, int]]:
        """(m, f(m)) for m = 1..max_m, one budget check per row; none when edgeless."""
        for m in range(1, self.max_m + 1 if self.com else 1):
            check_budget()
            yield m, min(m, self.com)


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
    return result.finite and result.value == max(chromatic_index(g), ceil(g.edge_count / m))


def compatibility_index(g: SimpleGraph) -> int:
    """Largest l for which the excessive [l]-index attains its lower bound.

    Every l <= q = floor(|E|/chi') is settled by the ceiling regime, whose
    [l]-index ceil(|E|/l) is the bound (q <= nu, and at q = nu every colour
    class is a maximum matching).  Above q the scan stops at the first failure,
    as one-size compatibility is downward closed (McDiarmid): for compatible
    l >= 2 with (l-1) * chi' >= |E|, dropping chi' surplus edge instances and
    equalizing gives l-1; else the ceiling regime does.  Edgeless graphs get 0.
    """
    q = g.edge_count // max(chromatic_index(g), 1)  # 0 when edgeless
    nu = len(maximum_matching(g))
    return next((l - 1 for l in range(q + 1, nu + 1) if not is_lm_compatible(g, l, l)), nu)


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
    """com, with the rows f(m) = min(m, com) for m = 1..max_m derived on reading."""
    if max_m < 1:
        raise ParameterError("max_m must be at least 1")
    return CompatibilityReport(compatibility_index(g), max_m)


def coherence_report(g: SimpleGraph, l: int, m: int) -> CoherenceReport:
    """Compare the [l,m]-index with the best fixed-size index over [l, m].

    Only the largest size up to q = floor(|E|/chi') is computed, as the ceiling
    regime's [i]-index ceil(|E|/i) falls as i grows.  The incoherence test
    (l < |E|/chi' < m and the index at size ceil(|E|/chi') exceeds chi') is
    checked against the definition-level comparison.
    """
    lhs = excessive_lm_index(g, l, m).value
    chi = chromatic_index(g)
    edge_total = g.edge_count
    q = edge_total // max(chi, 1)
    # every [i]-index with i > nu >= 1 is infinite; an edgeless graph's is 0
    top = min(m, max(l, len(maximum_matching(g))))
    rhs = min(excessive_m_index(g, i).value for i in range(max(l, min(top, q)), top + 1))
    coherent = lhs == rhs
    if l * chi < edge_total < m * chi:
        k = ceil(edge_total / chi)
        characterization = excessive_m_index(g, k).value > chi
    else:
        characterization = False
    if coherent == characterization:
        raise InvariantError("incoherence test disagrees with definition")
    return CoherenceReport(l=l, m=m, coherent=coherent, lhs=lhs, rhs=rhs)


def compatibility_report_to_json(report: CompatibilityReport) -> dict:
    return {
        "com": report.com,
        "f_table": {str(m): f for m, f in report.rows()},
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
    return "m,f\n" + "".join(f"{m},{f}\n" for m, f in report.rows())
