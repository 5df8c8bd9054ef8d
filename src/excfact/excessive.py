"""Excessive [l,m]-indices: the closed-form evaluation and the two-branch
algorithmic route.

An excessive [l,m]-factorization is a minimum-cardinality multiset of
matchings, each of size between l and m, whose union is the whole edge set.
The index (number of matchings, or infinity when no covering exists) is
computed from the chromatic index and the ratio |E|/chi', falling back to an
exact bounded-colouring search only in the regime the closed form does not
cover.  Every finite result carries a witness covering, and every witness is
verified once, where it is built, before it is returned (see
:func:`~excfact.graphs.verify_covering`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import ceil

from .coloring import (
    _chi_coloring,
    _color_in_order,
    chromatic_index,
    equalize,
    optimal_m_bounded_coloring,
)
from .errors import InvariantError, ParameterError, PreconditionError
from .graphs import Covering, Matching, SimpleGraph, _graph_memo, _Value, covering_to_json, verify_covering
from .matching import extend_to_lm_matching, is_lm_coverable

INFINITY = math.inf

RULE_FORMULA_CEIL = "FORMULA_CEIL"
RULE_FORMULA_CHI = "FORMULA_CHI"
RULE_FORMULA_EXC_L = "FORMULA_EXC_L"
RULE_LEMMA_CF = "LEMMA_CF"
RULE_SEARCH = "SEARCH"
RULE_NOT_COVERABLE = "NOT_COVERABLE"
_RULES = frozenset(
    {RULE_FORMULA_CEIL, RULE_FORMULA_CHI, RULE_FORMULA_EXC_L, RULE_LEMMA_CF, RULE_SEARCH, RULE_NOT_COVERABLE}
)


class IndexResult(_Value):
    """An index value plus the witness covering and the rule that produced it."""

    __slots__ = _fields = ("value", "witness", "rule")

    def __init__(self, value: int | float, witness: Covering | None, rule: str) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "rule", rule)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.rule not in _RULES:
            raise PreconditionError(f"unknown rule tag {self.rule!r}")
        infinite = math.isinf(self.value)
        if infinite != (self.witness is None) or infinite != (self.rule == RULE_NOT_COVERABLE):
            raise PreconditionError("infinite value, absent witness, and NOT_COVERABLE must coincide")
        if not infinite and len(self.witness) != self.value:
            raise PreconditionError("witness cardinality must equal the index value")

    @property
    def finite(self) -> bool:
        return not math.isinf(self.value)


#: the one result of every window that no [l,m]-covering exists for
_NOT_COVERABLE = IndexResult(INFINITY, None, RULE_NOT_COVERABLE)


def _ceil_witness(g: SimpleGraph, m: int) -> Covering:
    """A covering by ``k = ceil(|E|/m)`` matchings of size exactly m.

    Valid whenever ``|E| >= m * chi'``.  Take the memoised equalized
    chi'-colouring (all classes have at least m edges then).  When m divides
    every class size (always at m = 1, and for the edgeless graph's empty
    colouring), cutting each class, in sorted edge order, into runs of m
    edges gives the covering.  Otherwise k > chi' (k = chi' would make every
    class exactly m edges), so a padding class holding the ``k*m - |E| < m``
    lexicographically smallest edges of the first class (perhaps none) and
    ``k - chi' - 1`` empty classes fit; equalizing makes every class size m.
    The one caller, :func:`excessive_m_index`, verifies it at [m, m].
    """
    edge_total = g.edge_count
    psi = _chi_coloring(g)
    chi = len(psi)
    if all(len(cls) % m == 0 for cls in psi.matchings):
        runs = [cls.sorted_edges() for cls in psi.matchings]
        return Covering(tuple(Matching(frozenset(r[i : i + m])) for r in runs for i in range(0, len(r), m)))
    k = ceil(edge_total / m)
    padding = Matching(frozenset(psi.matchings[0].sorted_edges()[: k * m - edge_total]))
    classes = psi.matchings + (padding,) + tuple(Matching() for _ in range(k - chi - 1))
    return equalize(Covering(classes))


def _search_m_index(g: SimpleGraph, m: int) -> tuple[int, Covering]:
    """Smallest k admitting a k-edge colouring whose classes have size <= m
    and each extend to an [m]-matching, by deterministic backtracking.

    Any covering by k [m]-matchings induces a proper k-colouring, so k is at
    least chi'.  SEARCH runs only when ``|E| < m * chi'``, so every class of
    the equalized chi'-colouring has at most m edges; when each of them
    extends, they settle k = chi' with no search.  Otherwise ``|E|`` colours
    always suffice for a coverable graph (single edges extend), so the
    increasing search terminates.  One memo, from a class's edge-index
    bitmask to its [m]-extension or None, holds the chi'-colouring's
    classes, answers the admission test and supplies the witness: each
    class of the colouring found was admitted, so its extension is already
    there.  No class is extended twice, and the memo dies with this call.
    """
    edges = g.sorted_edges()

    @lru_cache(maxsize=None)
    def extension(cls: int) -> Matching | None:
        return extend_to_lm_matching(g, Matching(frozenset(e for j, e in enumerate(edges) if cls >> j & 1)), m, m)

    psi = _chi_coloring(g)
    chi = len(psi)
    bit = {e: 1 << j for j, e in enumerate(edges)}
    extended = [extension(sum(bit[e] for e in cls.edges)) for cls in psi.matchings]
    if None not in extended:
        return chi, Covering(tuple(extended))
    # ceil(|E|/m) <= chi' adds no bound
    for k in range(chi, g.edge_count + 1):
        classes = _color_in_order(
            edges, g.vertex_count, k, lambda cls: cls.bit_count() <= m and extension(cls) is not None
        )
        if classes is not None:
            return k, Covering(tuple(extension(cls) for cls in classes))
    raise InvariantError("no covering found for a coverable graph")


@_graph_memo
def excessive_m_index(g: SimpleGraph, m: int) -> IndexResult:
    """Minimum number of size-m matchings covering the edge set, with witness."""
    if m < 1:
        raise ParameterError("m must be at least 1")
    if not is_lm_coverable(g, m):
        return _NOT_COVERABLE
    if g.edge_count >= m * chromatic_index(g):
        result = IndexResult(ceil(g.edge_count / m), _ceil_witness(g, m), RULE_LEMMA_CF)
    else:
        value, witness = _search_m_index(g, m)
        result = IndexResult(value, witness, RULE_SEARCH)
    if not verify_covering(g, result.witness, m, m):
        raise InvariantError(f"[{m}]-index witness is not a covering")
    return result


def excessive_lm_index(g: SimpleGraph, l: int, m: int) -> IndexResult:
    """Excessive [l,m]-index via the closed form on the ratio |E|/chi'.

    The ratio is compared with l and m by cross-multiplication, never in
    floating point.  At the ratio l the chromatic-index branch answers:
    there the [l]-index is ``ceil(l * chi' / l) = chi'`` by the ceiling
    branch of :func:`excessive_m_index`, so the two agree by arithmetic and
    only the chi'-colouring is built.  That witness was verified where it
    was built, with class sizes in [floor(|E|/chi'), ceil(|E|/chi')], which
    ``l * chi' <= |E| < m * chi'`` puts inside [l, m]; the other branches
    return an :func:`excessive_m_index` witness, verified there at [m, m]
    or [l, l], and a [k]-covering with l <= k <= m is an [l,m]-covering.
    Every window that no [l,m]-covering exists for gets the one shared
    not-coverable result.
    """
    if l < 1 or l > m:
        raise ParameterError(f"invalid size window [{l}, {m}]")
    if not is_lm_coverable(g, l):
        return _NOT_COVERABLE
    edge_total = g.edge_count
    chi = chromatic_index(g)
    if edge_total >= m * chi:
        base = excessive_m_index(g, m)
        value = ceil(edge_total / m)
        if base.value != value:
            raise InvariantError("[m]-index disagrees with ceil(|E|/m)")
        return IndexResult(value, base.witness, RULE_FORMULA_CEIL)
    if edge_total < l * chi:
        base = excessive_m_index(g, l)
        return IndexResult(base.value, base.witness, RULE_FORMULA_EXC_L)
    return IndexResult(chi, _chi_coloring(g), RULE_FORMULA_CHI)


def exc_algorithm(g: SimpleGraph, l: int, m: int) -> IndexResult:
    """Two-branch computation of the [l,m]-index.

    Compare the optimal numbers of colours for 1..l-bounded and 1..m-bounded
    colourings, ``max(chi', ceil(|E|/l))`` and ``max(chi', ceil(|E|/m))``.
    If the m-bounded one is strictly smaller, the optimal m-bounded
    colouring, the chi'-colouring padded to that many colours and equalized,
    is a covering whose sizes already land in [l, m]; otherwise the answer
    equals the excessive [l]-index.  The chi'-colouring is the one that
    :func:`excessive_lm_index` also reads; this route's independence lies in
    its case analysis, which shares nothing with the closed form, so
    agreement between the two cross-validates the split.  A padded
    m-bounded colouring (more than chi' colours) is verified here.  At
    ``chi'`` colours it is the chi'-colouring itself, verified where it was
    built with class sizes in [floor(|E|/chi'), ceil(|E|/chi')]; here
    ``ceil(|E|/l) > chi' >= ceil(|E|/m)`` puts that range inside [l, m].
    The [l]-index witness was verified at [l, l] by
    :func:`excessive_m_index`, and a not-coverable [l]-index is returned
    itself.
    """
    if l < 1 or l > m:
        raise ParameterError(f"invalid size window [{l}, {m}]")
    if not g.edges:
        return IndexResult(0, Covering(()), RULE_FORMULA_CEIL)
    edge_total = g.edge_count
    chi = chromatic_index(g)
    bounded_l = max(chi, ceil(edge_total / l))
    bounded_m = max(chi, ceil(edge_total / m))
    if bounded_m >= bounded_l:
        base = excessive_m_index(g, l)
        if not base.finite:
            return base
        return IndexResult(base.value, base.witness, RULE_FORMULA_EXC_L)
    witness = optimal_m_bounded_coloring(g, m)
    if bounded_m == chi:  # the chi'-colouring itself
        return IndexResult(chi, witness, RULE_FORMULA_CHI)
    if not verify_covering(g, witness, l, m):
        raise InvariantError(f"two-branch witness is not an [{l},{m}]-covering")
    return IndexResult(bounded_m, witness, RULE_FORMULA_CEIL)


def lm_index_via_pairs(g: SimpleGraph, l: int, m: int) -> int | float:
    """The [l,m]-index as the minimum of the [i,i+1]-indices, l <= i < m."""
    if l >= m:
        raise ParameterError("this reduction requires l < m")
    return min(excessive_lm_index(g, i, i + 1).value for i in range(l, m))


def index_result_to_json(
    g: SimpleGraph, l: int, m: int, result: IndexResult, include_witness: bool = True
) -> dict:
    """JSON form: value / rule / witness / self-checks."""
    if result.finite:
        lower = max(chromatic_index(g), ceil(g.edge_count / m))
        checks = {
            "lower_bound": result.value >= lower,
            "verified": verify_covering(g, result.witness, l, m),
        }
        witness = covering_to_json(result.witness) if include_witness else None
    else:
        checks = {"lower_bound": True, "verified": True}
        witness = None
    return {"value": _json_value(result.value), "rule": result.rule, "witness": witness, "checks": checks}


def _json_value(v: int | float) -> int | str:  # JSON has no infinity
    return "infinity" if math.isinf(v) else int(v)
