"""The value types' contract: construction, equality, hash, repr,
immutability, copying and validation, the same for all seven."""

from __future__ import annotations

import copy
import pickle

import pytest

from excfact import (
    CoherenceReport,
    CompatibilityReport,
    Covering,
    IndexResult,
    Matching,
    ParameterError,
    PreconditionError,
    SimpleGraph,
)
from excfact.oracle import SweepConfig

EDGE = frozenset({(0, 1)})
A, B = Matching(EDGE), Matching(frozenset({(1, 2)}))

# (instance, an equal instance, an unequal one, field names in order, repr)
CASES = {
    "SimpleGraph": (
        SimpleGraph(2, EDGE), SimpleGraph(2, {(1, 0)}), SimpleGraph(3, EDGE), ("vertex_count", "edges"),
        "SimpleGraph(vertex_count=2, edges=frozenset({(0, 1)}))",
    ),
    "Matching": (
        A, Matching([(1, 0)]), B, ("edges",),
        "Matching(edges=frozenset({(0, 1)}))",
    ),
    "Covering": (
        Covering((A, B)), Covering((B, A)), Covering((A, A, B)), ("matchings",),
        "Covering(matchings=(Matching(edges=frozenset({(0, 1)})), Matching(edges=frozenset({(1, 2)}))))",
    ),
    "IndexResult": (
        IndexResult(1, Covering((A,)), "SEARCH"), IndexResult(1, Covering([A]), "SEARCH"),
        IndexResult(float("inf"), None, "NOT_COVERABLE"), ("value", "witness", "rule"),
        "IndexResult(value=1, witness=Covering(matchings=(Matching(edges=frozenset({(0, 1)})),)), rule='SEARCH')",
    ),
    "CompatibilityReport": (
        CompatibilityReport(2, 5), CompatibilityReport(com=2, max_m=5),
        CompatibilityReport(2, 6), ("com", "max_m"),
        "CompatibilityReport(com=2, max_m=5)",
    ),
    "CoherenceReport": (
        CoherenceReport(2, 3, False, 4, 3), CoherenceReport(l=2, m=3, coherent=False, lhs=4, rhs=3),
        CoherenceReport(2, 3, True, 3, 3), ("l", "m", "coherent", "lhs", "rhs"),
        "CoherenceReport(l=2, m=3, coherent=False, lhs=4, rhs=3)",
    ),
    "SweepConfig": (
        SweepConfig(4, 3, 1), SweepConfig(max_vertices=4, max_m=3, seed=1, samples_per_size=40),
        SweepConfig(4, 3, 2), ("max_vertices", "max_m", "seed", "samples_per_size", "exhaustive_limit"),
        "SweepConfig(max_vertices=4, max_m=3, seed=1, samples_per_size=40, exhaustive_limit=5)",
    ),
}

INVALID = {
    "SimpleGraph": (PreconditionError, lambda: SimpleGraph(2, {(0, 2)})),
    "Matching": (PreconditionError, lambda: Matching({(0, 1), (1, 2)})),
    "IndexResult": (ValueError, lambda: IndexResult(2, Covering((A,)), "SEARCH")),
    "SweepConfig": (ParameterError, lambda: SweepConfig(max_m=0)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    value, equal, other, fields, text = CASES[name]
    cls = type(value)
    assert cls.__name__ == name
    assert value == equal and not value != equal
    assert value != other and value != text
    assert repr(value) == text
    values = [getattr(value, f) for f in fields]
    assert cls(*values) == value
    assert cls(**dict(zip(fields, values))) == value
    assert hash(value) == hash(equal)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, values[0])
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert [getattr(value, f) for f in fields] == values
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text
    if name in INVALID:
        error, build = INVALID[name]
        with pytest.raises(error):
            build()


def test_value_type_defaults():
    assert SimpleGraph(3) == SimpleGraph(3, frozenset()) and SimpleGraph(3).edges == frozenset()
    assert Matching().edges == frozenset() and len(Matching()) == 0
    assert Covering().matchings == () and Covering() == Covering(matchings=())
    assert SweepConfig() == SweepConfig(5, 5, 0, 40, 5)
    assert repr(SweepConfig()) == "SweepConfig(max_vertices=5, max_m=5, seed=0, samples_per_size=40, exhaustive_limit=5)"
