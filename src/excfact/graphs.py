"""Graphs, matchings, coverings, and covering verification.

Vertices are 0-indexed integers and an edge is stored as the pair
``(min(u, v), max(u, v))``, so edge sets have canonical, order-independent
semantics.  Every type here is immutable and hashable, which makes the whole
library safe to share between threads.

Per-graph invariants (the maximum matching, whether every edge lies in a
maximum matching, the equalized chi'-colouring, the [m]-indices) are
memoised on the graph object itself: each :class:`SimpleGraph` holds a
private table outside its fields, filled by the four functions decorated
with :func:`_graph_memo`.  An entry lives exactly as long as its graph, so
a long sweep runs in flat memory, and two equal but distinct graphs do not
share entries.  Threads stay safe: an entry is one dict item, written once
a value is complete, and two threads that race on the same key each
compute an equal value and one of them is kept.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import wraps
from typing import Callable, Iterator, NamedTuple

from .errors import FormatError, ParameterError, PreconditionError

Edge = tuple[int, int]


def normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise PreconditionError(f"loop edge at vertex {u}")
    if u < 0 or v < 0:
        raise PreconditionError(f"negative vertex in edge ({u}, {v})")
    return (u, v) if u < v else (v, u)


def _canonical_edges(edges) -> frozenset[Edge]:
    """``edges`` as a frozenset of normalized edges; a frozenset of plain
    ``(u, v)`` tuples with ``0 <= u < v`` is one already and is kept as is."""
    if type(edges) is frozenset:
        for e in edges:
            if type(e) is not tuple or len(e) != 2 or not 0 <= e[0] < e[1]:
                break
        else:
            return edges
    return frozenset([normalize_edge(u, v) for u, v in edges])


class _Value:
    """Base of the immutable value types.

    A subclass lists its fields in ``_fields``, in constructor order, and its
    constructor sets each with ``object.__setattr__`` (one statement per
    field: objects are built in the hot loops) before it calls the
    validating ``__post_init__``, if it has one.  Equality, hash and
    ``repr`` follow the fields as a frozen dataclass's do; pickling and
    copying call the constructor again, which validates the copy.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SimpleGraph(_Value):
    """Finite undirected graph without loops or parallel edges.

    ``_memo`` is the graph's memo table (see :func:`_graph_memo`) and
    ``_sorted`` its edges in sorted order, kept by :meth:`sorted_edges`; they
    are not fields, so equality, hash, ``repr``, pickling and copying ignore
    them, and a copy starts with an empty table and no sorted order.
    """

    __slots__ = ("vertex_count", "edges", "_memo", "_sorted")
    _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: frozenset[Edge] = frozenset()) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_sorted", None)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise PreconditionError("vertex_count must be nonnegative")
        canonical = _canonical_edges(self.edges)
        object.__setattr__(self, "edges", canonical)
        for _, v in canonical:
            if v >= self.vertex_count:
                raise PreconditionError(
                    f"edge endpoint {v} outside vertex range 0..{self.vertex_count - 1}"
                )

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        """The edges in sorted order, as a new list; the order is sorted once per graph."""
        if self._sorted is None:
            object.__setattr__(self, "_sorted", tuple(sorted(self.edges)))
        return list(self._sorted)

    def max_degree(self) -> int:
        counts = Counter()
        for u, v in self.edges:
            counts[u] += 1
            counts[v] += 1
        return max(counts.values(), default=0)


class Matching(_Value):
    """A set of pairwise vertex-disjoint edges."""

    __slots__ = _fields = ("edges",)

    def __init__(self, edges: frozenset[Edge] = frozenset()) -> None:
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self) -> None:
        canonical = _canonical_edges(self.edges)
        object.__setattr__(self, "edges", canonical)
        if len({x for e in canonical for x in e}) != 2 * len(canonical):
            raise PreconditionError("edges of a matching must be vertex-disjoint")

    def __len__(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)


class Covering(_Value):
    """An ordered multiset of matchings.

    Repeats are allowed and meaningful, so equality compares the multiset of
    matchings rather than the stored order.
    """

    __slots__ = _fields = ("matchings",)

    def __init__(self, matchings: tuple[Matching, ...] = ()) -> None:
        object.__setattr__(self, "matchings", matchings)
        self.__post_init__()

    def __post_init__(self) -> None:
        object.__setattr__(self, "matchings", tuple(self.matchings))

    def __len__(self) -> int:
        return len(self.matchings)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)

    def canonical(self) -> tuple[tuple[Edge, ...], ...]:
        return tuple(sorted(tuple(m.sorted_edges()) for m in self.matchings))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Covering):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())


def covering_violations(g: SimpleGraph, c: Covering, l: int, m: int) -> list[str]:
    """Diagnostics for why ``c`` fails to be an [l,m]-covering of ``g`` (empty if valid)."""
    if l > m:
        raise ParameterError(f"invalid size window [{l}, {m}]")
    problems: list[str] = []
    covered: set[Edge] = set()
    edges = g.edges
    for idx, matching in enumerate(c.matchings):
        used = matching.edges
        if used <= edges:
            covered.update(used)
        else:
            problems.append(f"matching {idx} uses non-edges {sorted(used - edges)}")
            covered.update(used & edges)
        size = len(used)
        if not l <= size <= m:
            problems.append(f"matching {idx} has size {size} outside [{l}, {m}]")
    if len(covered) < len(edges):  # covered holds edges of g only
        problems.append(f"edges not covered: {sorted(edges - covered)}")
    return problems


def verify_covering(g: SimpleGraph, c: Covering, l: int, m: int) -> bool:
    return not covering_violations(g, c, l, m)


# ---------------------------------------------------------------------------
# per-graph memos


class _MemoInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int  # entries stored since the last clear, including those of graphs since freed


def _graph_memo(f: Callable) -> Callable:
    """Memoise ``f(g, *args)`` in the table of the graph ``g``.

    An entry is keyed by the memoised function and ``args`` and holds the
    value with the function's epoch, so a lookup never hashes the graph and
    a ``None`` value is stored like any other.  A call that raises stores
    nothing.  ``cache_clear()`` starts a new epoch, which makes every older
    entry of this function a miss (the next store replaces it), and resets
    the counters that ``cache_info()`` reports.
    """
    epoch = hits = misses = stored = 0

    @wraps(f)
    def memoised(g: SimpleGraph, *args):
        nonlocal hits, misses, stored
        key = (memoised, *args)
        entry = g._memo.get(key)
        if entry is not None and entry[0] == epoch:
            hits += 1
            return entry[1]
        misses += 1
        value = f(g, *args)
        g._memo[key] = (epoch, value)
        stored += 1
        return value

    def cache_clear() -> None:
        nonlocal epoch, hits, misses, stored
        epoch += 1
        hits = misses = stored = 0

    memoised.cache_clear = cache_clear
    memoised.cache_info = lambda: _MemoInfo(hits, misses, stored)
    return memoised


# ---------------------------------------------------------------------------
# text formats

_MAX_VERTICES = 258047  # the largest 4-byte graph6 count; both readers and the encoder stop there


def _decimal(token: str) -> int:
    """``token`` read as ASCII decimal digits (no sign, no underscores);
    ValueError otherwise."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse the ``u v`` per-line edge format.

    Vertices and the vertex count are written in ASCII decimal digits.  An
    optional ``n <vertex_count>`` header fixes the vertex count; blank lines
    and ``#`` comments are ignored; duplicate edge lines collapse.
    """
    header: int | None = None
    pairs: set[Edge] = set()
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate vertex-count header")
            if len(tokens) != 2:
                raise FormatError(f"line {lineno}: header must be 'n <vertex_count>'")
            try:
                header = _decimal(tokens[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            continue
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = _decimal(tokens[0]), _decimal(tokens[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-decimal token in {line!r}") from None
        if u == v:
            raise FormatError(f"line {lineno}: loop edge at vertex {u}")
        pairs.add(normalize_edge(u, v))
        max_seen = max(max_seen, u, v)
    n = header if header is not None else max_seen + 1
    if max_seen >= n:
        raise FormatError(f"edge endpoint {max_seen} exceeds declared vertex count {n}")
    if n > _MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the supported maximum {_MAX_VERTICES}")
    return SimpleGraph(n, frozenset(pairs))


def format_edge_list(g: SimpleGraph) -> str:
    lines = [f"n {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# graph6: printable characters 63..126 carry 6 bits each, most significant
# first.  The vertex count comes first: one character up to 62, else "~" and
# three more (the 4-byte form, up to _MAX_VERTICES); "~~" starts the 8-byte
# form, which only larger counts need.  Then the payload, in which edge
# (i, j) with i < j is bit j(j-1)/2 + i, zero-padded to a multiple of 6 bits.

_G6_HEADER = ">>graph6<<"
# the offsets of the set bits of each payload character, indexed by its code point
_G6_SET_BITS = [()] * 63 + [tuple(k for k in range(6) if value & (32 >> k)) for value in range(64)]
_G6_NONZERO_RUN = re.compile(rb"[^?]+")  # "?" carries no set bit


def _g6_encode_count(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= _MAX_VERTICES:
        return chr(126) + "".join(chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0))
    raise FormatError(f"vertex count {n} too large for this graph6 encoder")


def encode_graph6(g: SimpleGraph) -> str:
    n = g.vertex_count
    count = _g6_encode_count(n)  # rejects a too-large count before the payload is allocated
    payload = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))  # "?" is the character of no set bit
    for i, j in g.edges:
        bit = j * (j - 1) // 2 + i
        payload[bit // 6] += 32 >> (bit % 6)  # edges are distinct, so adding sets the bit
    return count + payload.decode("ascii")


def parse_graph6(text: str) -> SimpleGraph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise FormatError("empty graph6 input")
    if not ("?" <= min(s) and max(s) <= "~"):
        bad = next(ch for ch in s if not "?" <= ch <= "~")
        raise FormatError(f"invalid graph6 character {bad!r}")
    data = s.encode("ascii")
    if data[0] != 126:
        n, payload = data[0] - 63, data[1:]
    elif data[1:2] == b"~":
        raise FormatError(f"graph6 8-byte vertex count exceeds the supported maximum {_MAX_VERTICES}")
    elif len(data) < 4:
        raise FormatError("truncated graph6 vertex count")
    else:
        n, payload = ((data[1] - 63) << 12) + ((data[2] - 63) << 6) + data[3] - 63, data[4:]
    total_bits = n * (n - 1) // 2
    needed = (total_bits + 5) // 6
    if len(payload) != needed:
        raise FormatError(
            f"graph6 payload has {len(payload)} characters, expected {needed} for {n} vertices"
        )
    if total_bits % 6 and (payload[-1] - 63) & ((1 << (6 - total_bits % 6)) - 1):
        raise FormatError("nonzero padding bits in graph6 payload")
    edges = []
    j, column = 1, 0  # column j, the edges (0, j) .. (j - 1, j), starts at bit `column`
    for run in _G6_NONZERO_RUN.finditer(payload):
        for group, code in enumerate(run.group(), run.start()):
            for offset in _G6_SET_BITS[code]:
                bit = 6 * group + offset
                while bit >= column + j:
                    column += j
                    j += 1
                edges.append((bit - column, j))
    return SimpleGraph(n, frozenset(edges))


# ---------------------------------------------------------------------------
# JSON form of coverings: {"matchings": [[[u, v], ...], ...]}


def covering_to_json(c: Covering) -> dict:
    return {"matchings": [[list(e) for e in m.sorted_edges()] for m in c.matchings]}


def covering_from_json(obj: object) -> Covering:
    if not isinstance(obj, dict) or "matchings" not in obj:
        raise FormatError("covering JSON must be an object with a 'matchings' key")
    raw = obj["matchings"]
    if not isinstance(raw, list):
        raise FormatError("'matchings' must be a list")
    matchings = []
    for entry in raw:
        if not isinstance(entry, list):
            raise FormatError("each matching must be a list of edges")
        edges = set()
        for pair in entry:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise FormatError(f"bad edge entry {pair!r}")
            u, v = pair
            if not (type(u) is int and type(v) is int):  # bool is an int subclass
                raise FormatError(f"bad edge entry {pair!r}")
            edges.add(normalize_edge(u, v))
        matchings.append(Matching(frozenset(edges)))
    return Covering(tuple(matchings))
