"""Graph values (simple or with loops) and the complementation/pivot operations."""

from bisect import insort
from collections.abc import Iterable, Sequence
from itertools import accumulate
from operator import xor

from .errors import InputError, NotApplicableError
from .gf2 import Gf2Matrix, _items, _mask, _ones, _transpose, _vertex_ids

__all__ = [
    "Graph",
    "local_complement",
    "loop_complement",
    "pivot",
    "overlap_graph",
]


class Graph:
    """Immutable undirected graph; loops are allowed and kept separate from edges.

    Vertex ids are opaque tokens with a total order (ints, strings, ...).
    The vertex set is the union of ``vertices``, edge endpoints, and loop
    carriers; edges are unordered pairs of distinct vertices.  The graph is
    stored as its adjacency matrix: the sorted vertex tuple plus symmetric
    bit rows, loops on the diagonal.
    """

    __slots__ = ("_matrix",)

    def __init__(self, vertices: Iterable = (), edges: Iterable = (), loops: Iterable = ()):
        verts = _vertex_ids(_items(vertices, "vertices"), "vertex id")
        loop_set = _vertex_ids(_items(loops, "loops"), "loop carrier")
        us, vs = [], []
        for e in _items(edges, "edges"):
            try:
                u, v = e
                verts.add(u)
                verts.add(v)
                # comparing here names the edge whose ids do not compare
                us.append(min(u, v))
                vs.append(max(u, v))
            except (TypeError, ValueError):
                raise InputError(
                    f"edge {e!r} is not a pair of hashable, comparable vertex ids"
                ) from None
            if u == v:
                raise InputError(f"self-pair {u!r} is not an edge; declare it as a loop")
        labels = _sorted_ids(verts | loop_set)
        self._matrix = Gf2Matrix._trusted(labels, _bit_rows(labels, us, vs, loop_set))

    @classmethod
    def _of(cls, m: Gf2Matrix) -> "Graph":
        # internal fast path: m has strictly increasing labels
        g = object.__new__(cls)
        g._matrix = m
        return g

    @property
    def vertices(self) -> tuple:
        return self._matrix.labels

    @property
    def edges(self) -> tuple:
        """Edges as sorted (u, v) pairs with u < v, in sorted order."""
        labels = self._matrix.labels
        return tuple(
            (u, labels[i + 1 + j])
            for i, (u, row) in enumerate(zip(labels, self._matrix.rows))
            for j in _ones(row >> (i + 1))
        )

    @property
    def loops(self) -> frozenset:
        m = self._matrix
        return frozenset(v for i, (v, r) in enumerate(zip(m.labels, m.rows)) if r >> i & 1)

    def is_simple(self) -> bool:
        return not any(r >> i & 1 for i, r in enumerate(self._matrix.rows))

    def __contains__(self, v) -> bool:
        try:
            return v in self._matrix._pos
        except TypeError:
            return False

    def _positions(self, items: Iterable) -> list:
        """Positions of ``items`` in the vertex tuple; see Gf2Matrix._positions."""
        return self._matrix._positions(items, "vertex")

    def has_edge(self, u, v) -> bool:
        i, j = self._positions((u, v))
        return i != j and bool(self._matrix.rows[i] >> j & 1)

    def has_loop(self, v) -> bool:
        (i,) = self._positions((v,))
        return bool(self._matrix.rows[i] >> i & 1)

    def neighbors(self, v) -> frozenset:
        (i,) = self._positions((v,))
        labels = self._matrix.labels
        return frozenset(labels[j] for j in _ones(self._matrix.rows[i] & ~(1 << i)))

    def sim(self, x, y) -> int:
        """1 iff x = y or xy is an edge; defined on simple graphs only."""
        i, j = self._positions((x, y))
        if not self.is_simple():
            raise InputError("sim is defined on simple graphs; use adj_entry")
        return 1 if i == j else self._matrix.rows[i] >> j & 1

    def adj_entry(self, x, y) -> int:
        """Adjacency-matrix entry: loop bit on the diagonal, edge bit off it."""
        i, j = self._positions((x, y))
        return self._matrix.rows[i] >> j & 1

    def induced_subgraph(self, keep: Iterable) -> "Graph":
        return Graph._of(self._matrix._submatrix(_mask(self._positions(_items(keep, "keep")))))

    def adjacency_matrix(self) -> Gf2Matrix:
        """Symmetric GF(2) matrix with edge bits off-diagonal and loop bits on it."""
        return self._matrix

    @classmethod
    def from_adjacency_matrix(cls, m: Gf2Matrix) -> "Graph":
        labels = _sorted_ids(_expect(m, Gf2Matrix).labels)
        if labels == m.labels:
            return cls._of(m)
        pos = m._positions(labels, "label")
        return cls._of(Gf2Matrix._trusted(labels, _transpose(m.rows, m.order, pos)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash(self._matrix)

    def __reduce__(self):  # unchecked, as a pickle is trusted input
        return Graph._of, (self._matrix,)

    def __repr__(self) -> str:
        return (
            f"Graph(vertices={list(self.vertices)!r}, "
            f"edges={list(self.edges)!r}, loops={sorted(self.loops)!r})"
        )


def _expect(x, cls):
    """``x`` itself; InputError if it is not a ``cls``."""
    if not isinstance(x, cls):
        raise InputError(f"expected a {cls.__name__}, got {x!r}")
    return x


def _sorted_ids(ids: Iterable) -> tuple:
    """``ids`` sorted; InputError names two that do not compare, in ``repr`` order."""
    try:
        return tuple(sorted(ids))
    except TypeError:
        xs = sorted(ids, key=repr)
    done = []
    for x in xs:
        try:
            insort(done, x)
        except TypeError:
            for y in xs:  # the first id in repr order that does not compare with x
                try:
                    sorted((y, x))
                except TypeError:
                    raise InputError(f"vertex ids {y!r} and {x!r} cannot be ordered") from None
    raise InputError("vertex ids cannot be ordered")


def _bit_rows(labels: tuple, us: Sequence, vs: Sequence, loops: Iterable) -> tuple:
    """Bit rows over ``labels`` with the edges us[k] vs[k] and the given loops."""
    n = len(labels)
    pos = dict(zip(labels, range(n)))
    bit = [1 << i for i in range(n)]
    rows = [0] * n
    for u, v in zip(us, vs):
        i, j = pos[u], pos[v]
        rows[i] |= bit[j]
        rows[j] |= bit[i]
    for v in loops:
        rows[pos[v]] |= bit[pos[v]]
    return tuple(rows)


def local_complement(G: Graph, u) -> Graph:
    """Local complementation at u, the ``lc`` rule: the loop rule if u has a loop,
    else, on a simple graph only, complement the edges among the neighbors of u."""
    (i,) = _expect(G, Graph)._positions((u,))
    if G._matrix.rows[i] >> i & 1:
        return Graph._of(G._matrix._ppt(1 << i))
    if not G.is_simple():
        raise NotApplicableError(f"lc at {u!r}: vertex has no loop and the graph is not simple")
    # each neighbour row adds the neighbourhood of u, minus its own diagonal bit
    rows = list(G._matrix.rows)
    nbrs = rows[i]
    for j in _ones(nbrs):
        rows[j] ^= nbrs ^ (1 << j)
    return Graph._of(Gf2Matrix._trusted(G.vertices, tuple(rows)))


def loop_complement(G: Graph, u) -> Graph:
    """Complementation at a looped vertex u: the ppt on {u}.

    Edges among the neighbors of u are complemented and the loop of every
    neighbor is toggled; u keeps its loop and its incident edges.
    """
    (i,) = _expect(G, Graph)._positions((u,))
    if not G._matrix.rows[i] >> i & 1:
        raise NotApplicableError(f"loop_complement at {u!r}: vertex has no loop")
    return Graph._of(G._matrix._ppt(1 << i))


def pivot(G: Graph, u, v) -> Graph:
    """Pivot on the edge uv; u and v must be loop-free.  This is the ppt on {u, v}.

    It toggles every pair of vertices that lie in two different classes of
    the union of closed neighborhoods of u and v: the vertices seeing only
    u, only v, or both.  u and v stay adjacent and keep their labels.
    """
    i, j = _expect(G, Graph)._positions((u, v))
    if i == j:
        raise InputError("pivot endpoints must be distinct")
    rows = G._matrix.rows
    if (rows[i] >> i | rows[j] >> j) & 1:
        raise NotApplicableError(f"pivot {u!r}-{v!r} requires loop-free endpoints")
    if not rows[i] >> j & 1:
        raise NotApplicableError(f"pivot {u!r}-{v!r}: no such edge")
    return Graph._of(G._matrix._ppt(1 << i | 1 << j))


def overlap_graph(word) -> Graph:
    """Overlap graph of a double-occurrence word.

    ``word`` is a sequence of symbols, or a string that is split on
    whitespace.  Each symbol must occur exactly twice; two symbols are
    adjacent iff their occurrence intervals interleave (exactly one
    occurrence of the second lies strictly between the two occurrences of
    the first).
    """
    symbols = word.split() if isinstance(word, str) else _items(word, "word")
    toks = _sorted_ids(_vertex_ids(symbols, "symbol"))
    spans = {}
    for pos, s in enumerate(symbols):
        spans.setdefault(s, []).append(pos)
    for s, positions in spans.items():
        if len(positions) != 2:
            raise InputError(
                f"not a double-occurrence word: {s!r} occurs {len(positions)} time(s)"
            )
    # row x sums the bits of the symbols strictly between x's occurrences a
    # and b: one with both occurrences there cancels, one with one interleaves
    bit = dict(zip(toks, map((1).__lshift__, range(len(toks)))))
    pre = list(accumulate(map(bit.__getitem__, symbols), xor, initial=0))
    rows = tuple(pre[b] ^ pre[a + 1] for a, b in map(spans.__getitem__, toks))
    return Graph._of(Gf2Matrix._trusted(toks, rows))
