"""Graph values (simple or with loops) and the complementation/pivot operations."""

from __future__ import annotations

from collections.abc import Iterable
from itertools import permutations
from typing import Hashable

from .errors import InputError, NotApplicableError, UnsupportedSizeError
from .gf2 import Gf2Matrix

__all__ = [
    "Graph",
    "local_complement",
    "loop_complement",
    "pivot",
    "overlap_graph",
    "is_isomorphic_small",
]

Vertex = Hashable


class Graph:
    """Immutable undirected graph; loops are allowed and kept separate from edges.

    Vertex ids are opaque tokens with a total order (ints, strings, ...).
    The vertex set is the union of ``vertices``, edge endpoints, and loop
    carriers; edges are unordered pairs of distinct vertices.
    """

    __slots__ = ("_vertices", "_adj", "_loops", "_edge_set", "_edges")

    def __init__(self, vertices: Iterable = (), edges: Iterable = (), loops: Iterable = ()):
        verts = set(vertices)
        loop_set = frozenset(loops)
        edge_set = set()
        for e in edges:
            try:
                u, v = e
                verts.add(u)
                verts.add(v)
                edge_set.add((u, v) if u < v else (v, u))
            except (TypeError, ValueError):
                raise InputError(
                    f"edge {e!r} is not a pair of hashable, comparable vertex ids"
                ) from None
            if u == v:
                raise InputError(f"self-pair {u!r} is not an edge; declare it as a loop")
        verts |= loop_set
        try:
            self._vertices = tuple(sorted(verts))
        except TypeError:
            raise InputError(_order_clash(verts)) from None
        self._edge_set = frozenset(edge_set)
        self._edges = tuple(sorted(edge_set))
        self._loops = loop_set
        adj = {v: set() for v in self._vertices}
        for u, v in edge_set:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(ws) for v, ws in adj.items()}

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def edges(self) -> tuple:
        """Edges as sorted (u, v) pairs with u < v, in sorted order."""
        return self._edges

    @property
    def loops(self) -> frozenset:
        return self._loops

    def is_simple(self) -> bool:
        return not self._loops

    def __contains__(self, v) -> bool:
        return v in self._adj

    def _require_vertex(self, v) -> None:
        if v not in self._adj:
            raise InputError(f"unknown vertex: {v!r}")

    def has_edge(self, u, v) -> bool:
        self._require_vertex(u)
        self._require_vertex(v)
        return v in self._adj[u]

    def has_loop(self, v) -> bool:
        self._require_vertex(v)
        return v in self._loops

    def neighbors(self, v) -> frozenset:
        self._require_vertex(v)
        return self._adj[v]

    def sim(self, x, y) -> int:
        """1 iff x = y or xy is an edge; defined on simple graphs only."""
        self._require_vertex(x)
        self._require_vertex(y)
        if self._loops:
            raise InputError("sim is defined on simple graphs; use adj_entry")
        return 1 if x == y or y in self._adj[x] else 0

    def adj_entry(self, x, y) -> int:
        """Adjacency-matrix entry: loop bit on the diagonal, edge bit off it."""
        self._require_vertex(x)
        self._require_vertex(y)
        if x == y:
            return 1 if x in self._loops else 0
        return 1 if y in self._adj[x] else 0

    def induced_subgraph(self, keep: Iterable) -> "Graph":
        keep = set(keep)
        for v in keep:
            self._require_vertex(v)
        return Graph(
            keep,
            (e for e in self._edges if e[0] in keep and e[1] in keep),
            self._loops & keep,
        )

    def adjacency_matrix(self) -> Gf2Matrix:
        """Symmetric GF(2) matrix with edge bits off-diagonal and loop bits on it."""
        idx = {v: i for i, v in enumerate(self._vertices)}
        rows = [0] * len(self._vertices)
        for u, v in self._edge_set:
            rows[idx[u]] |= 1 << idx[v]
            rows[idx[v]] |= 1 << idx[u]
        for v in self._loops:
            rows[idx[v]] |= 1 << idx[v]
        return Gf2Matrix._trusted(self._vertices, tuple(rows))

    @classmethod
    def from_adjacency_matrix(cls, m: Gf2Matrix) -> "Graph":
        labels = m.labels
        edges = []
        loops = []
        for i, u in enumerate(labels):
            if (m.rows[i] >> i) & 1:
                loops.append(u)
            for j in range(i + 1, len(labels)):
                if (m.rows[i] >> j) & 1:
                    edges.append((u, labels[j]))
        return cls(labels, edges, loops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edge_set == other._edge_set
            and self._loops == other._loops
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edge_set, self._loops))

    def __repr__(self) -> str:
        return (
            f"Graph(vertices={list(self._vertices)!r}, "
            f"edges={list(self._edges)!r}, loops={sorted(self._loops)!r})"
        )


def _order_clash(verts: set) -> str:
    """Error message naming two vertex ids that do not compare."""
    reps = {}
    for x in verts:
        for y in reps.values():
            try:
                sorted((x, y))
            except TypeError:
                return f"vertex ids {y!r} and {x!r} cannot be ordered"
        reps.setdefault(type(x), x)
    return "vertex ids cannot be ordered"


def _toggled(G: Graph, pair_toggles: set, new_loops=None) -> Graph:
    loops = G.loops if new_loops is None else new_loops
    return Graph(G.vertices, G._edge_set ^ frozenset(pair_toggles), loops)


def local_complement(G: Graph, u) -> Graph:
    """Complement the edges among the neighbors of u; simple graphs only."""
    G._require_vertex(u)
    if G.loops:
        raise InputError(
            "local_complement is defined on simple graphs; use loop_complement"
        )
    nbrs = sorted(G.neighbors(u))
    toggles = {(nbrs[i], nbrs[j]) for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))}
    return _toggled(G, toggles)


def loop_complement(G: Graph, u) -> Graph:
    """Complementation at a looped vertex u.

    Edges among the neighbors of u are complemented and the loop of every
    neighbor is toggled; u keeps its loop and its incident edges.
    """
    G._require_vertex(u)
    if not G.has_loop(u):
        raise NotApplicableError(f"loop_complement at {u!r}: vertex has no loop")
    nbrs = sorted(G.neighbors(u))
    toggles = {(nbrs[i], nbrs[j]) for i in range(len(nbrs)) for j in range(i + 1, len(nbrs))}
    return _toggled(G, toggles, G.loops ^ G.neighbors(u))


def pivot(G: Graph, u, v) -> Graph:
    """Pivot on the edge uv; u and v must be loop-free.

    Splits the union of closed neighborhoods of u and v into the vertices
    seeing only u, only v, or both, and toggles every pair that straddles
    two different classes.  u and v stay adjacent and keep their labels.
    """
    G._require_vertex(u)
    G._require_vertex(v)
    if u == v:
        raise InputError("pivot endpoints must be distinct")
    if G.has_loop(u) or G.has_loop(v):
        raise NotApplicableError(f"pivot {u!r}-{v!r} requires loop-free endpoints")
    if not G.has_edge(u, v):
        raise NotApplicableError(f"pivot {u!r}-{v!r}: no such edge")
    closed_u = G.neighbors(u) | {u}
    closed_v = G.neighbors(v) | {v}
    only_u = closed_u - closed_v
    only_v = closed_v - closed_u
    shared = closed_u & closed_v
    toggles = set()
    for side_a, side_b in ((only_u, only_v), (only_u, shared), (only_v, shared)):
        for x in side_a:
            for y in side_b:
                toggles.add((x, y) if x < y else (y, x))
    return _toggled(G, toggles)


def overlap_graph(word) -> Graph:
    """Overlap graph of a double-occurrence word.

    ``word`` is a sequence of symbols, or a string that is split on
    whitespace.  Each symbol must occur exactly twice; two symbols are
    adjacent iff their occurrence intervals interleave (exactly one
    occurrence of the second lies strictly between the two occurrences of
    the first).
    """
    symbols = word.split() if isinstance(word, str) else list(word)
    spans = {}
    for pos, s in enumerate(symbols):
        spans.setdefault(s, []).append(pos)
    for s, positions in spans.items():
        if len(positions) != 2:
            raise InputError(
                f"not a double-occurrence word: {s!r} occurs {len(positions)} time(s)"
            )
    toks = sorted(spans)
    edges = []
    for i, x in enumerate(toks):
        a, b = spans[x]
        for y in toks[i + 1 :]:
            c, d = spans[y]
            if a < c < b < d or c < a < d < b:
                edges.append((x, y))
    return Graph(toks, edges)


def is_isomorphic_small(G: Graph, H: Graph, max_vertices: int = 8) -> bool:
    """Brute-force isomorphism test for graphs with at most ``max_vertices``."""
    n = len(G.vertices)
    if n != len(H.vertices):
        return False
    if n > max_vertices:
        raise UnsupportedSizeError(
            f"isomorphism test supports at most {max_vertices} vertices, got {n}"
        )
    if len(G.edges) != len(H.edges) or len(G.loops) != len(H.loops):
        return False
    gv = G.vertices
    for perm in permutations(H.vertices):
        m = dict(zip(gv, perm))
        if all(m[v] in H._adj[m[u]] for u, v in G.edges) and all(
            m[x] in H.loops for x in G.loops
        ):
            return True
    return False
