"""Sequences of pivots and loop complementations: applicability, support, synthesis.

An operation sequence is any iterable of :class:`Pivot` and :class:`LocalComp`
values, applied left to right.  ``LocalComp`` is the loop rule: it requires a
loop on its vertex at the moment it fires.  The support of a sequence is the
set of vertices it touches an odd number of times; for applicable sequences
the support alone determines the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Hashable, Optional, Union

from .errors import InputError, NotApplicableError, SingularPivotError, UnsupportedSizeError
from .gf2 import _walk_nonsingular
from .graph import Graph, loop_complement, pivot

__all__ = [
    "Pivot",
    "LocalComp",
    "Op",
    "support",
    "is_reduced",
    "is_applicable",
    "apply",
    "is_support_applicable",
    "apply_support",
    "synthesize_reduced",
    "reduce_to_empty",
    "orbit",
    "count_applicable_supports",
    "check_commutation",
]

Vertex = Hashable

ORBIT_CAP = 12
COUNT_CAP = 24


@dataclass(frozen=True)
class Pivot:
    """Pivot on the edge uv; applicable when uv is an edge and both are loop-free."""

    u: Vertex
    v: Vertex

    def __post_init__(self):
        if self.u == self.v:
            raise InputError("pivot endpoints must be distinct")

    @property
    def touched(self) -> frozenset:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class LocalComp:
    """Loop rule at u; applicable when u carries a loop."""

    u: Vertex

    @property
    def touched(self) -> frozenset:
        return frozenset((self.u,))


Op = Union[Pivot, LocalComp]


def _validated(G: Optional[Graph], seq: Iterable) -> tuple:
    ops = tuple(seq)
    for op in ops:
        if not isinstance(op, (Pivot, LocalComp)):
            raise InputError(f"not an operation: {op!r}")
        if G is not None:
            for x in op.touched:
                G._require_vertex(x)
    return ops


def support(seq: Iterable) -> frozenset:
    """Vertices touched an odd number of times across the sequence."""
    out = frozenset()
    for op in _validated(None, seq):
        out ^= op.touched
    return out


def is_reduced(seq: Iterable) -> bool:
    """True when no vertex occurs in more than one operation."""
    seen = set()
    for op in _validated(None, seq):
        if op.touched & seen:
            return False
        seen |= op.touched
    return True


def _op_applicable(H: Graph, op) -> bool:
    if isinstance(op, Pivot):
        return (
            not H.has_loop(op.u)
            and not H.has_loop(op.v)
            and H.has_edge(op.u, op.v)
        )
    return H.has_loop(op.u)


def _step(H: Graph, op) -> Graph:
    if isinstance(op, Pivot):
        return pivot(H, op.u, op.v)
    return loop_complement(H, op.u)


def _op_text(op) -> str:
    if isinstance(op, Pivot):
        return f"[{op.u} {op.v}]"
    return f"[{op.u}]"


def is_applicable(G: Graph, seq: Iterable) -> bool:
    """True when every operation is applicable at its turn, left to right."""
    ops = _validated(G, seq)
    H = G
    for op in ops:
        if not _op_applicable(H, op):
            return False
        H = _step(H, op)
    return True


def apply(G: Graph, seq: Iterable) -> Graph:
    """Apply the sequence left to right, failing on the first inapplicable op."""
    ops = _validated(G, seq)
    H = G
    for i, op in enumerate(ops):
        if not _op_applicable(H, op):
            raise NotApplicableError(
                f"operation {i + 1} of {len(ops)} ({_op_text(op)}) is not applicable"
            )
        H = _step(H, op)
    return H


def is_support_applicable(G: Graph, subset: Iterable) -> bool:
    """True iff some applicable sequence has the given support.

    Equivalent to the principal submatrix of the adjacency matrix on the
    subset having determinant 1.
    """
    S = frozenset(subset)
    for x in S:
        G._require_vertex(x)
    return G.adjacency_matrix().principal_submatrix(S).det() == 1


def apply_support(G: Graph, subset: Iterable) -> Graph:
    """Result of any applicable sequence whose support is ``subset``.

    This is the principal pivot transform A*S of the adjacency matrix A on
    S, read back as a graph: one block elimination over the whole matrix.

    Raises:
        NotApplicableError: when det(A[S]) = 0, i.e. no such sequence exists.
    """
    S = frozenset(subset)
    for x in S:
        G._require_vertex(x)
    try:
        return Graph.from_adjacency_matrix(G.adjacency_matrix().ppt(S))
    except SingularPivotError:
        raise NotApplicableError("no applicable sequence has this support") from None


def _pick_op(H: Graph, remaining: set, anchor=None):
    if anchor is not None:
        if H.has_loop(anchor):
            return LocalComp(anchor)
        partners = sorted(
            w
            for w in H.neighbors(anchor)
            if w in remaining and not H.has_loop(w)
        )
        if partners:
            w = partners[0]
            return Pivot(*((anchor, w) if anchor < w else (w, anchor)))
        return None
    looped = sorted(v for v in remaining if H.has_loop(v))
    if looped:
        return LocalComp(looped[0])
    # no loops left in the remaining set, so any edge inside it qualifies
    edges = sorted(
        (u, w)
        for u in remaining
        for w in H.neighbors(u) & remaining
        if u < w
    )
    if edges:
        return Pivot(*edges[0])
    return None


def synthesize_reduced(G: Graph, subset: Iterable, anchor=None) -> tuple:
    """Greedy reduced applicable sequence with the given support.

    At each step the smallest looped vertex in the remaining support is
    taken, else the lexicographically smallest edge inside it; both choices
    keep the remaining support's determinant at 1, so the greedy walk always
    terminates.  With ``anchor`` the first operation must touch the anchor;
    on simple graphs one always exists, on loop graphs it may not.

    Raises:
        NotApplicableError: when det(A[S]) = 0, or when an anchor is given
            and no applicable operation touches it.
    """
    S = frozenset(subset)
    for x in S:
        G._require_vertex(x)
    if anchor is not None and anchor not in S:
        raise InputError(f"anchor {anchor!r} is not in the support set")
    if G.adjacency_matrix().principal_submatrix(S).det() == 0:
        raise NotApplicableError("no applicable sequence has this support")
    ops = []
    H = G
    remaining = set(S)
    while remaining:
        op = _pick_op(H, remaining, anchor if not ops else None)
        if op is None:
            raise NotApplicableError(
                f"no applicable operation touches the anchor {anchor!r}"
            )
        H = _step(H, op)
        remaining -= op.touched
        ops.append(op)
    return tuple(ops)


def reduce_to_empty(G: Graph) -> Optional[tuple]:
    """Reduced applicable sequence covering every vertex, or None.

    Exists iff the full adjacency determinant is 1.  Read with deletions
    (drop the touched vertices after each operation) it rewrites G to the
    empty graph.
    """
    if G.adjacency_matrix().det() == 0:
        return None
    return synthesize_reduced(G, G.vertices)


def _graph_key(g: Graph):
    return (g.edges, tuple(sorted(g.loops)))


def orbit(G: Graph, max_vertices: int = ORBIT_CAP) -> list:
    """All graphs reachable by applicable sequences, G included.

    One representative per labeled graph, sorted canonically.  Reachable
    results are exactly the ppts A*S over the subsets S with det(A[S]) = 1;
    those subsets come from one walk of recursive Schur complements, and
    each result from one ppt.
    """
    n = len(G.vertices)
    if n > max_vertices:
        raise UnsupportedSizeError(
            f"orbit supports at most {max_vertices} vertices, got {n}"
        )
    A = G.adjacency_matrix()
    verts = G.vertices
    seen = {G}

    def reach(mask: int) -> None:
        S = [verts[i] for i in range(n) if (mask >> i) & 1]
        seen.add(Graph.from_adjacency_matrix(A.ppt(S)))

    _walk_nonsingular(A.rows, (1 << n) - 1, 0, reach)
    return sorted(seen, key=_graph_key)


def count_applicable_supports(G: Graph, max_vertices: int = COUNT_CAP) -> int:
    """Number of subsets that are supports of applicable sequences.

    Counts S with det(A[S]) = 1; the empty set always counts.  The minors
    are not taken one by one: a walk over the vertices branches on leaving
    each out or taking it in by a Schur complement step, so each counted
    subset costs at most one pass of row updates and the others cost
    nothing.
    """
    n = len(G.vertices)
    if n > max_vertices:
        raise UnsupportedSizeError(
            f"count_applicable_supports supports at most {max_vertices} vertices, got {n}"
        )
    return 1 + _walk_nonsingular(G.adjacency_matrix().rows, (1 << n) - 1, 0, None)


def check_commutation(G: Graph, u, v, w, z) -> bool:
    """Whether the pivots on uv and wz can be applied in both orders.

    Requires uv and wz to be edges on four distinct loop-free vertices.
    Both orders work exactly when the four vertices induce a subgraph with
    an odd number of perfect matchings (never a 4-cycle or a 4-cycle plus
    one chord).
    """
    quad = (u, v, w, z)
    for x in quad:
        G._require_vertex(x)
    if len(set(quad)) != 4:
        raise InputError("check_commutation needs four distinct vertices")
    for x in quad:
        if G.has_loop(x):
            raise InputError(f"check_commutation needs loop-free vertices, {x!r} has a loop")
    if not G.has_edge(u, v) or not G.has_edge(w, z):
        raise InputError("check_commutation needs uv and wz to be edges")
    return pivot(G, u, v).has_edge(w, z) and pivot(G, w, z).has_edge(u, v)
