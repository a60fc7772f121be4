"""Sequences of pivots and loop complementations: applicability, support, synthesis.

An operation sequence is any iterable of :class:`Pivot` and :class:`LocalComp`
values, applied left to right.  ``LocalComp`` is the loop rule: it requires a
loop on its vertex at the moment it fires.  The support of a sequence is the
set of vertices it touches an odd number of times; for applicable sequences
the support alone determines the result.
"""

from collections.abc import Hashable, Iterable

from .errors import InputError, NotApplicableError, SingularPivotError, UnsupportedSizeError
from .gf2 import Gf2Matrix, _items, _mask, _ones, _pivot_out, _vertex_ids, _walk_nonsingular
from .graph import Graph, _expect, loop_complement, pivot

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


class _Op:
    """Immutable value with the fields named in ``__match_args__``.

    Equal only to an instance of the same class with equal fields.  A plain
    class rather than a dataclass: importing ``dataclasses`` costs every
    command several milliseconds.
    """

    __slots__ = ()
    __match_args__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._key()


class Pivot(_Op):
    """Pivot on the edge uv; applicable when uv is an edge and both are loop-free."""

    __slots__ = __match_args__ = ("u", "v")

    def __init__(self, u: Vertex, v: Vertex):
        if u == v:
            raise InputError("pivot endpoints must be distinct")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def touched(self) -> frozenset:
        return frozenset((self.u, self.v))


class LocalComp(_Op):
    """Loop rule at u; applicable when u carries a loop."""

    __slots__ = __match_args__ = ("u",)

    def __init__(self, u: Vertex):
        object.__setattr__(self, "u", u)

    @property
    def touched(self) -> frozenset:
        return frozenset((self.u,))


Op = Pivot | LocalComp


def _validated(G: Graph | None, seq: Iterable) -> tuple:
    ops = _items(seq, "seq")
    for op in ops:
        if not isinstance(op, (Pivot, LocalComp)):
            raise InputError(f"not an operation: {op!r}")
        if G is not None:
            G._positions(op._key())
        else:
            _vertex_ids(op._key(), "vertex")
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


def is_applicable(G: Graph, seq: Iterable) -> bool:
    """True when every operation is applicable at its turn, left to right."""
    try:
        apply(G, seq)
    except NotApplicableError:
        return False
    return True


def apply(G: Graph, seq: Iterable) -> Graph:
    """Apply the sequence left to right, failing on the first inapplicable op."""
    ops = _validated(_expect(G, Graph), seq)
    H = G
    for i, op in enumerate(ops):
        try:
            H = pivot(H, op.u, op.v) if isinstance(op, Pivot) else loop_complement(H, op.u)
        except NotApplicableError:
            text = f"{op.u} {op.v}" if isinstance(op, Pivot) else op.u
            raise NotApplicableError(
                f"operation {i + 1} of {len(ops)} ([{text}]) is not applicable"
            ) from None
    return H


def is_support_applicable(G: Graph, subset: Iterable) -> bool:
    """True iff some applicable sequence has the given support.

    Equivalent to the principal submatrix of the adjacency matrix on the
    subset having determinant 1.
    """
    live = _mask(_expect(G, Graph)._positions(_items(subset, "subset")))
    return not _pivot_out(list(G.adjacency_matrix().rows), live)[1]


def apply_support(G: Graph, subset: Iterable) -> Graph:
    """Result of any applicable sequence whose support is ``subset``.

    This is the principal pivot transform A*S of the adjacency matrix A on
    S, read back as a graph.

    Raises:
        NotApplicableError: when det(A[S]) = 0, i.e. no such sequence exists.
    """
    live = _mask(_expect(G, Graph)._positions(_items(subset, "subset")))
    try:
        # the ppt keeps G's sorted labels
        return Graph._of(G.adjacency_matrix()._ppt(live))
    except SingularPivotError:
        raise NotApplicableError("no applicable sequence has this support") from None


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
    items = _items(subset, "subset")
    pos = _expect(G, Graph)._positions(items)
    live = _mask(pos)
    if anchor is not None and anchor not in items:
        raise InputError(f"anchor {anchor!r} is not in the support set")
    A = G.adjacency_matrix()
    first = None if anchor is None else pos[items.index(anchor)]
    blocks, left = _pivot_out(list(A.rows), live, first)
    if left:
        # after a first block (det 1) is taken, a stop means det(A[S]) = 0
        if anchor is not None and not _pivot_out(list(A.rows), live)[1]:
            raise NotApplicableError(
                f"no applicable operation touches the anchor {anchor!r}"
            )
        raise NotApplicableError("no applicable sequence has this support")
    labels = A.labels
    return tuple(
        LocalComp(labels[b[0]]) if len(b) == 1 else Pivot(labels[b[0]], labels[b[1]])
        for b in blocks
    )


def reduce_to_empty(G: Graph) -> tuple | None:
    """Reduced applicable sequence covering every vertex, or None.

    Exists iff the full adjacency determinant is 1.  Read with deletions
    (drop the touched vertices after each operation) it rewrites G to the
    empty graph.
    """
    try:
        return synthesize_reduced(G, _expect(G, Graph).vertices)
    except NotApplicableError:
        return None


def orbit(G: Graph) -> list:
    """All graphs reachable by applicable sequences, G included.

    One representative per labeled graph, sorted canonically.  Reachable
    results are exactly the ppts A*S over the subsets S with det(A[S]) = 1.
    One walk over those subsets reaches each S by ppt steps on blocks of
    det 1, and each member is read off the walk's rows at S.
    """
    n = len(_expect(G, Graph).vertices)
    if n > ORBIT_CAP:
        raise UnsupportedSizeError(
            f"orbit supports at most {ORBIT_CAP} vertices, got {n}"
        )
    A = G.adjacency_matrix()
    seen = {A.rows}

    def key(rows: tuple) -> tuple:
        # the labels are sorted and distinct, so this orders like
        # (G.edges, sorted(G.loops)): each edge ij (bits j above i) as
        # i*n + j, then the loop positions
        edges = tuple(i * n + j for i, r in enumerate(rows) for j in _ones(r & -(2 << i)))
        return edges, tuple(i for i, r in enumerate(rows) if r >> i & 1)

    _walk_nonsingular(A.rows, (1 << n) - 1, seen.add)
    return [Graph._of(Gf2Matrix._trusted(A.labels, rows)) for rows in sorted(seen, key=key)]


def count_applicable_supports(G: Graph) -> int:
    """Number of subsets that are supports of applicable sequences.

    Counts S with det(A[S]) = 1; the empty set always counts.  The minors
    are not taken one by one: a walk over the vertices branches on leaving
    each out or taking it in by one ppt step on a block of det 1, so each
    counted subset costs at most one pass of row updates and the others
    cost nothing.
    """
    n = len(_expect(G, Graph).vertices)
    if n > COUNT_CAP:
        raise UnsupportedSizeError(
            f"count_applicable_supports supports at most {COUNT_CAP} vertices, got {n}"
        )
    return 1 + _walk_nonsingular(G.adjacency_matrix().rows, (1 << n) - 1, None)


def check_commutation(G: Graph, u, v, w, z) -> bool:
    """Whether the pivots on uv and wz can be applied in both orders.

    Requires uv and wz to be edges on four distinct loop-free vertices.
    Both orders work exactly when the four vertices induce a subgraph with
    an odd number of perfect matchings (never a 4-cycle or a 4-cycle plus
    one chord): by determinant transfer, wz is an edge of G[uv] iff
    det A[{u, v, w, z}] = 1, and so is uv of G[wz].
    """
    quad = (u, v, w, z)
    i, j, k, l = pos = _expect(G, Graph)._positions(quad)
    if len(set(pos)) != 4:
        raise InputError("check_commutation needs four distinct vertices")
    rows = G.adjacency_matrix().rows
    for x, p in zip(quad, pos):
        if rows[p] >> p & 1:
            raise InputError(f"check_commutation needs loop-free vertices, {x!r} has a loop")
    if not rows[i] >> j & rows[k] >> l & 1:
        raise InputError("check_commutation needs uv and wz to be edges")
    return not _pivot_out(list(rows), _mask(pos))[1]
