"""Perfect-matching parities and the pairing formula with repeated vertices."""

from collections.abc import Sequence

from .errors import InputError
from .gf2 import Gf2Matrix, _items, _transpose
from .graph import Graph, _expect

__all__ = ["pm_parity", "general_pm_parity", "pm_multiset"]


def pm_parity(G: Graph) -> int:
    """Parity of the number of perfect matchings of a simple graph.

    1 for the empty graph, 0 whenever the vertex count is odd.  Computed as
    the adjacency determinant: over GF(2) the permutations with a cycle of
    length 3 or more cancel against their reversals, and the fixed-point-free
    involutions left over are the perfect matchings.
    """
    if not _expect(G, Graph).is_simple():
        raise InputError("pm_parity is defined on simple graphs; use general_pm_parity")
    return G.adjacency_matrix().det()


def general_pm_parity(G: Graph) -> int:
    """Parity of partitions of V into edges and looped singletons; 1 when V is empty.

    The adjacency determinant with loops on the diagonal: the involutions
    that survive the cancellation in :func:`pm_parity` may now fix looped
    vertices.
    """
    return _expect(G, Graph).adjacency_matrix().det()


def pm_multiset(G: Graph, args: Sequence) -> int:
    """Pairing formula over an even list of vertices, repeats allowed.

    XOR over all pairings of the argument positions of the AND, over the
    pairs, of sim on the paired vertices.  The empty list gives 1 and two
    arguments give sim(x, y).  G must be simple.  This is the perfect-matching
    parity of the graph on the positions joined where sim is 1, hence the
    determinant of the sim matrix of the arguments with its diagonal cleared.
    """
    args = _items(args, "args")
    n = len(args)
    if n % 2:
        raise InputError(f"pm_multiset needs an even number of arguments, got {n}")
    pos = _expect(G, Graph)._positions(args)
    if pos and not G.is_simple():
        raise InputError("sim is defined on simple graphs; use adj_entry")
    # G is simple, so bit q of adj[p] | 1 << p is sim at p, q; bit i clears the diagonal
    adj = G.adjacency_matrix().rows
    sim = {p: adj[p] | 1 << p for p in pos}
    rows = [r ^ 1 << i for i, r in enumerate(_transpose(sim, len(adj), pos))]
    return Gf2Matrix._trusted(tuple(range(n)), tuple(rows)).det()
