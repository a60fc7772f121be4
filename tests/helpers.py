"""Shared oracles and generators for the test suite.

Oracles here are deliberately naive: determinants by permutation expansion
or by a Gauss-Jordan rank, matching parities by walking pairings, general
matchings by brute subset cover.  They never call the code paths they check.
"""

from itertools import combinations, permutations

from pivotgraph import Graph, LocalComp, Pivot, apply as apply_seq


def labels(n):
    return list(range(n))


def all_simple_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(range(n), (pairs[i] for i in range(len(pairs)) if (mask >> i) & 1))


def all_loop_graphs(n):
    pairs = list(combinations(range(n), 2))
    for emask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (emask >> i) & 1]
        for lmask in range(1 << n):
            yield Graph(range(n), edges, (v for v in range(n) if (lmask >> v) & 1))


def all_symmetric_matrices(n):
    for G in all_loop_graphs(n):
        yield G.adjacency_matrix()


def random_simple_graph(rng, n, p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(range(n), edges)


def random_loop_graph(rng, n, p=0.5, loop_p=0.5):
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return Graph(range(n), edges, loops)


def det_bruteforce(m):
    """Permutation expansion of the determinant, mod 2."""
    n = m.order
    dense = m.to_dense()
    total = 0
    for perm in permutations(range(n)):
        if all(dense[i][perm[i]] for i in range(n)):
            total ^= 1
    return total


def rank_by_elimination(m):
    """Rank over GF(2) by Gauss-Jordan elimination on the bit rows.

    For each column in turn, the first row at or below the rank with that
    bit set moves up to position rank and is added to every other row
    holding the bit.
    """
    rows = list(m.rows)
    rank = 0
    for col in range(m.order):
        bit = 1 << col
        for i in range(rank, len(rows)):
            if rows[i] & bit:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[rank]
        rows[rank] = prow
        for j, r in enumerate(rows):
            if r & bit and j != rank:
                rows[j] = r ^ prow
        rank += 1
    return rank


def minor_bruteforce(G, subset):
    """det of the adjacency matrix of G on ``subset``, by permutation expansion."""
    return det_bruteforce(G.induced_subgraph(subset).adjacency_matrix())


def _vertex_subsets(G):
    verts = G.vertices
    for mask in range(1 << len(verts)):
        yield frozenset(v for i, v in enumerate(verts) if (mask >> i) & 1)


def apply_support_entrywise(G, subset):
    """The graph that support ``subset`` yields, entry by entry from minors.

    The loop bit of x is det(A[S xor {x}]) and the edge bit of xy is
    det(A[S xor {x, y}]) xor the AND of the two loop bits.  Returns None when
    det(A[S]) = 0, i.e. no applicable sequence has this support.
    """
    S = frozenset(subset)
    if not minor_bruteforce(G, S):
        return None
    verts = G.vertices
    diag = {x: minor_bruteforce(G, S ^ {x}) for x in verts}
    edges = [
        (x, y)
        for i, x in enumerate(verts)
        for y in verts[i + 1 :]
        if minor_bruteforce(G, S ^ {x, y}) ^ (diag[x] & diag[y])
    ]
    return Graph(verts, edges, [x for x in verts if diag[x]])


def count_supports_bruteforce(G):
    """Number of vertex subsets S with det(A[S]) = 1, one minor per subset."""
    return sum(minor_bruteforce(G, S) for S in _vertex_subsets(G))


def orbit_bruteforce(G):
    """Distinct entrywise support results over every subset, sorted like ``orbit``."""
    seen = {apply_support_entrywise(G, S) for S in _vertex_subsets(G)}
    seen.discard(None)
    return sorted(seen, key=lambda g: (g.edges, tuple(sorted(g.loops))))


def _pairings(items):
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for i in range(len(rest)):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, rest[i]),) + tail


def pm_multiset_bruteforce(G, args):
    """Pairing formula by walking every pairing of the argument positions."""
    edges = {frozenset(e) for e in G.edges}
    total = 0
    for pairing in _pairings(tuple(range(len(args)))):
        if all(args[i] == args[j] or frozenset((args[i], args[j])) in edges for i, j in pairing):
            total ^= 1
    return total


def pm_bruteforce(G):
    """Perfect-matching parity by walking every pairing of the vertex set."""
    verts = tuple(G.vertices)
    if len(verts) % 2:
        return 0
    total = 0
    for pairing in _pairings(verts):
        if all(G.has_edge(u, v) for u, v in pairing):
            total ^= 1
    return total


def general_pm_bruteforce(G):
    """Parity of partitions into edges and looped singletons, by subset cover."""
    blocks = [frozenset(e) for e in G.edges]
    blocks += [frozenset((v,)) for v in sorted(G.loops)]
    full = frozenset(G.vertices)
    total = 0
    for mask in range(1 << len(blocks)):
        chosen = [blocks[i] for i in range(len(blocks)) if (mask >> i) & 1]
        if sum(len(b) for b in chosen) != len(full):
            continue
        union = frozenset().union(*chosen) if chosen else frozenset()
        if union == full:
            total ^= 1
    return total


def _neighbour_sets(G):
    adj = {v: set() for v in G.vertices}
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _toggle_pairs(G, pairs, loops):
    edges = {frozenset(e) for e in G.edges} ^ {frozenset(p) for p in pairs}
    return Graph(G.vertices, (tuple(e) for e in edges), loops)


def pivot_by_classes(G, u, v):
    """Pivot on the edge uv by its definition, from the edge list.

    The union of the closed neighbourhoods of u and v splits into the
    vertices seeing only u, only v, or both; every pair straddling two of
    these classes is toggled.
    """
    adj = _neighbour_sets(G)
    closed_u = adj[u] | {u}
    closed_v = adj[v] | {v}
    classes = (closed_u - closed_v, closed_v - closed_u, closed_u & closed_v)
    pairs = [(x, y) for a, b in combinations(classes, 2) for x in a for y in b]
    return _toggle_pairs(G, pairs, G.loops)


def loop_rule_by_neighbourhood(G, u):
    """Loop rule at u by its definition, from the edge list.

    The edges among the neighbours of u are complemented and each
    neighbour's loop is toggled.
    """
    nbrs = _neighbour_sets(G)[u]
    return _toggle_pairs(G, combinations(nbrs, 2), G.loops ^ nbrs)


def greedy_reduced_sequence(G, subset, anchor=None):
    """The greedy reduced sequence with support ``subset``, stepped on edge lists.

    Each step takes the smallest looped vertex left, else the smallest edge
    inside what is left; with ``anchor`` the first operation is the loop
    rule at the anchor, else a pivot with its smallest loop-free neighbour
    left.  Each operation is applied by ``pivot_by_classes`` or
    ``loop_rule_by_neighbourhood``.  Returns None when no operation is left
    to take.
    """
    H = G
    remaining = set(subset)
    ops = []
    while remaining:
        loops = H.loops
        adj = _neighbour_sets(H)
        if anchor is not None and not ops:
            partners = sorted(w for w in adj[anchor] & remaining if w not in loops)
            if anchor in loops:
                op = LocalComp(anchor)
            elif partners:
                op = Pivot(*sorted((anchor, partners[0])))
            else:
                return None
        else:
            looped = sorted(remaining & loops)
            # with no loop left in the remaining set, any edge inside it is a pivot
            edges = sorted((u, w) for u in remaining for w in adj[u] & remaining if u < w)
            if looped:
                op = LocalComp(looped[0])
            elif edges:
                op = Pivot(*edges[0])
            else:
                return None
        if isinstance(op, LocalComp):
            H = loop_rule_by_neighbourhood(H, op.u)
        else:
            H = pivot_by_classes(H, op.u, op.v)
        remaining -= op.touched
        ops.append(op)
    return tuple(ops)


def applicable_ops(G):
    loops = G.loops
    ops = [LocalComp(v) for v in sorted(loops)]
    ops += [Pivot(u, v) for u, v in G.edges if u not in loops and v not in loops]
    return ops


def random_applicable_sequence(rng, G, max_len):
    seq = []
    H = G
    for _ in range(rng.randint(0, max_len)):
        ops = applicable_ops(H)
        if not ops:
            break
        op = rng.choice(ops)
        seq.append(op)
        H = apply_seq(H, [op])
    return tuple(seq)


def randomized_reduced_sequence(rng, G, subset):
    """Random reduced applicable sequence with the given support; det must be 1."""
    H = G
    remaining = set(subset)
    seq = []
    while remaining:
        cand = [LocalComp(v) for v in sorted(remaining) if H.has_loop(v)]
        cand += [
            Pivot(u, v)
            for u, v in H.edges
            if u in remaining
            and v in remaining
            and not H.has_loop(u)
            and not H.has_loop(v)
        ]
        op = rng.choice(cand)
        seq.append(op)
        H = apply_seq(H, [op])
        remaining -= set(op.touched)
    return tuple(seq)


def add_true_twin(G, v, name):
    """New graph where ``name`` is adjacent to v and to every neighbor of v."""
    edges = list(G.edges) + [(name, w) for w in G.neighbors(v)] + [(name, v)]
    return Graph(list(G.vertices) + [name], edges, G.loops)
