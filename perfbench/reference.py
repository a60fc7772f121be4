"""Reference answers that do not use the code under test.

Graphs are plain tuples ``(vertices, adj, loops)``: a sorted tuple of
string labels, a dict from label to the set of its neighbours, and a
frozenset of looped labels.  Rewrites follow their edge-set definitions,
determinants come from an XOR-basis rank test (not the package's
row-echelon elimination), and the support and orbit answers are brute
force over every subset, which the small orders of the ``minors``
workload keep cheap.
"""

from __future__ import annotations

import re


def make_graph(vertices, edges, loops=()):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return (tuple(sorted(adj)), adj, frozenset(loops))


def edge_list(G):
    verts, adj, _ = G
    return sorted((u, v) for u in verts for v in adj[u] if u < v)


def serialize(G):
    """Canonical edge-list text: isolated vertices, then loops, then edges."""
    verts, adj, loops = G
    lines = [f"vertex {v}" for v in verts if not adj[v] and v not in loops]
    lines += [f"loop {v}" for v in sorted(loops)]
    lines += [f"{u} {v}" for u, v in edge_list(G)]
    return "".join(line + "\n" for line in lines)


def _toggle(adj, x, y):
    if y in adj[x]:
        adj[x].discard(y)
        adj[y].discard(x)
    else:
        adj[x].add(y)
        adj[y].add(x)


def pivot(G, u, v):
    """Pivot on the edge uv of loop-free u, v: toggle every pair of vertices
    that lie in two different classes among N[u] only, N[v] only, and both."""
    verts, adj, loops = G
    closed_u = adj[u] | {u}
    closed_v = adj[v] | {v}
    classes = (closed_u - closed_v, closed_v - closed_u, closed_u & closed_v)
    new = {x: set(ws) for x, ws in adj.items()}
    for i in range(3):
        for j in range(i + 1, 3):
            for x in classes[i]:
                for y in classes[j]:
                    _toggle(new, x, y)
    return (verts, new, loops)


def loop_rule(G, u):
    """Loop rule at looped u: complement the edges among N(u) and toggle
    the loops of N(u)."""
    verts, adj, loops = G
    nbrs = sorted(adj[u])
    new = {x: set(ws) for x, ws in adj.items()}
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            _toggle(new, x, y)
    return (verts, new, loops ^ frozenset(nbrs))


def applicable(G, op):
    _, adj, loops = G
    if len(op) == 1:
        return op[0] in loops
    u, v = op
    return u not in loops and v not in loops and v in adj[u]


def step(G, op):
    return loop_rule(G, op[0]) if len(op) == 1 else pivot(G, *op)


def apply_ops(G, ops):
    """Apply ops left to right; None when one is not applicable at its turn."""
    for op in ops:
        if not applicable(G, op):
            return None
        G = step(G, op)
    return G


# --- GF(2) -------------------------------------------------------------------

def rows_of(G, keep=None):
    """Adjacency rows (loops on the diagonal) restricted to ``keep``, as bit
    masks over the positions of ``keep`` in sorted order."""
    verts, adj, loops = G
    keep = verts if keep is None else sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        bits = 1 << pos[v] if v in loops else 0
        for w in adj[v]:
            if w in pos:
                bits |= 1 << pos[w]
        rows.append(bits)
    return rows


def independent(rows):
    """True iff the bit rows are linearly independent over GF(2).

    Each row is reduced against a basis keyed by leading bit; a row that
    reduces to zero is a dependency.
    """
    basis = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = r
                break
            r ^= basis[top]
        else:
            return False
    return True


def det(G, keep=None):
    return 1 if independent(rows_of(G, keep)) else 0


def is_kernel_witness(G, subset):
    """Non-empty set of vertices whose adjacency rows sum to zero."""
    verts, _, _ = G
    if not subset or not set(subset) <= set(verts):
        return False
    rows = rows_of(G)
    pos = {v: i for i, v in enumerate(verts)}
    total = 0
    for v in subset:
        total ^= rows[pos[v]]
    return total == 0


def pm_parity(G):
    """Parity of the partitions of V into edges and looped singletons.

    Over GF(2) the determinant of a symmetric matrix equals its permanent,
    and permutations with a cycle longer than two cancel against their
    reversal, so the determinant with loops on the diagonal counts exactly
    these partitions mod 2.
    """
    return det(G)


# --- sequences ----------------------------------------------------------------

def apply_support(G, subset):
    """Result of any applicable sequence with this support, or None.

    When det(A[S]) = 1 a reduced one exists and this greedy walk finds it:
    take a looped vertex of the remaining set, else an edge inside it.
    """
    if not det(G, subset):
        return None
    remaining = set(subset)
    while remaining:
        _, adj, loops = G
        looped = sorted(remaining & loops)
        if looped:
            op = (looped[0],)
        else:
            op = min((u, w) for u in remaining for w in adj[u] & remaining if u < w)
        G = step(G, op)
        remaining -= set(op)
    return G


def _subsets(verts):
    n = len(verts)
    for mask in range(1 << n):
        yield [verts[i] for i in range(n) if (mask >> i) & 1]


def count_supports(G):
    return sum(det(G, S) for S in _subsets(G[0]))


def orbit_text(G):
    """The CLI's orbit output: distinct results over all det-1 subsets, sorted
    by (edges, loops) and separated by blank lines."""
    members = {}
    for S in _subsets(G[0]):
        H = apply_support(G, S)
        if H is not None:
            key = (tuple(edge_list(H)), tuple(sorted(H[2])))
            members[key] = H
    return "\n".join(serialize(members[k]) for k in sorted(members))


_GROUP = re.compile(r"\[([^\[\]]*)\]")


def parse_ops(text):
    """Bracket groups ``[u v] [w]`` as tuples; None on stray text."""
    if _GROUP.sub("", text).strip():
        return None
    return [tuple(m.group(1).split()) for m in _GROUP.finditer(text)]


def valid_reduced(G, text, subset, anchor=None):
    """``text`` is a reduced applicable sequence with support ``subset``
    whose first operation touches ``anchor`` when one is given."""
    ops = parse_ops(text.strip())
    if ops is None or any(len(op) not in (1, 2) for op in ops):
        return False
    touched = [v for op in ops for v in op]
    if len(touched) != len(set(touched)) or set(touched) != set(subset):
        return False
    if anchor is not None and (not ops or anchor not in ops[0]):
        return False
    return apply_ops(G, ops) is not None


def anchored_exists(G, subset, anchor):
    """Some applicable reduced sequence with this support starts at anchor:
    det(A[S]) = 1 and anchor has a loop or a loop-free neighbour in S."""
    _, adj, loops = G
    if not det(G, subset):
        return False
    if anchor in loops:
        return True
    return any(w in subset and w not in loops for w in adj[anchor])


def graph6(G):
    """graph6 encoding of a simple graph on vertices "0".."n-1"."""
    verts, adj, _ = G
    n = len(verts)
    if n < 63:
        head = [n]
    elif n < 258048:
        head = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    else:
        raise ValueError("graph6 order too large")
    bits = []
    for j in range(1, n):
        nbrs = adj[str(j)]
        for i in range(j):
            bits.append(1 if str(i) in nbrs else 0)
    bits += [0] * (-len(bits) % 6)
    body = [
        bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
        | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]
        for k in range(0, len(bits), 6)
    ]
    return bytes(b + 63 for b in head + body).decode("ascii") + "\n"


def calibration_task():
    """Fixed work that times the machine, not the package: brute-force
    support count of one 13-vertex graph.  The benchmark runs it as its own
    process between requests and scales the request times by it."""
    labels = [f"c{i}" for i in range(13)]
    edges = [(labels[i], labels[j]) for i in range(13) for j in range(i + 1, 13)
             if (7 * i + 3 * j) % 5 < 2]
    return count_supports(make_graph(labels, edges, labels[::4]))
