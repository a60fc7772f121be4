"""Shared oracles and generators for the test suite.

Oracles here are deliberately naive: the symmetry check by a walk over
pairs, submatrices and sim matrices entry by entry, determinants by
permutation expansion or by a Gauss-Jordan rank, overlap graphs by
counting occurrences between occurrences, matching parities by walking
pairings, general matchings by brute subset cover, isomorphism by trying
every bijection, edge-list documents by reading one statement at a time
into neighbour sets, and the command line by the argparse parser the CLI
once used.  They never call the code paths they check.

``run_child`` is the one way a test starts a process.
"""

import argparse
import os
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

from pivotgraph import (
    Gf2Matrix,
    Graph,
    InputError,
    LocalComp,
    Pivot,
    UnsupportedSizeError,
    apply as apply_seq,
    formats,
)
from pivotgraph.cli import (
    cmd_applicable,
    cmd_apply,
    cmd_apply_support,
    cmd_count_supports,
    cmd_det,
    cmd_lc,
    cmd_orbit,
    cmd_overlap,
    cmd_pivot,
    cmd_reduce,
    cmd_reduce_to_empty,
    cmd_witness,
)

ISOMORPHISM_CAP = 8
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_TIMEOUT = 60  # seconds


def run_child(args, stdin=subprocess.DEVNULL, env=None, unset=(), program=sys.executable, **popen):
    """Run ``program *args`` on this checkout's ``src/``, killed after ``CHILD_TIMEOUT`` s.

    ``stdin`` is bytes or str fed through a pipe, or any popen stdin, such
    as an open file.  The child's environment is the parent's, less each
    variable whose name starts with a prefix in ``unset``, plus ``env``,
    with ``SRC`` first on PYTHONPATH.  stdout and stderr are captured
    unless ``popen`` says otherwise; its other options (``text``, ``cwd``,
    ``preexec_fn``) pass through.  Returns the CompletedProcess.
    """
    child_env = {k: v for k, v in os.environ.items() if not k.startswith(unset)}
    child_env.update(env or {})
    path = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    feed = {"input": stdin} if isinstance(stdin, (bytes, str)) else {"stdin": stdin}
    popen = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **popen}
    return subprocess.run([program, *args], env=child_env, timeout=CHILD_TIMEOUT, **feed, **popen)


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


def asymmetry_by_pairs(labels, rows):
    """The constructor's asymmetry message, or None, by walking the pairs i < j in order.

    This is the pair loop ``Gf2Matrix.__init__`` once ran: the first pair
    whose two entries differ is named.
    """
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                return f"asymmetric entries at ({labels[i]!r}, {labels[j]!r})"
    return None


def submatrix_entrywise(m, keep):
    """Labels and dense entries of the principal submatrix of ``m`` on ``keep``, by ``entry``."""
    keep = set(keep)
    labs = [x for x in m.labels if x in keep]
    return labs, [[m.entry(x, y) for y in labs] for x in labs]


def pm_multiset_by_sim_rank(G, args):
    """Pairing formula as det of the sim matrix of ``args``, diagonal cleared, by its rank.

    The matrix is filled entry by entry with ``G.sim``; det is 1 iff the
    elimination rank is full.
    """
    n = len(args)
    dense = [[int(i != j and G.sim(x, y)) for j, y in enumerate(args)] for i, x in enumerate(args)]
    return int(rank_by_elimination(Gf2Matrix.from_dense(range(n), dense)) == n)


def ppt_by_block_inverse(m, subset):
    """The principal pivot transform of ``m`` on the labels ``subset``, or None.

    Inverts the block P on the subset by Gauss-Jordan elimination of
    [P | I] and assembles [[P^-1, P^-1 Q], [Q^T P^-1, S + Q^T P^-1 Q]]
    entry by entry, with Q the subset's rows on the other columns.  None
    when P is singular.
    """
    n = m.order
    dense = m.to_dense()
    xs = sorted(m.labels.index(v) for v in subset)
    rest = [y for y in range(n) if y not in xs]
    k = len(xs)
    # row i of [P | I] as an int: bit j < k is P[i, j], bit k + i is I[i, i]
    aug = [sum(dense[a][b] << j for j, b in enumerate(xs)) | 1 << (k + i) for i, a in enumerate(xs)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i] >> col & 1), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug = [r ^ aug[col] if i != col and r >> col & 1 else r for i, r in enumerate(aug)]
    inv = [[r >> (k + j) & 1 for j in range(k)] for r in aug]
    # P^-1 Q: row i adds the rows Q[l] for the entries P^-1[i, l] = 1
    q = [[dense[a][y] for y in rest] for a in xs]
    inv_q = []
    for i in range(k):
        acc = [0] * len(rest)
        for l in range(k):
            if inv[i][l]:
                acc = [a ^ b for a, b in zip(acc, q[l])]
        inv_q.append(acc)
    out = [[0] * n for _ in range(n)]
    for i, a in enumerate(xs):
        for j, b in enumerate(xs):
            out[a][b] = inv[i][j]
        for c, y in enumerate(rest):
            out[a][y] = out[y][a] = inv_q[i][c]
    # S + Q^T P^-1 Q: row x adds the rows l of P^-1 Q where Q[l, x] = 1
    for c, x in enumerate(rest):
        acc = [0] * len(rest)
        for l in range(k):
            if q[l][c]:
                acc = [a ^ b for a, b in zip(acc, inv_q[l])]
        for e, y in enumerate(rest):
            out[x][y] = dense[x][y] ^ acc[e]
    return type(m).from_dense(m.labels, out)


def minor_bruteforce(G, subset):
    """det of the adjacency matrix of G on ``subset``, by permutation expansion."""
    return det_bruteforce(G.induced_subgraph(subset).adjacency_matrix())


def vertex_subsets(verts):
    """Every subset of ``verts``, as frozensets."""
    verts = tuple(verts)
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
    return sum(minor_bruteforce(G, S) for S in vertex_subsets(G.vertices))


def orbit_bruteforce(G):
    """Distinct entrywise support results over every subset, sorted like ``orbit``."""
    seen = {apply_support_entrywise(G, S) for S in vertex_subsets(G.vertices)}
    seen.discard(None)
    return sorted(seen, key=lambda g: (g.edges, tuple(sorted(g.loops))))


def stabilizer_bruteforce(G):
    """The vertex sets X with det(A[X]) = 1 and A*X = A, one block-inverse ppt per subset."""
    A = G.adjacency_matrix()
    return [S for S in vertex_subsets(G.vertices) if ppt_by_block_inverse(A, S) == A]


def _pairings(items):
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for i in range(len(rest)):
        for tail in _pairings(rest[:i] + rest[i + 1 :]):
            yield ((first, rest[i]),) + tail


def enumerate_pairings(n):
    """Every pairing (perfect matching) of the positions 0..n-1.

    A pairing is a tuple of (i, j) pairs with i < j partitioning range(n);
    there are (n-1)!! of them.  n must be even and non-negative.
    """
    if n < 0 or n % 2:
        raise InputError(f"pairings need an even non-negative count, got {n}")
    return _pairings(tuple(range(n)))


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


def is_isomorphic_small(G, H):
    """Brute-force isomorphism test, for at most ``ISOMORPHISM_CAP`` vertices."""
    n = len(G.vertices)
    if n != len(H.vertices):
        return False
    if n > ISOMORPHISM_CAP:
        raise UnsupportedSizeError(
            f"isomorphism test supports at most {ISOMORPHISM_CAP} vertices, got {n}"
        )
    g_edges, g_loops, h_loops = G.edges, G.loops, H.loops
    if len(g_edges) != len(H.edges) or len(g_loops) != len(h_loops):
        return False
    for perm in permutations(H.vertices):
        m = dict(zip(G.vertices, perm))
        if all(H.has_edge(m[u], m[v]) for u, v in g_edges) and all(
            m[x] in h_loops for x in g_loops
        ):
            return True
    return False


def overlap_edges_naive(word):
    """The interleaved pairs (x, y), x < y, of a double-occurrence word: exactly
    one occurrence of y lies strictly between the two occurrences of x."""
    symbols = list(word)
    edges = set()
    for x, y in combinations(sorted(set(symbols)), 2):
        a, b = [p for p, s in enumerate(symbols) if s == x]
        if symbols[a + 1 : b].count(y) == 1:
            edges.add((x, y))
    return edges


def read_edge_list_naive(text):
    """Read an edge-list document one statement at a time.

    Returns ``(graph, None)``, or ``(None, (line, kind))`` for the first
    faulty line, where kind is "tokens" (not two tokens), "arity" (a keyword
    with no vertex or two), "keyword" (a keyword as the second token),
    "duplicate loop", "self-edge" or "duplicate edge".
    """
    keywords = ("vertex", "loop")
    nbrs = {}
    loops = set()
    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#")[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            return None, (line, "arity" if tokens[0] in keywords else "tokens")
        u, v = tokens
        if v in keywords:
            return None, (line, "keyword")
        if u == "vertex":
            nbrs.setdefault(v, set())
        elif u == "loop":
            if v in loops:
                return None, (line, "duplicate loop")
            loops.add(v)
            nbrs.setdefault(v, set())
        elif u == v:
            return None, (line, "self-edge")
        elif v in nbrs.get(u, ()):
            return None, (line, "duplicate edge")
        else:
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
    labels = sorted(nbrs)
    rows = [
        sum(1 << labels.index(w) for w in nbrs[x]) | (1 << i if x in loops else 0)
        for i, x in enumerate(labels)
    ]
    return Graph.from_adjacency_matrix(Gf2Matrix(labels, rows)), None


def _add_io(sub) -> None:
    sub.add_argument("input", nargs="?", default="-", help="graph file, '-' for stdin")
    sub.add_argument(
        "-f",
        "--format",
        choices=formats.GRAPH_FORMATS,
        default="edge-list",
        help="input graph format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotgraph",
        description="Pivot and loop-complementation calculus on graphs over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("det", help="adjacency determinant over GF(2)")
    _add_io(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("pm", help="perfect-matching parity")
    _add_io(p)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("pivot", help="pivot on the edge U V")
    p.add_argument("u")
    p.add_argument("v")
    _add_io(p)
    p.set_defaults(func=cmd_pivot)

    p = sub.add_parser("lc", help="local complementation at U")
    p.add_argument("u")
    _add_io(p)
    p.set_defaults(func=cmd_lc)

    p = sub.add_parser("apply", help="apply an operation sequence")
    p.add_argument("--seq", required=True, help='bracket groups, e.g. "[a b][c]"')
    _add_io(p)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("apply-support", help="apply any sequence with the given support")
    p.add_argument("--set", required=True, help='comma-separated vertices; "" is empty')
    _add_io(p)
    p.set_defaults(func=cmd_apply_support)

    p = sub.add_parser("applicable", help="test a sequence or a support set")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--seq", help="operation sequence to test")
    group.add_argument("--set", help="support set to test")
    _add_io(p)
    p.set_defaults(func=cmd_applicable)

    p = sub.add_parser("reduce", help="synthesize a reduced sequence for a support set")
    p.add_argument("--set", required=True)
    p.add_argument("--anchor", help="vertex the first operation must touch")
    _add_io(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("reduce-to-empty", help="reduced sequence covering every vertex")
    _add_io(p)
    p.set_defaults(func=cmd_reduce_to_empty)

    p = sub.add_parser("orbit", help="all graphs reachable by applicable sequences")
    _add_io(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("count-supports", help="number of applicable support sets")
    _add_io(p)
    p.set_defaults(func=cmd_count_supports)

    p = sub.add_parser("overlap", help="overlap graph of a double-occurrence word")
    p.add_argument("--word", required=True, help="whitespace-separated symbols")
    p.set_defaults(func=cmd_overlap)

    p = sub.add_parser("witness", help="kernel witness set when the determinant is 0")
    _add_io(p)
    p.set_defaults(func=cmd_witness)

    return parser


# command: (count of required positionals, or None for no graph input;
# required options, exactly one of them; optional options)
_CLI_SHAPES = {
    "det": (0, (), ()),
    "pm": (0, (), ()),
    "pivot": (2, (), ()),
    "lc": (1, (), ()),
    "apply": (0, ("--seq",), ()),
    "apply-support": (0, ("--set",), ()),
    "applicable": (0, ("--seq", "--set"), ()),
    "reduce": (0, ("--set",), ("--anchor",)),
    "reduce-to-empty": (0, (), ()),
    "orbit": (0, (), ()),
    "count-supports": (0, (), ()),
    "overlap": (None, ("--word",), ()),
    "witness": (0, (), ()),
}

# "-", negative numbers, spaces, "=" and the empty string all read as values
_CLI_VALUES = ("a", "b7", "-", "-1", "-2.5", "-.5", "", "x=y", "-a b", "[a b] [c]", "a,b")


def argv_corpus(rng, count):
    """Seeded command lines over every command, most well-formed, some not.

    Options come before, between or after the positionals, as ``--opt
    VALUE`` or ``--opt=VALUE``, and sometimes twice; ``--`` may end them,
    and then a positional may start with a dash.  About a third carry one
    fault: a positional or required option missing or extra, an unknown
    option, a missing value, a bad format or an unknown command.
    """
    out = []
    for _ in range(count):
        command = rng.choice(sorted(_CLI_SHAPES))
        npos, required, optional = _CLI_SHAPES[command]
        pos = [rng.choice(_CLI_VALUES) for _ in range(npos or 0)]
        if npos is not None and rng.random() < 0.6:
            pos.append(rng.choice(_CLI_VALUES))
        opts = []
        if required:
            opts.append([rng.choice(required), rng.choice(_CLI_VALUES)])
        opts += [[o, rng.choice(_CLI_VALUES)] for o in optional if rng.random() < 0.5]
        if npos is not None and rng.random() < 0.5:
            opts.append([rng.choice(("-f", "--format")), rng.choice(formats.GRAPH_FORMATS)])
        if opts and rng.random() < 0.2:
            opts.append([rng.choice(opts)[0], rng.choice(_CLI_VALUES)])
        fault = rng.choice(
            ["none"] * 14
            + ["drop-pos", "extra-pos", "drop-opt", "both", "unknown", "no-value",
               "flag-value", "bad-format", "command"]
        )
        if fault == "drop-pos" and npos:
            pos.pop(0)
        elif fault == "extra-pos" and npos is not None:
            pos += ["p"] * (npos + 2 - len(pos))
        elif fault == "drop-opt" and required:
            opts = [o for o in opts if o[0] not in required]
        elif fault == "both" and len(required) > 1:
            opts += [[o, "a"] for o in required]
        elif fault == "unknown":
            opts.append([rng.choice(("--bogus", "-x", "--word", "--anchor", "-f")), "a"])
        elif fault == "flag-value" and opts:
            rng.choice(opts)[1] = rng.choice(("-x", "--seq"))
        elif fault == "bad-format":
            opts.append(["-f", "dot"])
        rng.shuffle(opts)
        flat = []
        for flag, value in opts:
            flat += [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]
        if fault == "no-value":
            flat.append(rng.choice(("--seq", "--set", "-f", "--word")))
        place = rng.choice(("before", "after", "between", "dashes"))
        if place == "after":
            argv = pos + flat
        elif place == "between" and npos and npos > 1:
            argv = pos[:1] + flat + pos[1:]
        elif place == "dashes" and pos:
            argv = flat + ["--", "-v" + pos[0]] + pos[1:]
        else:
            argv = flat + pos
        if fault == "command":
            argv = rng.choice(([], ["frobnicate"], ["-f", "graph6", command], ["--", command]))
        else:
            argv = [command] + argv
        out.append(argv)
    return out
