"""Text formats for graphs, operation sequences, and vertex sets.

Edge-list documents (read/write), one statement per line:

    # comment, blank lines ignored; inline comments allowed
    vertex a        declare an isolated vertex
    loop b          put a loop on b (declares b)
    a b             edge between a and b (declares both)

Vertex tokens are arbitrary whitespace-free strings other than the two
keywords.  A document is sound exactly when its adjacency rows hold two
bits per edge line and one per loop line: a self-edge, a repeated edge and a
repeated loop each set fewer.  Canonical output lists vertex lines, then loop
lines, then edge lines, each group sorted, each line two tokens, one space
and a newline; the empty graph serializes to the empty document.  Text in
this writer's form reads by row runs: the edge lines that share a first
token are one run, and each run's ends sum to its row above the diagonal.
A loop over lines reads all other text and any text the run read refuses;
it checks each statement as it reads it, so it reports the first faulty line.

graph6 documents (read only) follow the standard encoding: optional
``>>graph6<<`` header, order byte(s), then the upper triangle packed in
column order, six bits per byte, each byte offset by 63.  Vertices are
named "0".."n-1".

Operation sequences use bracket groups: ``[u v]`` is a pivot, ``[w]`` the
loop rule.  Vertex sets are comma-separated tokens; the empty string is the
empty set.  The writers refuse a vertex whose token would not read back:
one with whitespace, ``#`` or a keyword, ``[`` or ``]`` in a sequence, and
``,`` in a set.
"""

import re
from binascii import a2b_base64
from bisect import bisect_right
from itertools import compress, islice, takewhile

from .errors import InputError, ParseError
from .gf2 import Gf2Matrix, _items, _transpose, _vertex_ids
from .graph import Graph, _bit_rows, _expect, _sorted_ids
from .sequences import LocalComp, Pivot, _validated

__all__ = [
    "GRAPH_FORMATS",
    "parse_graph",
    "serialize_graph",
    "parse_opseq",
    "serialize_opseq",
    "parse_vertex_set",
    "serialize_vertex_set",
]

GRAPH_FORMATS = ("edge-list", "graph6")

_KEYWORDS = ("vertex", "loop")
_SELECT = bytes.maketrans(b"01", b"\0\1")  # bit characters to itertools.compress selectors
# the run read transposes n x n digits when n * n <= _DENSE * (edge lines);
# tools/crossovers.py times each reader path over n and n * n / (edge lines)
_DENSE = 8


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    """Parse a graph document in the named format."""
    _expect(text, str)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "graph6":
        return _parse_graph6(text)
    raise InputError(f"unknown graph format: {fmt!r}")


def _parse_edge_list(text: str) -> Graph:
    # the writer's form, read by row runs
    if "#" not in text:
        toks = text.split()
        us, vs = toks[0::2], toks[1::2]
        # the vertex lines, the loop lines, then one run (head, lo, hi) of edge
        # lines us[lo:hi] per first token; in the writer's form heads rise,
        # so bisect finds the ends, and the join below refuses any other order
        nv = len(list(takewhile("vertex".__eq__, us)))
        k = nv + len(list(takewhile("loop".__eq__, islice(us, nv, None))))
        runs = [("vertex", 0, nv), ("loop", nv, k)]
        while runs[-1][2] < len(us):
            lo = runs[-1][2]
            runs.append((us[lo], lo, bisect_right(us, us[lo], lo + 1)))
        loops = vs[nv:k]
        ids = {*vs, *[u for u, _, _ in runs[2:]]}
        # equal to the text, the joins make every line 'u v' and give the
        # lines of a run its head
        if (
            len(us) == len(vs)
            and "".join([f"{u} " + f"\n{u} ".join(vs[lo:hi]) + "\n"
                         for u, lo, hi in runs if lo < hi]) == text
            and "vertex" not in ids and "loop" not in ids
        ):
            labels = tuple(sorted(ids))
            n, m = len(labels), len(us) - k
            if n * n <= _DENSE * m:
                # each run sums to its row above the diagonal, cut to n bits: a
                # carry, like a repeat, only loses bits; the transpose fills the rest
                bit = dict(zip(labels, map((1).__lshift__, range(n))))
                upper = dict.fromkeys(labels, 0)
                for u, lo, hi in runs[2:]:
                    upper[u] = sum(map(bit.__getitem__, vs[lo:hi])) & (1 << n) - 1
                for v in loops:
                    upper[v] |= bit[v]
                upper = list(upper.values())
                rows = tuple(map(int.__or__, upper, _transpose(upper, n, range(n))))
            else:
                rows = _bit_rows(labels, us[k:], vs[k:], loops)
            if sum(map(int.bit_count, rows)) == 2 * m + len(loops):
                return Graph._of(Gf2Matrix._trusted(labels, rows))
    # any other text, and any fault: one statement at a time, each checked as it is read
    declared = []
    loops = set()
    edges = {}  # each edge line's ends, lower first; _bit_rows runs faster in line order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if len(tokens) != 2:
            if tokens[0] in _KEYWORDS:
                raise ParseError(f"'{tokens[0]}' takes exactly one vertex", line=lineno)
            raise ParseError(
                f"expected 'u v', 'loop v', or 'vertex v', got {len(tokens)} tokens",
                line=lineno,
            )
        u, v = tokens
        # keywords in vertex position would not survive re-serialization; a
        # keyword first is a statement, so only v can be a misplaced one
        if v in _KEYWORDS:
            raise ParseError(f"keyword {v!r} cannot name a vertex", line=lineno)
        if u == "vertex":
            declared.append(v)
        elif u == "loop":
            if v in loops:
                raise ParseError(f"duplicate loop on {v!r}", line=lineno)
            loops.add(v)
        elif u == v:
            raise ParseError(f"self-edge {u!r} {v!r}; use 'loop {u}'", line=lineno)
        else:
            e = (u, v) if u < v else (v, u)
            if e in edges:
                raise ParseError(f"duplicate edge {u!r} {v!r}", line=lineno)
            edges[e] = None
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    labels = tuple(sorted({*declared, *loops, *us, *vs}))
    return Graph._of(Gf2Matrix._trusted(labels, _bit_rows(labels, us, vs, loops)))


# graph6 bytes are 63..126; each carries six bits, high bit first, as the
# base64 character of the same value does
_G6_RANGE = bytes(range(63, 127))
_G6_BASE64 = bytes.maketrans(
    _G6_RANGE, b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
)


def _parse_graph6(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise ParseError(f"expected one graph6 line, got {len(lines)}")
    try:
        data = lines[0].removeprefix(">>graph6<<").encode("ascii")
    except UnicodeEncodeError:
        raise ParseError("graph6 data must be ascii") from None
    if data.translate(None, _G6_RANGE):
        pos = next(i for i, b in enumerate(data) if b < 63 or b > 126)
        raise ParseError(f"invalid graph6 byte at offset {pos}")
    if not data:
        raise ParseError("empty graph6 payload")
    # the order is 1, 3 or 6 digits after 0, 1 or 2 bytes of 126 ("~")
    start = 0 if data[0] != 126 else 1 if data[1:2] != b"~" else 2
    idx = start + (1, 3, 6)[start]
    if len(data) < idx:
        raise ParseError("truncated graph6 order")
    n = 0
    for b in data[start:idx]:
        n = n << 6 | b - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - idx != nbytes:
        raise ParseError(
            f"graph6 payload has {len(data) - idx} data byte(s), expected {nbytes}"
        )
    # pad to whole base64 quads with zero digits, then read the bits as text
    payload = data[idx:].translate(_G6_BASE64)
    payload += b"A" * (-len(payload) % 4)
    value = int.from_bytes(a2b_base64(payload), "big")
    bits = format(value, f"0{6 * len(payload)}b").encode("ascii")
    # the payload lists column j of the upper triangle, the entries (i, j)
    # with i < j, as one slice; reversed, it reads as row j below the
    # diagonal, and the transpose fills each row above it
    low = [int(bits[j * (j - 1) // 2 : j * (j + 1) // 2][::-1] or b"0", 2) for j in range(n)]
    rows = tuple(map(int.__or__, low, _transpose(low, n, range(n))))
    return Graph.from_adjacency_matrix(Gf2Matrix._trusted(tuple(map(str, range(n))), rows))


def _token(label, reserved: str = "#") -> str:
    tok = str(label)
    if not tok or tok.split() != [tok] or tok in _KEYWORDS or any(c in tok for c in reserved):
        raise InputError(f"vertex id {label!r} cannot be written as a token")
    return tok


def _edge_list(toks: list, rows) -> str:
    """The edge-list document of the bit rows ``rows`` over the tokens ``toks``."""
    # a vertex with an all-zero row has neither loop nor edge
    lines = [f"vertex {t}" for t, r in zip(toks, rows) if not r]
    lines += [f"loop {t}" for i, (t, r) in enumerate(zip(toks, rows)) if r >> i & 1]
    # the bits of row i above i, lowest first, select the other ends of its
    # edges; bin(r)[:1:-1] is the binary digits of r reversed, without "0b"
    for i, (t, r) in enumerate(zip(toks, rows)):
        r >>= i + 1
        if r:
            ends = compress(toks[i + 1 :], bin(r)[:1:-1].encode().translate(_SELECT))
            lines.append(f"{t} " + f"\n{t} ".join(ends))
    return "\n".join(lines) + "\n" if lines else ""


def serialize_graph(G: Graph) -> str:
    """Canonical edge-list document; round-trips through parse_graph."""
    return _edge_list([_token(v) for v in _expect(G, Graph).vertices], G.adjacency_matrix().rows)


_BRACKET = r"\[([^\[\]]*)\]"


def parse_opseq(text: str):
    """Parse bracket groups into a tuple of operations."""
    parts = re.split(_BRACKET, _expect(text, str))
    rest = " ".join(parts[::2]).split()
    if rest:
        raise ParseError(f"stray text outside brackets: {rest[0]!r}")
    ops = []
    for group in parts[1::2]:
        tokens = group.split()
        if len(tokens) == 1:
            ops.append(LocalComp(tokens[0]))
        elif len(tokens) == 2:
            if tokens[0] == tokens[1]:
                raise ParseError(f"pivot endpoints must differ: [{group}]")
            ops.append(Pivot(tokens[0], tokens[1]))
        else:
            raise ParseError(f"bracket group needs one or two vertices: [{group}]")
    return tuple(ops)


def serialize_opseq(seq) -> str:
    """Bracket-group form of a sequence; inverse of parse_opseq."""
    return " ".join(
        "[" + " ".join(_token(x, "#[]") for x in op) + "]" for op in _validated(None, seq)
    )


def parse_vertex_set(text: str) -> frozenset:
    """Comma-separated vertex tokens; the empty string is the empty set."""
    if not _expect(text, str).strip():
        return frozenset()
    toks = [part.strip() for part in text.split(",")]
    if "" in toks:
        raise ParseError(f"empty vertex token in set: {text!r}")
    return frozenset(toks)


def serialize_vertex_set(vertices) -> str:
    """Sorted comma-separated tokens; inverse of parse_vertex_set."""
    ids = _vertex_ids(_items(vertices, "vertices"), "vertex")
    return ",".join(_token(v, "#,") for v in _sorted_ids(ids))
