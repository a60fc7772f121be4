import random
import re
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from pivotgraph import (
    Graph,
    InputError,
    LocalComp,
    ParseError,
    Pivot,
    parse_graph,
    parse_opseq,
    parse_vertex_set,
    serialize_graph,
    serialize_opseq,
    serialize_vertex_set,
)
from pivotgraph import formats
from helpers import random_loop_graph, read_edge_list_naive


def test_parse_edge_list_basics():
    doc = """
    # a small mixed graph
    a b
    b c   # inline comment
    loop c
    vertex d
    """
    g = parse_graph(doc)
    assert g.vertices == ("a", "b", "c", "d")
    assert g.edges == (("a", "b"), ("b", "c"))
    assert g.loops == frozenset("c")


def test_parse_edge_list_empty_document():
    assert parse_graph("") == Graph()
    assert parse_graph("# nothing\n\n") == Graph()


def test_serialize_canonical_order():
    g = Graph(["d"], [("b", "a"), ("b", "c")], ["c"])
    assert serialize_graph(g) == "vertex d\nloop c\na b\nb c\n"
    # a vertex with a loop and no edge is no isolated vertex
    assert serialize_graph(Graph(["c"], [("b", "d")], ["a"])) == "vertex c\nloop a\nb d\n"
    assert serialize_graph(Graph()) == ""


def test_edge_list_round_trip_random():
    rng = random.Random(31)
    for _ in range(60):
        g = random_loop_graph(rng, rng.randint(0, 7))
        relabeled = Graph(
            [f"v{v}" for v in g.vertices],
            [(f"v{u}", f"v{v}") for u, v in g.edges],
            [f"v{v}" for v in g.loops],
        )
        assert parse_graph(serialize_graph(relabeled)) == relabeled


def _error_case(doc, line, kind, message):
    # the id names the error kind, not the whole message
    return pytest.param(doc, f"line {line}: {message}", id=f"{doc}-{line}-{kind}")


@pytest.mark.parametrize(
    "doc,message",
    [
        _error_case("a b\nb a\n", 2, "duplicate edge", "duplicate edge 'b' 'a'"),
        _error_case("loop a\nloop a\n", 2, "duplicate loop", "duplicate loop on 'a'"),
        _error_case("x x\n", 1, "self-edge", "self-edge 'x' 'x'; use 'loop x'"),
        _error_case(
            "a b c\n", 1, "tokens", "expected 'u v', 'loop v', or 'vertex v', got 3 tokens"
        ),
        _error_case(
            "a\n", 1, "tokens", "expected 'u v', 'loop v', or 'vertex v', got 1 tokens"
        ),
        _error_case("loop a b\n", 1, "exactly one", "'loop' takes exactly one vertex"),
        _error_case("vertex\n", 1, "exactly one", "'vertex' takes exactly one vertex"),
        _error_case("a loop\n", 1, "keyword", "keyword 'loop' cannot name a vertex"),
        _error_case("vertex vertex\n", 1, "keyword", "keyword 'vertex' cannot name a vertex"),
        _error_case("loop loop\n", 1, "keyword", "keyword 'loop' cannot name a vertex"),
        # the first faulty line wins, whichever kind of fault it has
        _error_case("a b\nb a\nx\n", 2, "duplicate edge", "duplicate edge 'b' 'a'"),
        _error_case("a b\nc d\nb a\nd c\n", 3, "first duplicate", "duplicate edge 'b' 'a'"),
        _error_case(
            "a b\nx\nb a\n", 2, "tokens", "expected 'u v', 'loop v', or 'vertex v', got 1 tokens"
        ),
        _error_case("a b\nloop a\nloop a\n", 3, "duplicate loop", "duplicate loop on 'a'"),
        # each order of two faults, in the writer's form (the run read refuses
        # it) and hand-written
        _error_case("a b\nb b\nc\n", 2, "self-edge first", "self-edge 'b' 'b'; use 'loop b'"),
        _error_case("# c\nb b\n\na b c\n", 2, "self-edge first", "self-edge 'b' 'b'; use 'loop b'"),
        _error_case(
            "a b\nc\nb b\n", 2, "malformed first", "expected 'u v', 'loop v', or 'vertex v', got 1 tokens"
        ),
        _error_case("a\tb  # c\nloop a b\nb b\n", 2, "malformed first", "'loop' takes exactly one vertex"),
        _error_case("loop a\nloop a\na b\na b\n", 2, "loop first", "duplicate loop on 'a'"),
        _error_case("a b\nloop a\nloop a  # c\nb a\n", 3, "loop first", "duplicate loop on 'a'"),
        _error_case("loop b\na b\na b\nloop b\n", 3, "edge first", "duplicate edge 'a' 'b'"),
        _error_case("a b\nb a\t# c\nloop b\nloop b\n", 2, "edge first", "duplicate edge 'b' 'a'"),
        _error_case("a b\na b\na loop\n", 2, "edge, keyword", "duplicate edge 'a' 'b'"),
        _error_case("b a # c\na\tb\nvertex loop\n", 2, "edge, keyword", "duplicate edge 'a' 'b'"),
    ],
)
def test_edge_list_errors_carry_line_numbers(doc, message):
    with pytest.raises(ParseError) as err:
        parse_graph(doc)
    assert str(err.value) == message


# tokens with no whitespace and no "#", some of them close to the keywords
_TOKEN_CHARS = "abvxyz019_-.,[]()éλ"
_NEAR_KEYWORDS = ("vertexa", "loops", "Loop", "VERTEX", "vert", "lo")


def _writer_lines(rng, n):
    """The lines of a random graph's document in the writer's form."""
    labels = set(rng.sample(_NEAR_KEYWORDS, rng.randint(0, 2)))
    while len(labels) < n:
        labels.add("".join(rng.choices(_TOKEN_CHARS, k=rng.randint(1, 4))))
    labels = sorted(labels)
    p, loop_p = rng.random(), rng.random()
    edges = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :] if rng.random() < p]
    loops = [v for v in labels if rng.random() < loop_p]
    ends = {x for e in edges for x in e}
    return (
        [f"vertex {v}" for v in labels if v not in ends and v not in loops]
        + [f"loop {v}" for v in loops]
        + [f"{u} {v}" for u, v in edges]
    )


def _first(lines, kind):
    # index of the first line of a kind: "vertex", "loop" or "edge"
    for i, line in enumerate(lines):
        head = line.split()[0]
        if head == kind or kind == "edge" and head not in ("vertex", "loop"):
            return i
    return None


def _mutations(rng, lines):
    """Name and text of each mutation of a writer-form document that applies."""
    doc = "".join(line + "\n" for line in lines)
    out = {"writer form": doc}
    if not lines:
        return out

    def text(k, new, drop=0):
        # the document with ``new`` in place of lines[k:k + drop]
        return "".join(x + "\n" for x in lines[:k] + new + lines[k + drop :])

    i = rng.randrange(len(lines))
    u, v = lines[i].split()
    h = rng.randint(0, len(u))
    out["# in a token"] = text(i, [f"{u[:h]}#{u[h:]} {v}"], drop=1)
    out["odd token count"] = text(i, [u], drop=1)
    out["one token and a space"] = text(i, [u + " "], drop=1)
    e = _first(lines, "edge")
    if e is not None:
        a, b = lines[e].split()
        later = rng.randint(e + 1, len(lines))
        out["repeated edge"] = text(later, [f"{a} {b}"])
        out["reversed edge"] = text(later, [f"{b} {a}"])
        out["self-edge"] = text(rng.randint(e, len(lines)), [f"{a} {a}"])
        out["keyword lines after edges"] = "".join(
            x + "\n" for x in lines[e:] + lines[:e] + ["vertex " + rng.choice([a, b, "new"])]
        )
        first = rng.choice([a, "loop", "vertex"])
        second = rng.choice(["loop", "vertex"])
        out["keyword as second token"] = text(rng.randint(0, len(lines)), [f"{first} {second}"])
    lp = _first(lines, "loop")
    if lp is not None:
        out["repeated loop"] = text(lp, [lines[lp]])
    vx = _first(lines, "vertex")
    if vx is not None:
        out["repeated vertex line"] = text(vx, [lines[vx]])
        if lp is not None:
            out["loop line before vertex lines"] = "".join(
                x + "\n" for x in [lines[lp]] + lines[:lp] + lines[lp + 1 :]
            )
    s = rng.choice([k for k, c in enumerate(doc) if c == " "])
    nl = rng.choice([k for k, c in enumerate(doc) if c == "\n"])
    out["double space"] = doc[:s] + "  " + doc[s + 1 :]
    out["tab"] = doc[:s] + "\t" + doc[s + 1 :]
    out["no-break space"] = doc[:s] + "\u00a0" + doc[s + 1 :]
    out["line separator"] = doc[:nl] + "\u2028" + doc[nl + 1 :]
    out["line separator in a token"] = doc[:1] + "\u2028" + doc[1:]
    out["crlf"] = doc.replace("\n", "\r\n")
    out["blank line"] = doc[: nl + 1] + "\n" + doc[nl + 1 :]
    out["no final newline"] = doc[:-1]
    out["line split in two"] = doc[:s] + "\n" + doc[s + 1 :]
    out["three tokens"] = doc[:nl] + " x" + doc[nl:]
    if e is not None:
        # line orders the run read does not assume, and repeats it must catch
        edges = lines[e:]
        out["edge lines shuffled"] = text(e, rng.sample(edges, len(edges)), drop=len(edges))
        if len(edges) > 1:
            s2 = rng.randrange(e, len(lines) - 1)
            out["edge lines swapped"] = text(s2, [lines[s2 + 1], lines[s2]], drop=2)
        j = rng.randrange(e, len(lines))
        a, b = lines[j].split()
        out["edge line reversed"] = text(j, [f"{b} {a}"], drop=1)
        run_end = max(i for i in range(e, len(lines)) if lines[i].split()[0] == a)
        out["run's last line at the end"] = text(run_end, [], drop=1) + lines[run_end] + "\n"
        out["vertex line names an endpoint"] = text(rng.randint(0, e), [f"vertex {rng.choice([a, b])}"])
        out["end repeated in its run"] = text(rng.randint(j + 1, run_end + 1), [lines[j]])
    return out


def edge_list_corpus(seed, count):
    """(name, text) of writer-form documents of random graphs and their mutations."""
    rng = random.Random(seed)
    for _ in range(count):
        yield from _mutations(rng, _writer_lines(rng, rng.randint(0, 9))).items()


# the message of each kind of fault the oracle names
_FAULT_MESSAGES = {
    "tokens": r"expected 'u v', 'loop v', or 'vertex v', got \d+ tokens",
    "arity": r"'(vertex|loop)' takes exactly one vertex",
    "keyword": r"keyword '(vertex|loop)' cannot name a vertex",
    "duplicate loop": r"duplicate loop on '[^']+'",
    "self-edge": r"self-edge '([^']+)' '\1'; use 'loop \1'",
    "duplicate edge": r"duplicate edge '[^']+' '[^']+'",
}


def test_edge_list_reader_agrees_with_naive_oracle():
    # the writer's form reads by row runs and everything else
    # by the line loop; both must give the oracle's graph or its fault
    kinds = set()
    dense = set()  # which row builder each writer-form document takes
    for name, doc in edge_list_corpus(14, 300):
        expected, fault = read_edge_list_naive(doc)
        if fault is None:
            assert parse_graph(doc) == expected, (name, doc)
            if name == "writer form":
                assert serialize_graph(expected) == doc
                n, m = len(expected.vertices), len(expected.edges)
                dense.add(m > 0 and n * n <= formats._DENSE * m)
        else:
            with pytest.raises(ParseError) as err:
                parse_graph(doc)
            line, kind = fault
            assert err.value.line == line, (name, doc)
            assert re.fullmatch(f"line {line}: {_FAULT_MESSAGES[kind]}", str(err.value)), (name, doc)
        kinds.add(fault and fault[1])
    assert kinds == {None, *_FAULT_MESSAGES}
    assert dense == {False, True}


# faulty documents in writer tokens that reach the run read's row builders
_BUILDER_FAULTS = [
    "a a\n",
    "loop a\na a\n",
    "vertex c\na b\nb b\n",
    "loop a\nloop a\n",
    "vertex b\nloop a\nloop a\nc d\n",
    "a b\na b\n",
    "vertex c\na b\na b\n",
    "loop a\nloop b\na c\nb c\nb c\n",  # row b's sum carries past the last label
    "a b\nb a\n",
    "a b\na c\nb c\nc a\n",
]


def test_every_edge_fault_reads_alike_on_every_reader_path(monkeypatch):
    # the same faulty text goes through the run read's transpose branch
    # (_DENSE huge), its _bit_rows branch (_DENSE 0) and, after a leading
    # comment, the line loop; each read gives the oracle's line and message
    calls = {"_transpose": 0, "_bit_rows": 0}

    def counted(name):
        builder = getattr(formats, name)

        def call(*args):
            calls[name] += 1
            return builder(*args)

        return call

    for name in calls:
        monkeypatch.setattr(formats, name, counted(name))
    reached = set()  # (kind, branch) of each fault that a run-read builder met
    docs = [doc for _, doc in edge_list_corpus(18, 120)] + _BUILDER_FAULTS
    kinds = set()
    for doc in docs:
        if read_edge_list_naive(doc)[1] is None:
            continue
        messages = []
        for dense, text in ((10**9, doc), (0, doc), (8, "# c\n" + doc)):
            monkeypatch.setattr(formats, "_DENSE", dense)
            before = dict(calls)
            with pytest.raises(ParseError) as err:
                parse_graph(text)
            line, kind = read_edge_list_naive(text)[1]
            assert err.value.line == line, (dense, text)
            assert re.fullmatch(f"line {line}: {_FAULT_MESSAGES[kind]}", str(err.value)), (dense, text)
            messages.append(str(err.value).partition(": ")[2])
            if calls["_transpose"] > before["_transpose"]:
                reached.add((kind, "transpose"))
            if calls["_bit_rows"] > before["_bit_rows"]:  # the line loop raises before its call
                reached.add((kind, "_bit_rows"))
        assert len(set(messages)) == 1, (doc, messages)
        kinds.add(kind)
    assert kinds == set(_FAULT_MESSAGES)
    counted_kinds = ("self-edge", "duplicate loop", "duplicate edge")
    assert reached == {(k, b) for k in counted_kinds for b in ("transpose", "_bit_rows")}


def test_density_rule_picks_the_row_builder(monkeypatch):
    # 25 > 8 * 1: graph._bit_rows builds the rows; 9 <= 8 * 3: the transpose
    def refuse(*args):
        raise AssertionError("the other row builder ran")

    with monkeypatch.context() as mp:
        mp.setattr(formats, "_transpose", refuse)
        assert parse_graph("vertex a\nvertex b\nvertex c\nd e\n") == Graph("abc", [("d", "e")])
    with monkeypatch.context() as mp:
        mp.setattr(formats, "_bit_rows", refuse)
        triangle = [("a", "b"), ("a", "c"), ("b", "c")]
        assert parse_graph("a b\na c\nb c\n") == Graph(edges=triangle)
    assert 5 * 5 > formats._DENSE * 1 and 3 * 3 <= formats._DENSE * 3


@pytest.mark.parametrize("doc", ["vertex c\na b\na b\n", "a b\na b\n"])
def test_run_sum_that_carries_is_a_duplicate_edge(doc):
    # the two bits of b in row a add up to the bit of c, or to one past the
    # last label; either way the run read's bit count falls short and leaves
    # the fault to the line loop
    n = len(set(doc.split()) - {"vertex"})
    assert n * n <= formats._DENSE * 2
    with pytest.raises(ParseError) as err:
        parse_graph(doc)
    assert str(err.value) == f"line {doc.count(chr(10))}: duplicate edge 'a' 'b'"


def test_serialize_rejects_unwritable_labels():
    for bad in ("", "a b", "x#y", "loop", "vertex"):
        # isolated, only in an edge, only as a loop
        for g in (Graph([bad]), Graph(edges=[("ok", bad)]), Graph(loops=[bad])):
            with pytest.raises(InputError) as err:
                serialize_graph(g)
            assert repr(bad) in str(err.value)


@st.composite
def token_graphs(draw, max_n=8):
    names = draw(st.lists(st.text("abXY019_-.", min_size=1, max_size=3), unique=True, max_size=max_n))
    pairs = list(combinations(names, 2))
    emask = draw(st.integers(0, (1 << len(pairs)) - 1))
    lmask = draw(st.integers(0, (1 << len(names)) - 1))
    return Graph(
        names,
        [e for i, e in enumerate(pairs) if (emask >> i) & 1],
        [v for i, v in enumerate(names) if (lmask >> i) & 1],
    )


@given(token_graphs())
def test_edge_list_round_trip_property(g):
    assert parse_graph(serialize_graph(g)) == g


def test_parse_graph_unknown_format():
    with pytest.raises(InputError):
        parse_graph("a b", fmt="dot")


def test_graph6_known_values():
    k3 = parse_graph("Bw", fmt="graph6")
    assert k3.vertices == ("0", "1", "2")
    assert k3.edges == (("0", "1"), ("0", "2"), ("1", "2"))
    path = parse_graph("Bg", fmt="graph6")
    assert path.edges == (("0", "1"), ("1", "2"))
    assert parse_graph("?", fmt="graph6") == Graph()
    assert parse_graph("@", fmt="graph6") == Graph(["0"])
    assert parse_graph(">>graph6<<Bw\n", fmt="graph6") == k3


def test_graph6_long_form_order():
    # 63 vertices forces the multi-byte order prefix
    payload = "~??~" + "?" * 326
    g = parse_graph(payload, fmt="graph6")
    assert len(g.vertices) == 63
    assert g.edges == ()


def test_graph6_against_networkx():
    rng = random.Random(32)
    # 62 is the last one-byte order; 100 has three-digit labels, so string
    # order differs from numeric order well into the rows; 500 and 1000 are
    # the dense sizes the benchmark reads
    sizes = [rng.randint(0, 12) for _ in range(40)] + [62, 63, 64, 100, 500, 1000]
    for n in sizes:
        nxg = nx.gnp_random_graph(n, 0.4, seed=rng.randint(0, 10**6))
        encoded = nx.to_graph6_bytes(nxg).decode()
        g = parse_graph(encoded, fmt="graph6")
        expected = Graph(
            [str(i) for i in range(n)], [(str(a), str(b)) for a, b in nxg.edges()]
        )
        assert g == expected


@pytest.mark.parametrize(
    "doc,message",
    [
        pytest.param(doc, message, id=doc)
        for doc, message in [
            ("", "expected one graph6 line, got 0"),
            (" \n\t\n", "expected one graph6 line, got 0"),
            ("Bw\nBw\n", "expected one graph6 line, got 2"),
            (">>graph6<<", "empty graph6 payload"),
            # order says 3 vertices but no payload
            ("B", "graph6 payload has 0 data byte(s), expected 1"),
            # extra payload byte
            ("Bww", "graph6 payload has 2 data byte(s), expected 1"),
            ("~", "truncated graph6 order"),
            ("~?", "truncated graph6 order"),
            ("~~", "truncated graph6 order"),
            ("~~??", "truncated graph6 order"),
            # bytes below and above the graph6 range
            ("B\x1fw", "invalid graph6 byte at offset 1"),
            ("B\x7fw", "invalid graph6 byte at offset 1"),
            ("Bé", "graph6 data must be ascii"),
            # one header is stripped, and nothing after it
            (">>graph6<<>>graph6<<A_", "invalid graph6 byte at offset 0"),
            (">>graph6<< A_", "invalid graph6 byte at offset 0"),
        ]
    ],
)
def test_graph6_errors(doc, message):
    with pytest.raises(ParseError) as err:
        parse_graph(doc, fmt="graph6")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_graph, b"a b"),
        (parse_graph, None),
        (lambda text: parse_graph(text, fmt="graph6"), b"Bw"),
        (parse_opseq, 5),
        (parse_opseq, b"[a b]"),
        (parse_vertex_set, 5),
        (parse_vertex_set, ["a"]),
    ],
)
def test_parsers_refuse_what_is_not_text(parse, text):
    with pytest.raises(InputError) as err:
        parse(text)
    assert str(err.value) == f"text is not a str: {text!r}"


def test_opseq_round_trip():
    seq = (Pivot("a", "b"), LocalComp("c"), Pivot("b", "d"))
    text = serialize_opseq(seq)
    assert text == "[a b] [c] [b d]"
    assert parse_opseq(text) == seq
    assert parse_opseq("") == ()
    assert serialize_opseq(()) == ""
    assert parse_opseq("  [x]  ") == (LocalComp("x"),)


@pytest.mark.parametrize(
    "doc,message",
    [
        pytest.param(doc, message, id=doc)
        for doc, message in [
            ("x [a b]", "stray text outside brackets: 'x'"),
            ("[a b] y", "stray text outside brackets: 'y'"),
            # unclosed and nested groups leave their brackets outside
            ("[a b", "stray text outside brackets: '[a'"),
            ("a b]", "stray text outside brackets: 'a'"),
            ("[a [b] c]", "stray text outside brackets: '[a'"),
            ("[[a]", "stray text outside brackets: '['"),
            ("[a]]", "stray text outside brackets: ']'"),
            ("[a b c]", "bracket group needs one or two vertices: [a b c]"),
            ("[]", "bracket group needs one or two vertices: []"),
            ("[ ]", "bracket group needs one or two vertices: [ ]"),
            ("[a b][c d e]", "bracket group needs one or two vertices: [c d e]"),
            ("[a a]", "pivot endpoints must differ: [a a]"),
        ]
    ],
)
def test_opseq_errors(doc, message):
    with pytest.raises(ParseError) as err:
        parse_opseq(doc)
    assert str(err.value) == message


def test_serialize_opseq_validation():
    with pytest.raises(InputError):
        serialize_opseq([("a", "b")])
    with pytest.raises(InputError):
        serialize_opseq([LocalComp("has space")])
    # admitted by the rule that support() and is_reduced() use
    with pytest.raises(InputError) as err:
        serialize_opseq([LocalComp([1])])
    assert str(err.value) == "vertex [1] is not hashable"


def test_writers_refuse_tokens_that_do_not_read_back():
    # each of these would be read back as other operations or other vertices
    for seq in ([Pivot("a]", "b")], [Pivot("a", "[b")], [LocalComp("x]y")]):
        with pytest.raises(InputError, match="cannot be written as a token"):
            serialize_opseq(seq)
    with pytest.raises(InputError) as err:
        serialize_vertex_set({"a", "x,y"})
    assert str(err.value) == "vertex id 'x,y' cannot be written as a token"
    # str([1]) would read back as the vertex '[1]'
    with pytest.raises(InputError) as err:
        serialize_vertex_set([[1]])
    assert str(err.value) == "vertex [1] is not hashable"


def test_vertex_set_round_trip():
    assert serialize_vertex_set(frozenset()) == ""
    assert serialize_vertex_set({"c", "a", "b"}) == "a,b,c"
    assert serialize_vertex_set({3, 1}) == "1,3"
    # a set: a repeated vertex is written once
    assert serialize_vertex_set(["b", "a", "b"]) == "a,b"
    for s in (set(), {"a"}, {"a]", "[b", "c-d"}):
        assert parse_vertex_set(serialize_vertex_set(s)) == s


def test_serialize_vertex_set_names_ids_that_do_not_compare():
    # sorted by the one label-order rule that Graph(...) uses
    with pytest.raises(InputError) as err:
        serialize_vertex_set([1, "a"])
    assert str(err.value) == "vertex ids 'a' and 1 cannot be ordered"


def test_parse_vertex_set():
    assert parse_vertex_set("") == frozenset()
    assert parse_vertex_set("   ") == frozenset()
    assert parse_vertex_set("a") == frozenset("a")
    assert parse_vertex_set("a, b ,c") == frozenset("abc")
    assert parse_vertex_set("a,a") == frozenset("a")
    for text in ("a,,b", "a,", ",a", " , "):
        with pytest.raises(ParseError) as err:
            parse_vertex_set(text)
        assert str(err.value) == f"empty vertex token in set: {text!r}"
