import copy
import pickle
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from pivotgraph import (
    Gf2Matrix,
    Graph,
    InputError,
    LocalComp,
    NotApplicableError,
    Pivot,
    UnsupportedSizeError,
    apply,
    apply_support,
    check_commutation,
    count_applicable_supports,
    is_applicable,
    is_reduced,
    is_support_applicable,
    orbit,
    pivot,
    pm_parity,
    reduce_to_empty,
    support,
    synthesize_reduced,
)
from helpers import (
    add_true_twin,
    all_loop_graphs,
    all_simple_graphs,
    apply_support_entrywise,
    count_supports_bruteforce,
    greedy_reduced_sequence,
    minor_bruteforce,
    orbit_bruteforce,
    pivot_by_classes,
    pm_bruteforce,
    random_applicable_sequence,
    random_loop_graph,
    random_simple_graph,
    randomized_reduced_sequence,
    stabilizer_bruteforce,
    vertex_subsets,
)


def test_op_values():
    assert Pivot(1, 2).touched == frozenset((1, 2))
    assert LocalComp(3).touched == frozenset((3,))
    with pytest.raises(InputError):
        Pivot(1, 1)
    with pytest.raises(InputError):
        Pivot(u="a", v="a")


def test_op_value_semantics():
    p = Pivot("a", "b")
    assert p == Pivot(u="a", v="b") == Pivot("a", v="b")
    assert hash(p) == hash(Pivot("a", "b"))
    assert LocalComp(u="c") == LocalComp("c")
    assert hash(LocalComp("c")) == hash(LocalComp(u="c"))
    assert len({p, Pivot("a", "b"), LocalComp("a"), LocalComp("a")}) == 2
    # equal only to an operation of the same class with the same fields
    assert p != Pivot("b", "a")
    assert p != ("a", "b")
    assert p != LocalComp("a")
    assert LocalComp("a") != ("a",)
    assert repr(p) == "Pivot(u='a', v='b')"
    assert repr(LocalComp(3)) == "LocalComp(u=3)"
    for op, field in ((p, "u"), (p, "v"), (LocalComp("c"), "u")):
        with pytest.raises(AttributeError):
            setattr(op, field, "z")
        with pytest.raises(AttributeError):
            delattr(op, field)
    assert (p.u, p.v) == ("a", "b")
    assert pickle.loads(pickle.dumps(p)) == p
    match p:
        case Pivot(u, v):
            assert (u, v) == ("a", "b")
    match LocalComp("c"):
        case LocalComp(w):
            assert w == "c"


def test_op_is_the_tuple_of_its_fields():
    p, c = Pivot("a", "b"), LocalComp("ab")
    assert isinstance(p, tuple) and isinstance(c, tuple)
    assert (len(p), p[0], p[-1], p[:1]) == (2, "a", "b", ("a",))
    u, v = p
    (w,) = c
    assert (u, v, w) == ("a", "b", "ab")
    assert "a" in p and "c" not in p and "a" not in c
    assert c == LocalComp(u="ab") and len(c) == 1  # one field, not the string's letters
    assert sorted([Pivot("b", "a"), Pivot("a", "c"), Pivot("a", "b")]) == [
        Pivot("a", "b"), Pivot("a", "c"), Pivot("b", "a")
    ]
    assert hash(p) == hash(("a", "b")) and hash(c) == hash(("ab",))
    # equal to no plain tuple, from either side
    assert not p == ("a", "b") and not ("a", "b") == p and ("a", "b") != p
    assert p != Pivot("a", "c") and not p != Pivot("a", "b")
    with pytest.raises(AttributeError):
        p.w = "z"
    # a bare operation is read as a sequence of its vertices
    for call in (support, is_reduced):
        with pytest.raises(InputError) as err:
            call(p)
        assert str(err.value) == "not an operation: 'a'"
    with pytest.raises(InputError) as err:
        apply(Graph(edges=[("a", "b")]), p)
    assert str(err.value) == "not an operation: 'a'"


VALUES = (
    Graph(["d"], [("a", "b"), ("b", "c")], ["c"]),
    Graph(range(4), [(0, 1), (2, 3)]),
    Gf2Matrix.from_dense(["x", "y"], [[1, 1], [1, 0]]),
    Pivot("a", "b"),
    Pivot(1, 2),
    LocalComp("ab"),
    LocalComp(3),
)


@pytest.mark.parametrize(
    "value", VALUES, ids=["graph", "int-graph", "matrix", "pivot", "int-pivot", "loop-rule", "int-loop-rule"]
)
def test_values_survive_pickle_and_copy(value):
    copies = [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value) and other == value and hash(other) == hash(value)
        if isinstance(value, Graph):
            assert other.has_edge(*value.edges[0])
            with pytest.raises(InputError, match="unknown vertex: 'zz'"):
                other.has_edge("zz", other.vertices[0])


@pytest.mark.parametrize("proto", range(pickle.HIGHEST_PROTOCOL + 1))
def test_unpickling_an_operation_checks_it_again(proto):
    data = pickle.dumps(Pivot("uu", "vv"), proto)
    assert data.count(b"vv") == 1
    with pytest.raises(InputError, match="^pivot endpoints must be distinct$"):
        pickle.loads(data.replace(b"vv", b"uu"))


# written by the earlier format, which rebuilt a graph or a matrix from a
# __getstate__ over its slots and an operation through __new__
EARLIER_PICKLES = [
    (
        Graph(["c"], [("a", "b")], ["b"]),
        b"ccopy_reg\n_reconstructor\np0\n(cpivotgraph.graph\nGraph\np1\nc__builtin__\nobject\np2\nNtp3\n"
        b"Rp4\n(N(dp5\nV_matrix\np6\ng0\n(cpivotgraph.gf2\nGf2Matrix\np7\ng2\nNtp8\nRp9\n(N(dp10\n"
        b"V_labels\np11\n(Va\np12\nVb\np13\nVc\np14\ntp15\nsV_pos\np16\n(dp17\ng12\nI0\nsg13\nI1\nsg14\n"
        b"I2\nssV_rows\np18\n(I2\nI3\nI0\ntp19\nstp20\nbstp21\nb.",
    ),
    (
        Graph(["c"], [("a", "b")], ["b"]),
        b"\x80\x05\x95\x9b\x00\x00\x00\x00\x00\x00\x00\x8c\x10pivotgraph.graph\x94\x8c\x05Graph\x94\x93"
        b"\x94)\x81\x94N}\x94\x8c\x07_matrix\x94\x8c\x0epivotgraph.gf2\x94\x8c\tGf2Matrix\x94\x93\x94)"
        b"\x81\x94N}\x94(\x8c\x07_labels\x94\x8c\x01a\x94\x8c\x01b\x94\x8c\x01c\x94\x87\x94\x8c\x04_pos"
        b"\x94}\x94(h\x0cK\x00h\rK\x01h\x0eK\x02u\x8c\x05_rows\x94K\x02K\x03K\x00\x87\x94u\x86\x94bs"
        b"\x86\x94b.",
    ),
    (
        Pivot("uu", "vv"),
        b"ccopy_reg\n_reconstructor\np0\n(cpivotgraph.sequences\nPivot\np1\nc__builtin__\ntuple\np2\n"
        b"(Vuu\np3\nVvv\np4\ntp5\ntp6\nRp7\n.",
    ),
    (
        Pivot("uu", "vv"),
        b"\x80\x05\x950\x00\x00\x00\x00\x00\x00\x00\x8c\x14pivotgraph.sequences\x94\x8c\x05Pivot\x94\x93"
        b"\x94\x8c\x02uu\x94\x8c\x02vv\x94\x86\x94\x81\x94.",
    ),
]


@pytest.mark.parametrize("value, data", EARLIER_PICKLES, ids=["graph-0", "graph-5", "pivot-0", "pivot-5"])
def test_pickles_of_the_earlier_format_still_load(value, data):
    other = pickle.loads(data)
    assert type(other) is type(value) and other == value and hash(other) == hash(value)
    assert repr(other) == repr(value)
    if isinstance(value, Graph):
        assert other.neighbors("b") == {"a"} and other.has_loop("b")


def test_support_parity():
    assert support([]) == frozenset()
    assert support([Pivot("a", "b"), Pivot("b", "c")]) == frozenset("ac")
    assert support([LocalComp("a"), Pivot("a", "b"), LocalComp("b")]) == frozenset()
    with pytest.raises(InputError):
        support([("a", "b")])


def test_is_reduced():
    assert is_reduced([])
    assert is_reduced([Pivot("a", "b"), LocalComp("c")])
    assert not is_reduced([Pivot("a", "b"), Pivot("b", "c")])
    assert not is_reduced([LocalComp("a"), LocalComp("a")])
    # every sequence of at most 3 of the 16 operations over 4 vertices
    ops = [LocalComp(v) for v in "abcd"] + [Pivot(u, v) for u, v in permutations("abcd", 2)]
    seqs = [seq for k in range(4) for seq in product(ops, repeat=k)]
    assert len(ops) == 16 and len(seqs) == 4369
    for seq in seqs:
        flat = [getattr(op, field) for op in seq for field in op.__match_args__]
        assert is_reduced(seq) == (len(flat) == len(set(flat))), seq


def test_apply_and_applicability():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    assert is_applicable(g, [Pivot("a", "b")])
    assert not is_applicable(g, [Pivot("a", "c")])
    assert not is_applicable(g, [LocalComp("a")])  # no loop on a simple graph
    assert apply(g, []) == g
    assert apply(g, [Pivot("a", "b")]) == pivot(g, "a", "b")
    with pytest.raises(InputError):
        is_applicable(g, [Pivot("a", "x")])


def test_apply_reports_failing_index():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(NotApplicableError) as err:
        apply(g, [Pivot("a", "b"), Pivot("b", "c")])
    assert "operation 2" in str(err.value)


@pytest.mark.parametrize(
    "seq,message",
    [
        # after the pivot on ab, bc is no longer an edge
        ([Pivot("a", "b"), Pivot("b", "c")], "operation 2 of 2 ([b c]) is not applicable"),
        ([LocalComp("a")], "operation 1 of 1 ([a]) is not applicable"),
        ([Pivot("a", "b"), Pivot("a", "c"), Pivot("a", "b")],
         "operation 3 of 3 ([a b]) is not applicable"),
        ([Pivot("a", "c")], "operation 1 of 1 ([a c]) is not applicable"),
        # int labels: 1 carries a loop, 3 does not
        ([Pivot(1, 2)], "operation 1 of 1 ([1 2]) is not applicable"),
        ([LocalComp(3)], "operation 1 of 1 ([3]) is not applicable"),
    ],
)
def test_apply_error_message(seq, message):
    graphs = {str: Graph(edges=[("a", "b"), ("b", "c")]), int: Graph([3], [(1, 2)], [1])}
    g = graphs[type(seq[0].u)]
    with pytest.raises(NotApplicableError) as err:
        apply(g, seq)
    assert str(err.value) == message
    assert not is_applicable(g, seq)


def test_sequence_order_sensitivity_exhaustive_small():
    # an applicable sequence's result depends only on its support
    for g in all_simple_graphs(4):
        for s in vertex_subsets(g.vertices):
            if not is_support_applicable(g, s):
                continue
            seq = synthesize_reduced(g, s)
            assert is_reduced(seq)
            assert support(seq) == s
            assert is_applicable(g, seq)
            assert apply(g, seq) == apply_support_entrywise(g, s)


def test_support_applicability_is_determinant():
    for g in all_simple_graphs(4):
        A = g.adjacency_matrix()
        for s in vertex_subsets(g.vertices):
            assert is_support_applicable(g, s) == (A.principal_submatrix(s).det() == 1)


def test_applicable_sequences_have_applicable_support():
    rng = random.Random(21)
    for _ in range(150):
        g = random_loop_graph(rng, 6)
        seq = random_applicable_sequence(rng, g, 6)
        assert is_support_applicable(g, support(seq))


def test_apply_support_validation():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(InputError):
        apply_support(g, ["x"])
    with pytest.raises(NotApplicableError) as err:
        apply_support(g, ["a", "c"])  # no edge, determinant 0
    assert type(err.value) is NotApplicableError
    assert str(err.value) == "no applicable sequence has this support"
    assert apply_support(g, []) == g


def test_apply_support_edges_follow_matching_parity():
    # on simple graphs the closure's edges match the parity rule and no loops appear
    for g in all_simple_graphs(4):
        for s in vertex_subsets(g.vertices):
            if not is_support_applicable(g, s):
                continue
            out = apply_support(g, s)
            assert not out.loops
            for i, x in enumerate(g.vertices):
                for y in g.vertices[i + 1 :]:
                    expected = pm_bruteforce(g.induced_subgraph(s ^ {x, y}))
                    assert out.has_edge(x, y) == (expected == 1)


def test_apply_support_matches_ppt():
    rng = random.Random(22)
    done = 0
    while done < 80:
        g = random_loop_graph(rng, 6)
        s = frozenset(v for v in g.vertices if rng.random() < 0.5)
        if not is_support_applicable(g, s):
            continue
        expected = apply_support_entrywise(g, s)
        assert expected.adjacency_matrix() == g.adjacency_matrix().ppt(s)
        assert apply_support(g, s) == expected
        done += 1


def test_mixed_sequences_with_equal_support_agree():
    rng = random.Random(23)
    done = 0
    while done < 120:
        g = random_loop_graph(rng, 6)
        seq = random_applicable_sequence(rng, g, 6)
        s = support(seq)
        other = randomized_reduced_sequence(rng, g, s)
        assert support(other) == s
        result = apply(g, seq)
        assert apply(g, other) == result
        assert apply_support(g, s) == result
        done += 1


def test_synthesize_reduced_loop_graphs_exhaustive_small():
    for g in all_loop_graphs(3):
        for s in vertex_subsets(g.vertices):
            if not is_support_applicable(g, s):
                with pytest.raises(NotApplicableError):
                    synthesize_reduced(g, s)
                continue
            seq = synthesize_reduced(g, s)
            assert is_reduced(seq) and support(seq) == s
            assert apply(g, seq) == apply_support_entrywise(g, s)


def test_synthesize_reduced_is_deterministic_smallest_first():
    g = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])  # 4-cycle
    assert synthesize_reduced(g, [0, 1]) == (Pivot(0, 1),)
    # loops are taken before edges, smallest vertex first
    h = Graph(edges=[(1, 2)], loops=[0])
    assert synthesize_reduced(h, [0, 1, 2]) == (LocalComp(0), Pivot(1, 2))


def test_synthesize_anchor_validation():
    g = Graph(edges=[("a", "b")])
    with pytest.raises(InputError):
        synthesize_reduced(g, ["a", "b"], anchor="x")
    with pytest.raises(InputError):
        synthesize_reduced(g, ["a"], anchor="b")


def test_synthesize_anchored_simple_graphs():
    for g in all_simple_graphs(4):
        for s in vertex_subsets(g.vertices):
            if not is_support_applicable(g, s):
                continue
            expected = apply_support_entrywise(g, s)
            for anchor in sorted(s):
                seq = synthesize_reduced(g, s, anchor=anchor)
                assert anchor in seq[0].touched
                assert is_reduced(seq) and support(seq) == s
                assert apply(g, seq) == expected


def test_synthesize_anchored_loop_graph_can_fail():
    # edge z-w with a loop on w: support {z, w} is applicable but every
    # applicable reduced sequence must start at w
    g = Graph(edges=[("w", "z")], loops=["w"])
    assert is_support_applicable(g, ["w", "z"])
    seq = synthesize_reduced(g, ["w", "z"])
    assert seq[0] == LocalComp("w")
    with pytest.raises(NotApplicableError):
        synthesize_reduced(g, ["w", "z"], anchor="z")


def test_reduce_to_empty():
    k2 = Graph(edges=[("a", "b")])
    assert reduce_to_empty(k2) == (Pivot("a", "b"),)
    single_loop = Graph(loops=["a"])
    assert reduce_to_empty(single_loop) == (LocalComp("a"),)
    assert reduce_to_empty(Graph(vertices=["a"])) is None
    assert reduce_to_empty(Graph()) == ()


def test_reduce_to_empty_replay_with_deletions():
    rng = random.Random(24)
    for _ in range(80):
        g = random_loop_graph(rng, 5)
        seq = reduce_to_empty(g)
        if seq is None:
            assert g.adjacency_matrix().det() == 0
            continue
        h = g
        for op in seq:
            assert is_applicable(h, [op])
            h = apply(h, [op]).induced_subgraph(
                set(h.vertices) - set(op.touched)
            )
        assert h == Graph()


def test_orbit_frozen_examples():
    k2 = Graph(edges=[("a", "b")])
    assert orbit(k2) == [k2]
    path3 = Graph(edges=[("a", "b"), ("b", "c")])
    members = orbit(path3)
    assert len(members) == 3
    assert path3 in members
    assert Graph(edges=[("a", "b"), ("a", "c")]) in members
    assert Graph(edges=[("a", "c"), ("b", "c")]) in members


def test_orbit_members_are_reachable_and_closed():
    rng = random.Random(25)
    for _ in range(20):
        g = random_loop_graph(rng, 5)
        members = orbit(g)
        assert g in members
        # closure: applying any applicable support to any member stays inside
        for h in members[:4]:
            for s in vertex_subsets(h.vertices):
                if is_support_applicable(h, s):
                    assert apply_support(h, s) in members


def test_orbit_is_a_class():
    # det (A*S)[T] = det A[S ^ T], so every member reaches the same graphs
    # and counts the same supports as G
    rng = random.Random(29)
    graphs = [g for n in range(5) for g in all_loop_graphs(n)]
    graphs += [random_loop_graph(rng, rng.randint(5, 7), rng.random(), rng.random()) for _ in range(150)]
    for g in graphs:
        members, count = orbit(g), count_applicable_supports(g)
        for h in members:
            assert orbit(h) == members
            assert count_applicable_supports(h) == count


def test_orbit_cap():
    with pytest.raises(UnsupportedSizeError) as err:
        orbit(Graph(range(13)))
    assert str(err.value) == "orbit supports at most 12 vertices, got 13"


def test_count_applicable_supports_frozen():
    assert count_applicable_supports(Graph(range(3))) == 1  # empty set only
    assert count_applicable_supports(Graph(edges=[(0, 1)])) == 2
    k3 = Graph(edges=[(0, 1), (0, 2), (1, 2)])
    assert count_applicable_supports(k3) == 4
    path3 = Graph(edges=[(0, 1), (1, 2)])
    assert count_applicable_supports(path3) == 3


def test_count_applicable_supports_matches_matching_oracle():
    for g in all_simple_graphs(4):
        expected = sum(
            pm_bruteforce(g.induced_subgraph(s)) for s in vertex_subsets(g.vertices)
        )
        assert count_applicable_supports(g) == expected


@st.composite
def loop_graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    emask = draw(st.integers(0, (1 << len(pairs)) - 1))
    lmask = draw(st.integers(0, (1 << n) - 1))
    return Graph(
        range(n),
        [e for i, e in enumerate(pairs) if (emask >> i) & 1],
        [v for v in range(n) if (lmask >> v) & 1],
    )


def _check_synthesis_against_greedy(g, s, anchor):
    expected = greedy_reduced_sequence(g, s, anchor)
    if expected is not None:
        assert synthesize_reduced(g, s, anchor=anchor) == expected
        return
    with pytest.raises(NotApplicableError) as err:
        synthesize_reduced(g, s, anchor=anchor)
    if minor_bruteforce(g, s):
        assert str(err.value) == f"no applicable operation touches the anchor {anchor!r}"
    else:
        assert str(err.value) == "no applicable sequence has this support"


def test_synthesize_reduced_matches_greedy_oracle_all_loop_graphs_4():
    for g in all_loop_graphs(4):
        for s in vertex_subsets(g.vertices):
            for anchor in (None, *sorted(s)):
                _check_synthesis_against_greedy(g, s, anchor)


@st.composite
def graph_support_anchor(draw, max_n):
    g = draw(loop_graphs(max_n))
    s = draw(st.frozensets(st.sampled_from(g.vertices))) if g.vertices else frozenset()
    return g, s, draw(st.sampled_from((None, *sorted(s))))


@given(graph_support_anchor(8))
def test_synthesize_reduced_matches_greedy_oracle_random(case):
    _check_synthesis_against_greedy(*case)


def test_count_and_orbit_match_oracles_on_all_loop_graphs_4():
    for g in all_loop_graphs(4):
        assert count_applicable_supports(g) == count_supports_bruteforce(g)
        assert orbit(g) == orbit_bruteforce(g)


@given(loop_graphs(7))
def test_count_matches_oracle_random_loop_graphs(g):
    assert count_applicable_supports(g) == count_supports_bruteforce(g)


@settings(max_examples=50)
@given(loop_graphs(6))
def test_orbit_matches_oracle_random_loop_graphs(g):
    # string labels "v8".."v13" sort as v10 < ... < v13 < v8 < v9, not by number
    name = {v: f"v{v + 8}" for v in g.vertices}
    relabeled = Graph(
        name.values(),
        [(name[u], name[v]) for u, v in g.edges],
        [name[v] for v in g.loops],
    )
    for h in (g, relabeled):
        assert orbit(h) == orbit_bruteforce(h)


def test_count_is_orbit_size_times_stabilizer_size():
    # the supports that give one orbit member form a coset of Stab(A), the
    # sets X with det(A[X]) = 1 and A*X = A
    rng = random.Random(7)
    graphs = [g for n in range(5) for g in all_loop_graphs(n)]
    graphs += [random_loop_graph(rng, rng.randint(5, 7), rng.random(), rng.random()) for _ in range(300)]
    larger = 0
    for g in graphs:
        stab = len(stabilizer_bruteforce(g))
        assert count_applicable_supports(g) == len(orbit(g)) * stab
        larger += stab > 1
    # |Stab| > 1 on many of them, where the law says more than count == |orbit|
    assert larger >= 600


def test_count_cap():
    with pytest.raises(UnsupportedSizeError) as err:
        count_applicable_supports(Graph(range(25)))
    assert str(err.value) == "count_applicable_supports supports at most 24 vertices, got 25"


def test_check_commutation_frozen():
    c4 = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    assert check_commutation(c4, 0, 1, 2, 3) is False
    d4 = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert check_commutation(d4, 0, 1, 2, 3) is False
    k4 = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert check_commutation(k4, 0, 1, 2, 3) is True
    two_edges = Graph(edges=[(0, 1), (2, 3)])
    assert check_commutation(two_edges, 0, 1, 2, 3) is True


def test_check_commutation_validation():
    g = Graph(edges=[(0, 1), (2, 3)], loops=[4])
    with pytest.raises(InputError) as err:
        check_commutation(g, 0, 1, 1, 3)
    assert str(err.value) == "check_commutation needs four distinct vertices"
    with pytest.raises(InputError) as err:
        check_commutation(g, 0, 2, 1, 3)  # 0-2 is not an edge
    assert str(err.value) == "check_commutation needs uv and wz to be edges: no edge 0 2"
    g2 = Graph(edges=[(0, 1), (2, 3)], loops=[3])
    with pytest.raises(InputError) as err:
        check_commutation(g2, 0, 1, 2, 3)
    assert str(err.value) == "check_commutation needs loop-free vertices, 3 has a loop"
    g3 = Graph(edges=[("a", "b"), ("c", "d")], vertices=["e"])
    with pytest.raises(InputError) as err:
        check_commutation(g3, "a", "b", "d", "e")  # uv is an edge, de is not
    assert str(err.value) == "check_commutation needs uv and wz to be edges: no edge 'd' 'e'"


def test_check_commutation_equals_order_independence():
    rng = random.Random(26)
    done = 0
    while done < 60:
        g = random_simple_graph(rng, 6)
        quads = [
            (u, v, w, z)
            for u, v in g.edges
            for w, z in g.edges
            if len({u, v, w, z}) == 4
        ]
        if not quads:
            continue
        u, v, w, z = rng.choice(quads)
        both = is_applicable(g, [Pivot(u, v), Pivot(w, z)]) and is_applicable(
            g, [Pivot(w, z), Pivot(u, v)]
        )
        assert check_commutation(g, u, v, w, z) == both
        if both:
            assert apply(g, [Pivot(u, v), Pivot(w, z)]) == apply(
                g, [Pivot(w, z), Pivot(u, v)]
            )
        done += 1


def test_check_commutation_matches_pivot_oracle():
    # check_commutation reads det A[{u, v, w, z}]; the oracles pivot twice,
    # once by the class definition and once through is_applicable
    rng = random.Random(31)
    for n in range(5, 10):
        done = 0
        while done < 30:
            g = random_simple_graph(rng, n)
            quads = [
                (u, v, w, z)
                for u, v in g.edges
                for w, z in g.edges
                if len({u, v, w, z}) == 4
            ]
            if not quads:
                continue
            u, v, w, z = rng.choice(quads)
            by_classes = pivot_by_classes(g, u, v).has_edge(w, z) and pivot_by_classes(
                g, w, z
            ).has_edge(u, v)
            both = is_applicable(g, [Pivot(u, v), Pivot(w, z)]) and is_applicable(
                g, [Pivot(w, z), Pivot(u, v)]
            )
            assert check_commutation(g, u, v, w, z) == by_classes == both
            done += 1


def test_twins_stay_twins():
    rng = random.Random(27)
    done = 0
    while done < 50:
        g = random_simple_graph(rng, 5)
        v = rng.choice(g.vertices)
        g2 = add_true_twin(g, v, 9)
        seq = random_applicable_sequence(rng, g2, 5)
        out = apply(g2, seq)
        for x in out.vertices:
            assert out.sim(v, x) == out.sim(9, x)
        done += 1
