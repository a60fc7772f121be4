import random

import pytest

import pivotgraph
from pivotgraph import (
    Gf2Matrix,
    Graph,
    InputError,
    NotApplicableError,
    UnsupportedSizeError,
    local_complement,
    loop_complement,
    overlap_graph,
    pivot,
)
from helpers import (
    all_loop_graphs,
    all_simple_graphs,
    is_isomorphic_small,
    loop_rule_by_neighbourhood,
    overlap_edges_naive,
    pivot_by_classes,
    random_loop_graph,
    random_simple_graph,
    run_child,
)

WORD = "3 5 2 6 5 4 1 3 6 1 2 4"
WORD_PIVOTED = "3 6 1 2 6 5 4 1 3 5 2 4"
WORD_EDGES = {
    ("1", "3"), ("1", "6"), ("2", "3"), ("2", "4"), ("2", "5"),
    ("3", "4"), ("3", "6"), ("4", "6"), ("5", "6"),
}
WORD_PIVOTED_EDGES = {
    ("1", "2"), ("1", "4"), ("1", "5"), ("1", "6"), ("2", "3"),
    ("2", "4"), ("2", "6"), ("3", "4"), ("3", "5"), ("4", "5"),
}


def test_constructor_collects_vertices():
    g = Graph(["c"], [("a", "b")], ["d"])
    assert g.vertices == ("a", "b", "c", "d")
    assert g.edges == (("a", "b"),)
    assert g.loops == frozenset("d")
    assert g.has_edge("b", "a")
    assert not g.has_edge("a", "c")
    assert g.has_loop("d")
    assert "a" in g and "x" not in g


def test_constructor_rejects_self_pair():
    with pytest.raises(InputError):
        Graph(edges=[("a", "a")])


@pytest.mark.parametrize(
    "field, bad",
    [
        pytest.param("edges", (1, "a"), id="bad0"),
        pytest.param("edges", (1, 2, 3), id="bad1"),
        pytest.param("edges", (1,), id="bad2"),
        pytest.param("edges", 5, id="5"),
        pytest.param("edges", ("a", ["b"]), id="bad4"),
        pytest.param("vertices", [1], id="vertex"),
        pytest.param("loops", [1], id="loop"),
    ],
)
def test_constructor_names_malformed_edge(field, bad):
    items = [(0, 1), bad] if field == "edges" else [bad]
    with pytest.raises(InputError) as err:
        Graph(**{field: items})
    assert repr(bad) in str(err.value)


def test_constructor_names_unorderable_vertices():
    with pytest.raises(InputError) as err:
        Graph(vertices=[1, 2], loops=["a"])
    assert "'a'" in str(err.value) and ("1" in str(err.value) or "2" in str(err.value))
    # ids of one type that do not compare: each compares with (0,), the smallest tuple
    with pytest.raises(InputError) as err:
        Graph([(0,), (1, "a"), (1, 2)])
    assert str(err.value) == "vertex ids (1, 'a') and (1, 2) cannot be ordered"


def test_unorderable_message_ignores_hash_seed():
    # the clash used to be searched in set order, which follows string hashing
    code = (
        "from pivotgraph import Graph, InputError\n"
        "for ids in (['a', 1, 'b', 2.5, 'c'], [(1, 2), (0,), (1, 'a')]):\n"
        "    try:\n        Graph(ids)\n"
        "    except InputError as err:\n        print(err)\n"
    )
    outputs = {
        run_child(["-c", code], env={"PYTHONHASHSEED": str(seed)}, text=True).stdout
        for seed in range(8)
    }
    assert outputs == {
        "vertex ids 'a' and 1 cannot be ordered\n"
        "vertex ids (1, 'a') and (1, 2) cannot be ordered\n"
    }


def test_repeated_edges_and_loops_are_one():
    g = Graph(edges=[("a", "b"), ["b", "a"], ("b", "c"), ("a", "b")], loops=["c", "c"])
    assert g == Graph(edges=[("a", "b"), ("b", "c")], loops=["c"])
    assert g.adjacency_matrix().rows == (0b010, 0b101, 0b110)


def test_equality_and_hash():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    h = Graph(edges=[("c", "b"), ("b", "a")])
    assert g == h and hash(g) == hash(h)
    assert g != Graph(edges=[("a", "b")])
    assert Graph(["a"]) != Graph(["a"], loops=["a"])
    assert Graph() != 5
    assert Graph(["a"]) != Graph(["a"]).adjacency_matrix()


def test_repr_evaluates_to_an_equal_value():
    g = Graph(["d"], edges=[("a", "b"), ("b", "c")], loops=["c"])
    m = Gf2Matrix("ab", [2, 1])
    assert repr(m) == "Gf2Matrix.from_dense(['a', 'b'], [[0, 1], [1, 0]])"
    for x in (m, g):
        assert eval(repr(x), vars(pivotgraph)) == x


def test_neighbors_and_queries():
    g = Graph(edges=[("a", "b"), ("b", "c")], loops=["c"])
    assert g.neighbors("b") == frozenset("ac")
    assert g.neighbors("c") == frozenset("b")  # loop is not a neighbor
    with pytest.raises(InputError):
        g.neighbors("x")
    with pytest.raises(InputError):
        g.has_edge("a", "x")


def test_sim_and_adj_entry():
    g = Graph(edges=[("a", "b")], vertices=["c"])
    assert g.sim("a", "a") == 1
    assert g.sim("a", "b") == 1
    assert g.sim("a", "c") == 0
    looped = Graph(edges=[("a", "b")], loops=["a"])
    with pytest.raises(InputError):
        looped.sim("a", "b")
    assert looped.adj_entry("a", "a") == 1
    assert looped.adj_entry("b", "b") == 0
    assert looped.adj_entry("a", "b") == 1


def test_induced_subgraph_and_adjacency_commute():
    rng = random.Random(5)
    # rows up to 70 bits, on both sides of 8, 16, 32 and 64
    for n in [6] * 30 + [9, 17, 33, 64, 70]:
        g = random_loop_graph(rng, n, p=rng.random())
        keep = [v for v in g.vertices if rng.random() < 0.5]
        sub = g.induced_subgraph(keep)
        assert sub.adjacency_matrix() == g.adjacency_matrix().principal_submatrix(keep)
        edges = [(x, y) for x in keep for y in keep if x < y and g.has_edge(x, y)]
        assert sub == Graph(keep, edges, [x for x in keep if g.has_loop(x)])
    with pytest.raises(InputError):
        Graph(["a"]).induced_subgraph(["b"])


def test_adjacency_matrix_roundtrip():
    g = Graph(edges=[("a", "b"), ("b", "c")], loops=["a"], vertices=["z"])
    m = g.adjacency_matrix()
    assert m.labels == g.vertices
    assert m.entry("a", "a") == 1
    assert m.entry("a", "b") == 1
    assert m.entry("z", "z") == 0
    assert Graph.from_adjacency_matrix(m) == g


def test_from_adjacency_matrix_permutes_rows_without_graph_init(monkeypatch):
    # labels c, a, b: edges c-a and a-b, a loop on c
    m = Gf2Matrix.from_dense("cab", [[1, 1, 0], [1, 0, 1], [0, 1, 0]])
    expected = Graph(edges=[("a", "b"), ("a", "c")], loops=["c"])
    sorted_m = expected.adjacency_matrix()

    def refuse(self, *args, **kwargs):
        raise AssertionError("Graph.__init__ was called")

    monkeypatch.setattr(Graph, "__init__", refuse)
    g = Graph.from_adjacency_matrix(m)
    assert Graph.from_adjacency_matrix(sorted_m).adjacency_matrix() is sorted_m
    monkeypatch.undo()
    assert g == expected
    assert g.vertices == ("a", "b", "c")


def test_from_adjacency_matrix_matches_entries_in_any_label_order():
    rng = random.Random(9)
    for n in [rng.randint(0, 8) for _ in range(40)] + [9, 17, 33, 64, 70]:
        g = random_loop_graph(rng, n, p=rng.random())
        shuffled = list(g.vertices)
        rng.shuffle(shuffled)
        for order in (shuffled, g.vertices[::-1]):
            dense = [[g.adj_entry(x, y) for y in order] for x in order]
            assert Graph.from_adjacency_matrix(Gf2Matrix.from_dense(order, dense)) == g
    with pytest.raises(InputError) as err:
        Graph.from_adjacency_matrix(Gf2Matrix(["b", 1, "a"], [0, 0, 0]))
    assert str(err.value) == "vertex ids 'a' and 1 cannot be ordered"


def test_local_complement_triangle():
    g = Graph(edges=[("a", "b"), ("a", "c"), ("b", "c")])
    out = local_complement(g, "a")
    assert out == Graph(edges=[("a", "b"), ("a", "c")])


def test_local_complement_involution_exhaustive():
    for g in all_simple_graphs(4):
        for u in g.vertices:
            assert local_complement(local_complement(g, u), u) == g


def test_local_complement_rejects_loop_graphs():
    g = Graph(edges=[("a", "b")], loops=["b"])
    with pytest.raises(InputError):
        local_complement(g, "a")


def test_loop_complement_requires_loop():
    g = Graph(edges=[("a", "b")], loops=["a"])
    with pytest.raises(NotApplicableError):
        loop_complement(g, "b")
    with pytest.raises(InputError):
        loop_complement(g, "x")


def test_loop_complement_small_example():
    # looped u adjacent to bare v: v gains a loop, the edge and u's loop stay
    g = Graph(edges=[("u", "v")], loops=["u"])
    out = loop_complement(g, "u")
    assert out == Graph(edges=[("u", "v")], loops=["u", "v"])
    # applying at u again returns to the start
    assert loop_complement(out, "u") == g


def test_loop_complement_involution_exhaustive():
    for g in all_loop_graphs(3):
        for u in sorted(g.loops):
            assert loop_complement(loop_complement(g, u), u) == g


def test_pivot_preconditions():
    g = Graph(edges=[("a", "b")], vertices=["c"], loops=["d"])
    with pytest.raises(InputError):
        pivot(g, "a", "a")
    with pytest.raises(InputError):
        pivot(g, "a", "x")
    with pytest.raises(NotApplicableError):
        pivot(g, "a", "c")
    g2 = Graph(edges=[("a", "d")], loops=["d"])
    with pytest.raises(NotApplicableError):
        pivot(g2, "a", "d")


def test_pivot_golden_path():
    # path a-b-c pivoted on ab turns into the path b-a-c
    g = Graph(edges=[("a", "b"), ("b", "c")])
    assert pivot(g, "a", "b") == Graph(edges=[("a", "b"), ("a", "c")])


def test_pivot_symmetric_and_involution():
    rng = random.Random(6)
    for _ in range(50):
        g = random_simple_graph(rng, 7)
        if not g.edges:
            continue
        u, v = rng.choice(g.edges)
        assert pivot(g, u, v) == pivot(g, v, u)
        assert pivot(pivot(g, u, v), u, v) == g


def test_pivot_equals_complementation_chain_exhaustive():
    for g in all_simple_graphs(4):
        for u, v in g.edges:
            direct = pivot(g, u, v)
            chain_uvu = local_complement(local_complement(local_complement(g, u), v), u)
            chain_vuv = local_complement(local_complement(local_complement(g, v), u), v)
            assert direct == chain_uvu == chain_vuv


def test_pivot_entry_formula_exhaustive():
    # sim after a pivot is sim before, corrected by the two cross terms
    for g in all_simple_graphs(4):
        for u, v in g.edges:
            out = pivot(g, u, v)
            for x in g.vertices:
                for y in g.vertices:
                    expected = (
                        g.sim(x, y)
                        ^ (g.sim(x, u) & g.sim(y, v))
                        ^ (g.sim(x, v) & g.sim(y, u))
                    )
                    assert out.sim(x, y) == expected


def test_pivot_matches_ppt_exhaustive():
    # pivot is the ppt on {u, v}; the oracle toggles pairs across the classes
    for g in all_loop_graphs(4):
        for u, v in g.edges:
            if not g.has_loop(u) and not g.has_loop(v):
                assert pivot(g, u, v) == pivot_by_classes(g, u, v)


def test_loop_complement_matches_ppt_exhaustive():
    # the loop rule is the ppt on {u}; the oracle complements the neighbourhood
    for g in all_loop_graphs(4):
        for u in sorted(g.loops):
            assert loop_complement(g, u) == loop_rule_by_neighbourhood(g, u)


def test_pivot_preserves_loops_elsewhere():
    g = Graph(edges=[("a", "b"), ("b", "c")], loops=["c"])
    out = pivot(g, "a", "b")
    assert out.loops == frozenset("c")


def test_overlap_graph_golden_words():
    g = overlap_graph(WORD)
    assert g.vertices == ("1", "2", "3", "4", "5", "6")
    assert set(g.edges) == WORD_EDGES
    h = overlap_graph(WORD_PIVOTED)
    assert set(h.edges) == WORD_PIVOTED_EDGES
    assert pivot(g, "2", "3") == h


def test_overlap_graph_accepts_sequences():
    assert overlap_graph(["a", "b", "a", "b"]) == Graph(edges=[("a", "b")])
    assert overlap_graph("a a b b") == Graph(["a", "b"])
    assert overlap_graph([]) == Graph()


def test_overlap_graph_agrees_with_naive_interleave_check():
    # random double-occurrence words over ints (which sort apart from their
    # strings) and over strings, 0 to 12 symbols
    rng = random.Random(19)
    for trial in range(3000):
        k = rng.randrange(13)
        symbols = list(range(k)) if trial % 2 else [f"s{i}" for i in range(k)]
        word = symbols * 2
        rng.shuffle(word)
        g = overlap_graph(word)
        assert g.vertices == tuple(sorted(symbols)), word
        assert set(g.edges) == overlap_edges_naive(word), word
        assert not g.loops, word


def test_overlap_graph_rejects_bad_words():
    with pytest.raises(InputError):
        overlap_graph("a b a")
    with pytest.raises(InputError):
        overlap_graph("a a a a")
    # symbols must be vertex ids: hashable, and comparable with each other
    with pytest.raises(InputError, match=r"^symbol \[1\] is not hashable$"):
        overlap_graph([[1], [1]])
    with pytest.raises(InputError, match="^vertex ids 'a' and 1 cannot be ordered$"):
        overlap_graph([1, "a", 1, "a"])


def test_isomorphism_small():
    c4 = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    c4_relabeled = Graph(edges=[("w", "x"), ("x", "y"), ("y", "z"), ("w", "z")])
    d4 = Graph(edges=[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert is_isomorphic_small(c4, c4_relabeled)
    assert not is_isomorphic_small(c4, d4)
    assert not is_isomorphic_small(c4, Graph(edges=[(0, 1), (1, 2), (2, 3)], vertices=[4]))


def test_isomorphism_respects_loops():
    g = Graph(edges=[(0, 1)], loops=[0])
    h = Graph(edges=[(0, 1)], loops=[1])
    assert is_isomorphic_small(g, h)
    assert not is_isomorphic_small(g, Graph(edges=[(0, 1)]))


def test_isomorphism_size_cap():
    big = Graph(range(9))
    with pytest.raises(UnsupportedSizeError):
        is_isomorphic_small(big, big)
