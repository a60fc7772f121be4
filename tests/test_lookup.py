"""Vertex and label arguments: every entry point resolves them by one rule.

An argument that is not a vertex (a label, for ``Gf2Matrix``) raises
``InputError``; among several, the message names the smallest ``repr``, and
an unhashable argument is not a vertex rather than a ``TypeError``.  A
collection argument that is not iterable raises ``InputError`` naming the
argument, and so does a graph argument that is not a ``Graph``.
"""

import pytest

from pivotgraph import (
    Gf2Matrix,
    Graph,
    InputError,
    LocalComp,
    Pivot,
    apply,
    apply_support,
    check_commutation,
    count_applicable_supports,
    general_pm_parity,
    is_applicable,
    is_reduced,
    is_support_applicable,
    local_complement,
    loop_complement,
    orbit,
    overlap_graph,
    pivot,
    pm_multiset,
    pm_parity,
    reduce_to_empty,
    support,
    synthesize_reduced,
)
from pivotgraph.formats import serialize_graph, serialize_opseq, serialize_vertex_set

# the path a - b - c - d, simple, so every entry point reaches its lookup
G = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
M = G.adjacency_matrix()
X = ["x"]

VERTEX_CALLS = [
    pytest.param(lambda x: G.has_edge(x, "a"), id="has_edge"),
    pytest.param(lambda x: G.has_loop(x), id="has_loop"),
    pytest.param(lambda x: G.neighbors(x), id="neighbors"),
    pytest.param(lambda x: G.sim("a", x), id="sim"),
    pytest.param(lambda x: G.adj_entry(x, "a"), id="adj_entry"),
    pytest.param(lambda x: G.induced_subgraph(["a", x]), id="induced_subgraph"),
    pytest.param(lambda x: pivot(G, x, "a"), id="pivot"),
    pytest.param(lambda x: loop_complement(G, x), id="loop_complement"),
    pytest.param(lambda x: local_complement(G, x), id="local_complement"),
    pytest.param(lambda x: apply(G, [LocalComp(x)]), id="apply-loop"),
    pytest.param(lambda x: apply(G, [Pivot("a", x)]), id="apply-pivot"),
    pytest.param(lambda x: apply_support(G, [x, "a"]), id="apply_support"),
    pytest.param(lambda x: is_support_applicable(G, [x]), id="is_support_applicable"),
    pytest.param(lambda x: synthesize_reduced(G, ["a", x]), id="synthesize_reduced"),
    pytest.param(lambda x: check_commutation(G, "a", "b", x, "d"), id="check_commutation"),
    pytest.param(lambda x: pm_multiset(G, ["a", x]), id="pm_multiset"),
]

LABEL_CALLS = [
    pytest.param(lambda x: M.entry("a", x), id="entry"),
    pytest.param(lambda x: M.ppt([x]), id="ppt"),
    pytest.param(lambda x: M.principal_submatrix(["b", x]), id="principal_submatrix"),
]


@pytest.mark.parametrize("x", ["zz", X], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("call", VERTEX_CALLS)
def test_graph_calls_name_the_vertex(call, x):
    with pytest.raises(InputError) as err:
        call(x)
    assert str(err.value) == f"unknown vertex: {x!r}"


@pytest.mark.parametrize("x", ["zz", X], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("call", LABEL_CALLS)
def test_matrix_calls_name_the_label(call, x):
    with pytest.raises(InputError) as err:
        call(x)
    assert str(err.value) == f"unknown label: {x!r}"


def test_unhashable_anchor_and_membership():
    with pytest.raises(InputError) as err:
        synthesize_reduced(G, ["a", "b"], anchor=X)
    assert str(err.value) == "anchor ['x'] is not in the support set"
    assert X not in G


@pytest.mark.parametrize("items", [["v2", "v0"], ["v0", "v2"], {"v2", "v0"}, ["a", "v2", X, "v0"]])
def test_set_names_the_smallest_repr(items):
    # "'v0'" sorts before "'v2'" and before "['x']"
    for call in (
        lambda: apply_support(G, items),
        lambda: is_support_applicable(G, items),
        lambda: synthesize_reduced(G, items),
        lambda: G.induced_subgraph(items),
    ):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "unknown vertex: 'v0'"
    for call in (lambda: M.ppt(items), lambda: M.principal_submatrix(items)):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "unknown label: 'v0'"


def test_one_call_names_the_smallest_repr():
    for call in (
        lambda: pivot(G, "v2", "v0"),
        lambda: G.has_edge("v2", "v0"),
        lambda: check_commutation(G, "a", "v2", "b", "v0"),
        lambda: pm_multiset(G, ["v2", "a", "v0", "b"]),
    ):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == "unknown vertex: 'v0'"
    with pytest.raises(InputError) as err:
        M.entry("v2", "v0")
    assert str(err.value) == "unknown label: 'v0'"


def test_sequence_names_the_first_operation_with_an_unknown_vertex():
    # op 2 is the first with an unknown vertex; within it 'nope' < 'v2',
    # and 'v0' in op 3 is not named although it sorts first
    seq = [Pivot("a", "b"), Pivot("v2", "nope"), LocalComp("v0")]
    with pytest.raises(InputError) as err:
        apply(G, seq)
    assert str(err.value) == "unknown vertex: 'nope'"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: support([LocalComp(X)]), id="support"),
        pytest.param(lambda: support([Pivot("a", X)]), id="support-pivot"),
        pytest.param(lambda: is_reduced([Pivot(X, "a")]), id="is_reduced"),
    ],
)
def test_calls_without_a_graph_name_an_unhashable_vertex(call):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == "vertex ['x'] is not hashable"


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(lambda: Graph(vertices=5), "vertices", 5, id="Graph-vertices"),
        pytest.param(lambda: Graph(edges=5), "edges", 5, id="Graph-edges"),
        pytest.param(lambda: Graph(loops=5), "loops", 5, id="Graph-loops"),
        pytest.param(lambda: Gf2Matrix(["a"], 5), "rows", 5, id="Gf2Matrix-rows"),
        pytest.param(lambda: Gf2Matrix(5, [0]), "labels", 5, id="Gf2Matrix-labels"),
        pytest.param(lambda: Gf2Matrix.from_dense(["a"], 5), "entries", 5, id="from_dense"),
        pytest.param(lambda: Gf2Matrix.from_dense(["a"], [1]), "entries[0]", 1, id="from_dense-row"),
        pytest.param(lambda: M.principal_submatrix(5), "keep", 5, id="principal_submatrix"),
        pytest.param(lambda: M.ppt(5), "pivot_set", 5, id="ppt"),
        pytest.param(lambda: G.induced_subgraph(5), "keep", 5, id="induced_subgraph"),
        pytest.param(lambda: is_support_applicable(G, 5), "subset", 5, id="is_support_applicable"),
        pytest.param(lambda: apply_support(G, 5), "subset", 5, id="apply_support"),
        pytest.param(lambda: synthesize_reduced(G, 5), "subset", 5, id="synthesize_reduced"),
        pytest.param(lambda: apply(G, 5), "seq", 5, id="apply"),
        pytest.param(lambda: is_applicable(G, 5), "seq", 5, id="is_applicable"),
        pytest.param(lambda: support(5), "seq", 5, id="support"),
        pytest.param(lambda: is_reduced(5), "seq", 5, id="is_reduced"),
        pytest.param(lambda: overlap_graph(5), "word", 5, id="overlap_graph"),
        pytest.param(lambda: pm_multiset(G, 5), "args", 5, id="pm_multiset"),
        pytest.param(lambda: serialize_opseq(5), "seq", 5, id="serialize_opseq"),
        pytest.param(lambda: serialize_vertex_set(5), "vertices", 5, id="serialize_vertex_set"),
    ],
)
def test_non_iterable_argument_is_named(call, name, value):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == f"{name} is not iterable: {value!r}"


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda g: pivot(g, "a", "b"), "Graph", id="pivot"),
        pytest.param(lambda g: loop_complement(g, "a"), "Graph", id="loop_complement"),
        pytest.param(lambda g: local_complement(g, "a"), "Graph", id="local_complement"),
        pytest.param(lambda g: apply(g, []), "Graph", id="apply"),
        pytest.param(lambda g: is_applicable(g, []), "Graph", id="is_applicable"),
        pytest.param(lambda g: apply_support(g, ["a"]), "Graph", id="apply_support"),
        pytest.param(lambda g: is_support_applicable(g, ["a"]), "Graph", id="is_support_applicable"),
        pytest.param(lambda g: synthesize_reduced(g, ["a"]), "Graph", id="synthesize_reduced"),
        pytest.param(reduce_to_empty, "Graph", id="reduce_to_empty"),
        pytest.param(orbit, "Graph", id="orbit"),
        pytest.param(count_applicable_supports, "Graph", id="count_applicable_supports"),
        pytest.param(lambda g: check_commutation(g, "a", "b", "c", "d"), "Graph", id="check_commutation"),
        pytest.param(pm_parity, "Graph", id="pm_parity"),
        pytest.param(general_pm_parity, "Graph", id="general_pm_parity"),
        pytest.param(lambda g: pm_multiset(g, ["a", "b"]), "Graph", id="pm_multiset"),
        pytest.param(serialize_graph, "Graph", id="serialize_graph"),
        pytest.param(Graph.from_adjacency_matrix, "Gf2Matrix", id="from_adjacency_matrix"),
    ],
)
def test_non_graph_argument_is_named(call, expected):
    # an entry point that takes a Graph (a Gf2Matrix) refuses anything else
    with pytest.raises(InputError) as err:
        call(5)
    assert str(err.value) == f"expected a {expected}, got 5"


def test_strings_keep_their_meaning():
    # a string is a collection of its characters, except a word, which splits
    assert M.principal_submatrix("ab") == M.principal_submatrix(["a", "b"])
    assert overlap_graph("1 2 1 2") == Graph(edges=[("1", "2")])
