"""One table over the public API: bad arguments raise the package's typed errors.

Every callable in ``pivotgraph.__all__`` and every public method of ``Graph``
and ``Gf2Matrix`` has a row of good arguments that it accepts.  Each argument
position in turn gets each of a set of bad values; the call may return or
raise a ``PivotGraphError``, and a call given a bad value where a ``Graph``
or a ``Gf2Matrix`` belongs must raise.
"""

import inspect

import pytest

import pivotgraph
from pivotgraph import Gf2Matrix, Graph, LocalComp, Pivot, PivotGraphError

PATH = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
LOOPED = Graph(edges=[("a", "b"), ("b", "c")], loops=["c"])
K2 = Gf2Matrix("ab", [2, 1])
SEQ = [Pivot("a", "b")]

# name: (the callable, its good arguments)
TABLE = {
    "Gf2Matrix": (Gf2Matrix, (("a", "b"), (2, 1))),
    "Graph": (Graph, (("z",), [("a", "b")], ["a"])),
    "local_complement": (pivotgraph.local_complement, (PATH, "b")),
    "loop_complement": (pivotgraph.loop_complement, (LOOPED, "c")),
    "pivot": (pivotgraph.pivot, (PATH, "a", "b")),
    "overlap_graph": (pivotgraph.overlap_graph, ("a b a b",)),
    "pm_parity": (pivotgraph.pm_parity, (PATH,)),
    "general_pm_parity": (pivotgraph.general_pm_parity, (LOOPED,)),
    "pm_multiset": (pivotgraph.pm_multiset, (PATH, ["a", "b"])),
    "Pivot": (Pivot, ("a", "b")),
    "LocalComp": (LocalComp, ("a",)),
    "support": (pivotgraph.support, (SEQ,)),
    "is_reduced": (pivotgraph.is_reduced, (SEQ,)),
    "is_applicable": (pivotgraph.is_applicable, (PATH, SEQ)),
    "apply": (pivotgraph.apply, (PATH, SEQ)),
    "apply_support": (pivotgraph.apply_support, (PATH, {"a", "b"})),
    "is_support_applicable": (pivotgraph.is_support_applicable, (PATH, {"a", "b"})),
    "synthesize_reduced": (pivotgraph.synthesize_reduced, (PATH, {"a", "b"}, "a")),
    "reduce_to_empty": (pivotgraph.reduce_to_empty, (PATH,)),
    "orbit": (pivotgraph.orbit, (PATH,)),
    "count_applicable_supports": (pivotgraph.count_applicable_supports, (PATH,)),
    "check_commutation": (pivotgraph.check_commutation, (PATH, "a", "b", "c", "d")),
    "parse_graph": (pivotgraph.parse_graph, ("a b\n", "edge-list")),
    "serialize_graph": (pivotgraph.serialize_graph, (PATH,)),
    "parse_opseq": (pivotgraph.parse_opseq, ("[a b]",)),
    "serialize_opseq": (pivotgraph.serialize_opseq, (SEQ,)),
    "parse_vertex_set": (pivotgraph.parse_vertex_set, ("a,b",)),
    "serialize_vertex_set": (pivotgraph.serialize_vertex_set, ({"a", "b"},)),
    "Graph.is_simple": (PATH.is_simple, ()),
    "Graph.has_edge": (PATH.has_edge, ("a", "b")),
    "Graph.has_loop": (LOOPED.has_loop, ("c",)),
    "Graph.neighbors": (PATH.neighbors, ("b",)),
    "Graph.sim": (PATH.sim, ("a", "b")),
    "Graph.adj_entry": (LOOPED.adj_entry, ("c", "c")),
    "Graph.induced_subgraph": (PATH.induced_subgraph, (["a", "b"],)),
    "Graph.adjacency_matrix": (PATH.adjacency_matrix, ()),
    "Graph.from_adjacency_matrix": (Graph.from_adjacency_matrix, (K2,)),
    "Gf2Matrix.from_dense": (Gf2Matrix.from_dense, ("ab", [[0, 1], [1, 0]])),
    "Gf2Matrix.entry": (K2.entry, ("a", "b")),
    "Gf2Matrix.to_dense": (K2.to_dense, ()),
    "Gf2Matrix.principal_submatrix": (K2.principal_submatrix, (["a"],)),
    "Gf2Matrix.det": (K2.det, ()),
    "Gf2Matrix.kernel_witness": (K2.kernel_witness, ()),
    "Gf2Matrix.ppt": (K2.ppt, (["a", "b"],)),
}

BAD = {
    "int": 5,
    "None": None,
    "float": 1.5,
    "bytes": b"ab",
    "object": object(),
    "nested-list": [[1]],
    "dict": {"a": 1},
    "mixed-list": [1, "a"],
}


def _public_names():
    names = set()
    for name in pivotgraph.__all__:
        obj = getattr(pivotgraph, name)
        if inspect.isfunction(obj) or (inspect.isclass(obj) and not issubclass(obj, BaseException)):
            names.add(name)
    for cls in (Graph, Gf2Matrix):
        for name, attr in vars(cls).items():
            if not name.startswith("_") and not isinstance(attr, property):
                names.add(f"{cls.__name__}.{name}")
    return names


def test_table_covers_the_public_api():
    assert set(TABLE) == _public_names()


@pytest.mark.parametrize("name", sorted(TABLE))
def test_good_arguments_are_accepted(name):
    f, args = TABLE[name]
    f(*args)


CASES = [
    pytest.param(name, i, bad, id=f"{name}-{i}-{bad}")
    for name, (_, args) in sorted(TABLE.items())
    for i in range(len(args))
    for bad in BAD
]


@pytest.mark.parametrize("name, i, bad", CASES)
def test_bad_argument_raises_only_typed_errors(name, i, bad):
    f, args = TABLE[name]
    args = list(args)
    value = args[i]
    args[i] = BAD[bad]
    try:
        f(*args)
    except PivotGraphError:
        return
    except Exception as err:
        pytest.fail(f"{name} with {bad} at position {i} raised {type(err).__name__}: {err}")
    assert not isinstance(value, (Graph, Gf2Matrix)), (
        f"{name} returned a value with {bad} in place of a {type(value).__name__}"
    )
