"""Pivot and loop-complementation calculus on graphs over GF(2).

Graphs (simple or with loops) are immutable values; pivots and loop
complementations rewrite them, and the principal minors of the adjacency
matrix govern which rewrite sequences apply.  The package exposes the
GF(2) matrix kernel, the graph operations, perfect-matching parities, the
sequence calculus (applicability, support closure, reduced-sequence
synthesis, orbits), and a composable command-line front end.
"""

from .errors import (
    InputError,
    NotApplicableError,
    ParseError,
    PivotGraphError,
    SingularPivotError,
    UnsupportedSizeError,
)
from .formats import (
    parse_graph,
    parse_opseq,
    parse_vertex_set,
    serialize_graph,
    serialize_opseq,
    serialize_vertex_set,
)
from .gf2 import Gf2Matrix
from .graph import (
    Graph,
    local_complement,
    loop_complement,
    overlap_graph,
    pivot,
)
from .matchings import general_pm_parity, pm_multiset, pm_parity
from .sequences import (
    LocalComp,
    Op,
    Pivot,
    apply,
    apply_support,
    check_commutation,
    count_applicable_supports,
    is_applicable,
    is_reduced,
    is_support_applicable,
    orbit,
    reduce_to_empty,
    support,
    synthesize_reduced,
)

__version__ = "0.1.0"

__all__ = [
    "PivotGraphError",
    "InputError",
    "ParseError",
    "NotApplicableError",
    "SingularPivotError",
    "UnsupportedSizeError",
    "Gf2Matrix",
    "Graph",
    "local_complement",
    "loop_complement",
    "pivot",
    "overlap_graph",
    "pm_parity",
    "general_pm_parity",
    "pm_multiset",
    "Pivot",
    "LocalComp",
    "Op",
    "support",
    "is_reduced",
    "is_applicable",
    "apply",
    "apply_support",
    "is_support_applicable",
    "synthesize_reduced",
    "reduce_to_empty",
    "orbit",
    "count_applicable_supports",
    "check_commutation",
    "parse_graph",
    "serialize_graph",
    "parse_opseq",
    "serialize_opseq",
    "parse_vertex_set",
    "serialize_vertex_set",
]
