"""Pivot and loop-complementation calculus on graphs over GF(2).

Graphs (simple or with loops) are immutable values; pivots and loop
complementations rewrite them, and the principal minors of the adjacency
matrix govern which rewrite sequences apply.  The package exposes the
GF(2) matrix kernel, the graph operations, perfect-matching parities, the
sequence calculus (applicability, support closure, reduced-sequence
synthesis, orbits), and a composable command-line front end.
"""

from . import errors, formats, gf2, graph, matchings, sequences
from .errors import *
from .formats import *
from .gf2 import *
from .graph import *
from .matchings import *
from .sequences import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__ + formats.__all__ + gf2.__all__ + graph.__all__ + matchings.__all__ + sequences.__all__
)
