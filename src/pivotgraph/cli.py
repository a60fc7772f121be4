"""Command-line front end.

Every subcommand that consumes a graph reads it from a file argument or
standard input, so commands compose through pipes.  Exit status: 0 on
success, 1 when the operation is not applicable to the input (missing
edge or loop, determinant 0, size cap), 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import formats, matchings, sequences
from .errors import InputError, NotApplicableError, UnsupportedSizeError
from .graph import Graph, local_complement, loop_complement, overlap_graph, pivot


def _read_graph(args) -> Graph:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise InputError(f"cannot read {args.input!r}: {err.strerror}") from None
    return formats.parse_graph(text, args.format)


def _emit_graph(G: Graph) -> int:
    sys.stdout.write(formats.serialize_graph(G))
    return 0


def cmd_det(args) -> int:
    print(_read_graph(args).adjacency_matrix().det())
    return 0


def cmd_pm(args) -> int:
    # on simple graphs this is pm_parity: no vertex carries a loop
    print(matchings.general_pm_parity(_read_graph(args)))
    return 0


def cmd_pivot(args) -> int:
    return _emit_graph(pivot(_read_graph(args), args.u, args.v))


def cmd_lc(args) -> int:
    G = _read_graph(args)
    G._require_vertex(args.u)
    # looped vertex: loop rule; simple graph: neighborhood complementation
    if G.has_loop(args.u):
        return _emit_graph(loop_complement(G, args.u))
    if G.is_simple():
        return _emit_graph(local_complement(G, args.u))
    raise NotApplicableError(
        f"lc at {args.u!r}: vertex has no loop and the graph is not simple"
    )


def cmd_apply(args) -> int:
    return _emit_graph(sequences.apply(_read_graph(args), formats.parse_opseq(args.seq)))


def cmd_apply_support(args) -> int:
    return _emit_graph(
        sequences.apply_support(_read_graph(args), formats.parse_vertex_set(args.set))
    )


def cmd_applicable(args) -> int:
    G = _read_graph(args)
    if args.seq is not None:
        ok = sequences.is_applicable(G, formats.parse_opseq(args.seq))
    else:
        ok = sequences.is_support_applicable(G, formats.parse_vertex_set(args.set))
    print("true" if ok else "false")
    return 0


def cmd_reduce(args) -> int:
    seq = sequences.synthesize_reduced(
        _read_graph(args), formats.parse_vertex_set(args.set), anchor=args.anchor
    )
    print(formats.serialize_opseq(seq))
    return 0


def cmd_reduce_to_empty(args) -> int:
    seq = sequences.reduce_to_empty(_read_graph(args))
    print("none" if seq is None else formats.serialize_opseq(seq))
    return 0


def cmd_orbit(args) -> int:
    members = sequences.orbit(_read_graph(args))
    sys.stdout.write("\n".join(formats.serialize_graph(g) for g in members))
    return 0


def cmd_count_supports(args) -> int:
    print(sequences.count_applicable_supports(_read_graph(args)))
    return 0


def cmd_overlap(args) -> int:
    return _emit_graph(overlap_graph(args.word))


def cmd_witness(args) -> int:
    witness = _read_graph(args).adjacency_matrix().kernel_witness()
    print("none" if witness is None else ",".join(sorted(witness)))
    return 0


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
    p.set_defaults(func=cmd_pm)

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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (NotApplicableError, UnsupportedSizeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
