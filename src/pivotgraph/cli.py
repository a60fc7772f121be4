"""Command-line front end.

Every subcommand but ``overlap`` answers a question about one graph, read
from a file argument or standard input, so commands compose through pipes.
``main`` reads that graph, and each handler returns its answer as text for
``main`` to write.  Exit status: 0 on success, 1 when the operation is not
applicable to the input (missing edge or loop, determinant 0, size cap) or
stdout cannot be written, 2 on usage or parse errors.

The command line is read by one loop over the ``COMMANDS`` table, not by
argparse: every request is a new process, and importing and building an
argparse parser cost several milliseconds of each one.

The command enters through ``run``, which owns the process's output: it
calls ``main`` with stdout and stderr in memory, writes every byte of each
to its file descriptor, as UTF-8 in any locale (as ``main`` reads the input
and the command line), and ends the process with ``os._exit``.
Skipping the interpreter's teardown (module clean-up, the final
collections, atexit handlers) is timed in ``CHANGES.md``.  Under a tracer
or profiler (``pdb``, ``python -m cProfile``) ``run`` exits normally, so
that its report is written.  In process, ``main`` returns every exit status.
"""

import io
import os
import re
import sys
from types import SimpleNamespace

from . import formats, sequences
from .errors import InputError, NotApplicableError, PivotGraphError
from .graph import Graph, local_complement, loop_complement, overlap_graph, pivot


def _read_graph(args) -> Graph:
    # read bytes, so a file and stdin decode by one strict rule in any locale
    if args.input == "-":
        if sys.stdin is None:  # the command was started with it closed
            raise InputError("cannot read stdin: closed")
        where, data = "stdin", sys.stdin.buffer.read()
    else:
        where = repr(args.input)
        try:  # the path as the bytes of the command line, in any locale
            with open(args.input.encode("utf-8", "surrogateescape"), "rb") as fh:
                data = fh.read()
        except OSError as err:
            raise InputError(f"cannot read {where}: {err.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"cannot read {where}: not UTF-8 at byte {err.start}") from None
    return formats.parse_graph(text, args.format)


def cmd_det(G, args) -> str:
    return f"{G.adjacency_matrix().det()}\n"


def cmd_pivot(G, args) -> str:
    return formats.serialize_graph(pivot(G, args.u, args.v))


def cmd_lc(G, args) -> str:
    # looped vertex: loop rule; simple graph: neighborhood complementation
    if G.has_loop(args.u):
        return formats.serialize_graph(loop_complement(G, args.u))
    if G.is_simple():
        return formats.serialize_graph(local_complement(G, args.u))
    raise NotApplicableError(
        f"lc at {args.u!r}: vertex has no loop and the graph is not simple"
    )


def cmd_apply(G, args) -> str:
    return formats.serialize_graph(sequences.apply(G, formats.parse_opseq(args.seq)))


def cmd_apply_support(G, args) -> str:
    return formats.serialize_graph(sequences.apply_support(G, formats.parse_vertex_set(args.set)))


def cmd_applicable(G, args) -> str:
    if args.seq is not None:
        ok = sequences.is_applicable(G, formats.parse_opseq(args.seq))
    else:
        ok = sequences.is_support_applicable(G, formats.parse_vertex_set(args.set))
    return "true\n" if ok else "false\n"


def cmd_reduce(G, args) -> str:
    seq = sequences.synthesize_reduced(G, formats.parse_vertex_set(args.set), anchor=args.anchor)
    return formats.serialize_opseq(seq) + "\n"


def cmd_reduce_to_empty(G, args) -> str:
    seq = sequences.reduce_to_empty(G)
    return ("none" if seq is None else formats.serialize_opseq(seq)) + "\n"


def cmd_orbit(G, args) -> str:
    members = sequences.orbit(G)
    toks = [formats._token(v) for v in G.vertices]  # every member has G's vertices
    return "\n".join(formats._edge_list(toks, g.adjacency_matrix().rows) for g in members)


def cmd_count_supports(G, args) -> str:
    return f"{sequences.count_applicable_supports(G)}\n"


def cmd_overlap(G, args) -> str:
    return formats.serialize_graph(overlap_graph(args.word))


def cmd_witness(G, args) -> str:
    witness = G.adjacency_matrix().kernel_witness()
    if witness is None:
        return "none\n"
    text = formats.serialize_vertex_set(witness)
    if text == "none":
        # "none" is the answer for a nonsingular graph
        raise InputError("vertex id 'none' cannot be written as a witness set")
    return text + "\n"


# command: (handler, positionals, options, help), with the positionals and
# options written as the usage line shows them.  "--a|--b" takes exactly one
# of the two options, "[--a]" is optional, and "[input]" brings -f/--format.
COMMANDS = {
    "det": (cmd_det, "[input]", "", "adjacency determinant over GF(2)"),
    "pm": (cmd_det, "[input]", "", "perfect-matching parity"),
    "pivot": (cmd_pivot, "u v [input]", "", "pivot on the edge U V"),
    "lc": (cmd_lc, "u [input]", "", "local complementation at U"),
    "apply": (cmd_apply, "[input]", "--seq", 'apply an operation sequence, e.g. "[a b] [c]"'),
    "apply-support": (cmd_apply_support, "[input]", "--set", "apply any sequence with the support"),
    "applicable": (cmd_applicable, "[input]", "--seq|--set", "test a sequence or a support set"),
    "reduce": (cmd_reduce, "[input]", "--set [--anchor]", "a reduced sequence for the support set"),
    "reduce-to-empty": (cmd_reduce_to_empty, "[input]", "", "reduced sequence over every vertex"),
    "orbit": (cmd_orbit, "[input]", "", "all graphs reachable by applicable sequences"),
    "count-supports": (cmd_count_supports, "[input]", "", "number of applicable support sets"),
    "overlap": (cmd_overlap, "", "--word", "overlap graph of a double-occurrence word"),
    "witness": (cmd_witness, "[input]", "", "kernel witness set when the determinant is 0"),
}

_NOTES = """\
The graph is read from the input file, or from stdin when it is '-' or absent;
-f selects edge-list (the default) or graph6.  --set takes comma-separated
vertices ("" is the empty set), --seq bracket groups, and --anchor the vertex
the first operation must touch.
Exit status: 0 done, 1 not applicable, 2 usage or input error."""

# as in argparse, a dash-led token that names no option is a positional when
# it is "-", a negative number, or holds a space
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _usage(name) -> str:
    if name is None:
        return "usage: pivotgraph [-h] command ..."
    _, positionals, options, _ = COMMANDS[name]
    parts = ["usage: pivotgraph", name, "[-h]"]
    for spec in options.split():
        alts = " | ".join(f"{flag} {flag[2:].upper()}" for flag in spec.strip("[]").split("|"))
        parts.append(f"({alts})" if "|" in spec else f"[{alts}]" if spec[0] == "[" else alts)
    if positionals.endswith("[input]"):
        parts.append("[-f {%s}]" % ",".join(formats.GRAPH_FORMATS))
    return " ".join(parts + [positionals]).rstrip()


def _help(name):
    if name is None:
        lines = ["Pivot and loop-complementation calculus on graphs over GF(2).", "", "commands:"]
        lines += [f"  {cmd:<16} {spec[-1]}" for cmd, spec in COMMANDS.items()]
    else:
        lines = [COMMANDS[name][-1]]
    sys.stdout.write("\n".join([_usage(name), "", *lines, "", _NOTES]) + "\n")
    raise SystemExit(0)


def _fail(name, message):
    sys.stderr.write(f"{_usage(name)}\npivotgraph: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """Read one command line into its command, handler, positionals and options.

    Options may come before, between or after the positionals, as
    ``--opt VALUE`` or ``--opt=VALUE``; the last value given wins, and
    ``--`` ends the options.  Help raises SystemExit(0), a usage error SystemExit(2).
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    name, *tokens = argv
    if name in ("-h", "--help"):
        _help(None)
    if name not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r}")
    func, positionals, options, _ = COMMANDS[name]
    groups = [spec.strip("[]").split("|") for spec in options.split()]
    flags = {flag: flag[2:] for group in groups for flag in group}
    fields = {"command": name, "func": func, **dict.fromkeys(flags.values())}
    if positionals.endswith("[input]"):
        flags["-f"] = flags["--format"] = "format"
        fields.update(input="-", format="edge-list")

    def is_flag(tok):
        if tok[:1] != "-" or tok == "-":
            return False
        return tok.partition("=")[0] in flags or not (" " in tok or re.match(_NEGATIVE, tok))

    rest = []
    it = iter(tokens)
    for tok in it:
        if tok == "--":
            rest += it
        elif not is_flag(tok):
            rest.append(tok)
        elif tok in ("-h", "--help"):
            _help(name)
        else:
            key, eq, value = tok.partition("=")
            if key not in flags:
                _fail(name, f"unrecognized arguments: {tok}")
            arg = "-f/--format" if flags[key] == "format" else key  # as argparse names it
            if not eq:
                value = next(it, None)
                if value is None or is_flag(value):
                    _fail(name, f"argument {arg}: expected one argument")
            if flags[key] == "format" and value not in formats.GRAPH_FORMATS:
                _fail(name, f"argument {arg}: invalid choice: {value!r}")
            fields[flags[key]] = value
    for spec, group in zip(options.split(), groups):
        given = [flag for flag in group if fields[flag[2:]] is not None]
        if len(given) > 1:
            _fail(name, f"argument {given[1]}: not allowed with argument {given[0]}")
        if not given and spec[0] != "[":
            _fail(name, f"the following arguments are required: {spec}")
    names = [p.strip("[]") for p in positionals.split()]
    needed = len(positionals.replace("[input]", "").split())
    if len(rest) < needed:
        _fail(name, "the following arguments are required: " + ", ".join(names[len(rest):needed]))
    if len(rest) > len(names):
        _fail(name, "unrecognized arguments: " + " ".join(rest[len(names):]))
    fields.update(zip(names, rest))
    return SimpleNamespace(**fields)


def _write(stream, text: str):
    """Write ``text`` to the file descriptor under ``stream`` until every byte
    is taken, as UTF-8 in any locale: None, or why it could not."""
    if stream is None:  # the command was started with it closed
        return "closed"
    try:
        # a command-line byte that is not UTF-8 goes back out as itself
        data = memoryview(text.encode("utf-8", "surrogateescape"))
        while data:
            data = data[os.write(stream.fileno(), data):]
    except OSError as err:  # its reader is gone, or its descriptor is bad
        return err.strerror
    return None


def main(argv=None) -> int:
    if argv is None:
        argv = [os.fsencode(a).decode("utf-8", "surrogateescape") for a in sys.argv[1:]]
    try:
        args = parse_args(argv)
        G = _read_graph(args) if hasattr(args, "input") else None
        answer = args.func(G, args)
    except SystemExit as exc:  # help, or a usage error, already written
        return exc.code
    except PivotGraphError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, InputError) else 1
    sys.stdout.write(answer)
    return 0


def run():
    """Entry point of the ``pivotgraph`` command: ``main`` with its output in
    memory, then every byte written out, then exit without teardown."""
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        code = main()
    finally:
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = stdout, stderr
    reason = None if code else _write(stdout, out)  # a failed request wrote no answer
    if reason:
        code, err = 1, err + f"error: cannot write stdout: {reason}\n"
    _write(stderr, err)  # a failed error write keeps the exit code
    hooks = getattr(sys, "monitoring", None)  # where cProfile hooks in from 3.12 on
    if sys.gettrace() or sys.getprofile() or hooks and any(map(hooks.get_tool, range(6))):
        sys.exit(code)  # a tracer or profiler writes its report at exit
    os._exit(code)


if __name__ == "__main__":
    run()
