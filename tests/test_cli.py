import contextlib
import io
import os
import random
import sys
import threading

import pytest

from pivotgraph import Graph, InputError, UnsupportedSizeError, cli, formats, sequences
from helpers import SRC, argv_corpus, build_parser, random_loop_graph, run_child

P3 = "a b\nb c\n"
P4 = "a b\nb c\nc d\n"
K3 = "a b\na c\nb c\n"


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, stdin=""):
        data = stdin if isinstance(stdin, bytes) else stdin.encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    return _run


def test_det(run):
    assert run(["det"], P4) == (0, "1\n", "")
    assert run(["det"], P3) == (0, "0\n", "")
    assert run(["det"], "") == (0, "1\n", "")  # empty graph


def test_pm_simple_and_looped(run):
    assert run(["pm"], P4) == (0, "1\n", "")
    assert run(["pm"], K3) == (0, "0\n", "")
    assert run(["pm"], "loop a\n") == (0, "1\n", "")
    assert run(["pm"], "a b\nloop a\n") == (0, "1\n", "")
    assert run(["pm"], "a b\nloop a\nloop b\n") == (0, "0\n", "")


def test_graph_file_input(run, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(P4)
    assert run(["det", str(path)]) == (0, "1\n", "")


def test_missing_file(run):
    code, out, err = run(["det", "/no/such/file"])
    assert code == 2
    assert "cannot read" in err


def test_graph6_input(run):
    assert run(["det", "-f", "graph6"], "Bw\n") == (0, "0\n", "")
    code, out, err = run(["pm", "-f", "graph6"], "not graph6 at all")
    assert code == 2


def test_parse_error_exit(run):
    code, out, err = run(["det"], "a b\nb a\n")
    assert code == 2
    assert "line 2" in err


def test_pivot(run):
    code, out, err = run(["pivot", "a", "b"], P3)
    assert (code, err) == (0, "")
    assert out == "a b\na c\n"
    code, out, err = run(["pivot", "a", "c"], P3)
    assert code == 1
    code, out, err = run(["pivot", "a", "x"], P3)
    assert code == 2


def test_lc_dispatch(run):
    # simple graph: neighborhood complementation
    assert run(["lc", "b"], P3) == (0, "a b\na c\nb c\n", "")
    # looped vertex: loop rule
    code, out, err = run(["lc", "a"], "a b\nloop a\n")
    assert (code, out) == (0, "loop a\nloop b\na b\n")
    # loop-free vertex on a graph that has loops elsewhere
    code, out, err = run(["lc", "a"], "a b\nloop b\n")
    assert code == 1
    assert "no loop" in err
    code, out, err = run(["lc", "x"], P3)
    assert code == 2


def test_apply(run):
    code, out, err = run(["apply", "--seq", "[a b]"], P3)
    assert (code, out) == (0, "a b\na c\n")
    assert run(["apply", "--seq", ""], P3) == (0, P3, "")
    code, out, err = run(["apply", "--seq", "[a b] [b c]"], P3)
    assert code == 1
    assert "operation 2" in err
    code, out, err = run(["apply", "--seq", "[a b"], P3)
    assert code == 2
    code, out, err = run(["apply", "--seq", "[a x]"], P3)
    assert code == 2


def test_applicable(run):
    assert run(["applicable", "--seq", "[a b]"], P3) == (0, "true\n", "")
    assert run(["applicable", "--seq", "[a c]"], P3) == (0, "false\n", "")
    assert run(["applicable", "--set", "a,b"], P3) == (0, "true\n", "")
    assert run(["applicable", "--set", "a,c"], P3) == (0, "false\n", "")
    assert run(["applicable", "--set", ""], P3) == (0, "true\n", "")
    with pytest.raises(SystemExit) as exc:
        run(["applicable", "--seq", "[a b]", "--set", "a,b"], P3)
    assert exc.value.code == 2


def test_apply_support(run):
    code, out, err = run(["apply-support", "--set", "a,b"], P3)
    assert (code, out) == (0, "a b\na c\n")
    code, out, err = run(["apply-support", "--set", "a,c"], P3)
    assert code == 1
    assert "support" in err


def test_reduce(run):
    assert run(["reduce", "--set", "a,b"], P3) == (0, "[a b]\n", "")
    assert run(["reduce", "--set", ""], P3) == (0, "\n", "")
    code, out, err = run(["reduce", "--set", "a,b", "--anchor", "b"], P3)
    assert code == 0
    assert "b" in out
    code, out, err = run(["reduce", "--set", "a,c"], P3)
    assert code == 1
    code, out, err = run(["reduce", "--set", "a,b", "--anchor", "c"], P3)
    assert code == 2  # anchor outside the set


def test_reduce_then_apply_matches_apply_support(run):
    for doc, subset in [(P4, "a,b,c,d"), (P4, "b,c"), (K3, "a,b"), ("a b\nloop a\n", "a,b")]:
        code, seq_text, err = run(["reduce", "--set", subset], doc)
        assert code == 0
        code, via_seq, _ = run(["apply", "--seq", seq_text.strip()], doc)
        assert code == 0
        code, via_support, _ = run(["apply-support", "--set", subset], doc)
        assert code == 0
        assert via_seq == via_support


def test_reduce_to_empty(run):
    assert run(["reduce-to-empty"], "a b\n") == (0, "[a b]\n", "")
    assert run(["reduce-to-empty"], "vertex a\n") == (0, "none\n", "")
    assert run(["reduce-to-empty"], "") == (0, "\n", "")


def test_orbit(run):
    code, out, err = run(["orbit"], P3)
    assert code == 0
    assert out == "a b\na c\n\na b\nb c\n\na c\nb c\n"
    assert run(["orbit"], "a b\n") == (0, "a b\n", "")


def test_orbit_writes_each_member_as_serialize_graph():
    # the tokens are checked once per orbit, and each member is written from
    # its rows; the text must be that of serialize_graph on every member
    args = cli.parse_args(["orbit"])
    rng = random.Random(15)
    for k in range(40):
        G = random_loop_graph(rng, k % 8, rng.random(), rng.random())
        G = Graph([f"v{v}" for v in G.vertices], [(f"v{u}", f"v{v}") for u, v in G.edges],
                  [f"v{v}" for v in G.loops])
        expected = "\n".join(formats.serialize_graph(g) for g in sequences.orbit(G))
        assert cli.cmd_orbit(G, args) == expected
    for bad in ("a b", "loop", "x#y"):
        with pytest.raises(InputError) as err:
            cli.cmd_orbit(Graph(edges=[("c", bad)]), args)
        assert str(err.value) == f"vertex id {bad!r} cannot be written as a token"
    # the size cap is still checked first
    with pytest.raises(UnsupportedSizeError):
        cli.cmd_orbit(Graph(["a b", *"cdefghijklmn"]), args)


def test_count_supports(run):
    assert run(["count-supports"], P3) == (0, "3\n", "")
    assert run(["count-supports"], "") == (0, "1\n", "")


def test_overlap(run):
    code, out, err = run(["overlap", "--word", "1 2 1 2"])
    assert (code, out) == (0, "1 2\n")
    code, out, err = run(["overlap", "--word", "1 2 1"])
    assert code == 2


def test_overlap_pivot_pipeline(run):
    code, word_graph, _ = run(["overlap", "--word", "3 5 2 6 5 4 1 3 6 1 2 4"])
    assert code == 0
    code, pivoted, _ = run(["pivot", "2", "3"], word_graph)
    assert code == 0
    code, expected, _ = run(["overlap", "--word", "3 6 1 2 6 5 4 1 3 5 2 4"])
    assert code == 0
    assert pivoted == expected


def test_witness(run):
    assert run(["witness"], K3) == (0, "a,b,c\n", "")
    assert run(["witness"], P4) == (0, "none\n", "")
    # "none" is the answer for a nonsingular graph, so the set {none}, the
    # only witness of the one-vertex graph on none, is refused
    assert run(["witness"], "a b\n") == (0, "none\n", "")
    message = "error: vertex id 'none' cannot be written as a witness set\n"
    assert run(["witness"], "vertex none\n") == (2, "", message)


def test_writers_refuse_vertices_that_do_not_read_back(run):
    # "[a] b]" would not parse as a sequence, and "x,y" reads as two vertices
    message = "error: vertex id {!r} cannot be written as a token\n"
    assert run(["reduce-to-empty"], "a] b\n") == (2, "", message.format("a]"))
    assert run(["reduce", "--set", "a],b"], "a] b\n") == (2, "", message.format("a]"))
    assert run(["witness"], "vertex x,y\n") == (2, "", message.format("x,y"))
    assert run(["witness"], "a] b\nvertex [c\n") == (0, "[c\n", "")


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = run_child(["-m", "pivotgraph.cli", "det"], P4, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_child_runs_this_checkouts_src(tmp_path, monkeypatch):
    # the check perfbench/run.py's check_source makes before a benchmark run
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    probe = ["-c", "import pivotgraph; print(pivotgraph.__file__)"]
    want = f"{SRC / 'pivotgraph' / '__init__.py'}\n"
    assert run_child(probe, text=True).stdout == want
    # src/ comes before the parent's own entries
    (tmp_path / "pivotgraph").mkdir()
    (tmp_path / "pivotgraph" / "__init__.py").write_text("")
    assert run_child(probe, text=True).stdout == want


@pytest.mark.parametrize(
    "argv, vertex",
    [
        (["apply", "--seq", "[v0 nope]"], "nope"),
        (["reduce", "--set", "v2,v0"], "v0"),
        (["apply-support", "--set", "v2,v0"], "v0"),
        (["applicable", "--set", "v2,v0"], "v0"),
    ],
)
def test_unknown_vertex_message_ignores_hash_seed(argv, vertex):
    # the unknown vertices used to be checked in set order, which follows
    # string hashing, so the vertex named changed with PYTHONHASHSEED
    for seed in range(8):
        proc = run_child(
            ["-m", "pivotgraph.cli", *argv], "vertex a\n", {"PYTHONHASHSEED": str(seed)}, text=True
        )
        outcome = (proc.returncode, proc.stdout, proc.stderr)
        assert outcome == (2, "", f"error: unknown vertex: {vertex!r}\n"), seed


def test_cli_import_skips_heavy_modules(tmp_path):
    # every request pays for these imports before any graph work: argparse
    # with gettext and locale, and the introspection stack behind
    # dataclasses, would cost several ms a call; __future__ is small, but
    # nothing else loads it
    heavy = [
        "argparse", "gettext", "locale", "dataclasses", "inspect", "ast", "dis", "tokenize",
        "__future__",
    ]
    path = tmp_path / "g.txt"
    path.write_text(P3)
    # a .pth file run by site may import typing itself, so typing is only
    # checked under -S, where the interpreter loads no more than it must
    for flags, modules in [([], heavy), (["-S"], [*heavy, "typing"])]:
        probe = (
            "import contextlib, io, sys\n"
            "import pivotgraph.cli\n"
            "quiet = io.StringIO()\n"
            "with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):\n"
            f"    codes = [pivotgraph.cli.main(['pivot', 'a', 'b', {str(path)!r}]),\n"
            "             pivotgraph.cli.main(['det', '/no/such/file'])]\n"
            "    try:\n"
            "        pivotgraph.cli.main(['pivot', 'a'])\n"
            "    except SystemExit as exc:\n"
            "        codes.append(exc.code)\n"
            f"print(codes, sorted(m for m in {modules!r} if m in sys.modules))\n"
        )
        proc = run_child([*flags, "-c", probe], text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 2, 2] []\n", flags


def test_non_utf8_input_is_input_error(run, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"a b\n\xffc d\n")
    message = f"error: cannot read {str(path)!r}: not UTF-8 at byte 4\n"
    assert run(["det", str(path)]) == (2, "", message)
    assert run(["det"], b"a b\n\xff") == (2, "", "error: cannot read stdin: not UTF-8 at byte 4\n")


@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_non_utf8_stdin_fails_in_any_locale(locale):
    # under the C locale stdin used to decode with surrogate escapes, so the
    # byte became a vertex named '\udcff' and the command succeeded
    proc = run_child(
        ["-m", "pivotgraph.cli", "det"], b"a \xff\n", {"LC_ALL": locale},
        unset=("PYTHONUTF8", "PYTHONIOENC"),
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: cannot read stdin: not UTF-8 at byte 2\n"


@pytest.mark.parametrize(
    "setting",
    [
        {"PYTHONIOENCODING": "latin-1"},
        {"PYTHONIOENCODING": "ascii"},
        {"LC_ALL": "C"},
        {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
    ],
    ids=["latin-1", "ascii", "C", "C uncoerced"],
)
def test_output_is_utf8_in_any_locale(setting, tmp_path):
    # the input is always read as UTF-8; the answer and the error line were
    # written in the stream's encoding, so a latin-1 answer did not read back
    # in the next command of a pipe, and an ascii one ended in a traceback;
    # in an ascii locale that Python does not coerce to UTF-8, a vertex named
    # on the command line was read in the locale's encoding, so 'é' was unknown
    unset = ("PYTHONUTF8", "PYTHONIOENC", "PYTHONCOERCE", "LC_ALL")

    def fresh(argv, data=b""):
        proc = run_child(["-m", "pivotgraph.cli", *argv], data, setting, unset)
        return proc.returncode, proc.stdout, proc.stderr

    code, answer, err = fresh(["pivot", "a", "é"], "a é\n".encode())
    assert (code, answer, err) == (0, "a é\n".encode(), b"")
    assert fresh(["det"], answer) == (0, b"1\n", b"")
    refusal = "error: pivot 'é'-'a' requires loop-free endpoints\n".encode()
    assert fresh(["pivot", "é", "a"], "loop é\na é\n".encode()) == (1, b"", refusal)
    # a command-line byte that is not UTF-8 goes back out as itself
    assert fresh(["overlap", "--word", b"\xff q \xff q"]) == (0, b"q \xff\n", b"")
    # and a file named on the command line is opened by the bytes given
    (tmp_path / "é.txt").write_bytes(b"a b\n")
    assert fresh(["det", str(tmp_path / "é.txt")]) == (0, b"1\n", b"")


def test_option_forms(run):
    pivoted = (0, "a b\na c\n", "")
    assert run(["pivot", "a", "b", "-f", "edge-list"], P3) == pivoted
    assert run(["pivot", "--format", "edge-list", "a", "b"], P3) == pivoted
    assert run(["pivot", "a", "--format=edge-list", "b", "-"], P3) == pivoted
    assert run(["pivot", "-f=edge-list", "--", "a", "b", "-"], P3) == pivoted
    assert run(["apply", "--seq=[a b]"], P3) == pivoted
    assert run(["apply", "--seq", "[a c]", "--seq", "[a b]"], P3) == pivoted  # last wins
    assert run(["applicable", "--set="], P3) == (0, "true\n", "")
    # after "--", or when they look like negative numbers, dash-led tokens
    # are positionals
    assert run(["pivot", "--", "-a", "-b"], "-a -b\n-b c\n") == (0, "-a -b\n-a c\n", "")
    assert run(["pivot", "-1", "-2"], "-1 -2\n-2 3\n") == (0, "-1 -2\n-1 3\n", "")
    assert run(["reduce", "--set=-1,-2", "--anchor", "-2"], "-1 -2\n") == (0, "[-1 -2]\n", "")


def _usage_error(argv):
    err = io.StringIO()
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(err):
        cli.main(argv)
    assert exc.value.code == 2
    usage, message = err.getvalue().splitlines()
    assert usage.startswith("usage: pivotgraph")
    return message


def test_usage_error_names_the_argument():
    assert _usage_error(["pivot", "a"]) == (
        "pivotgraph: error: the following arguments are required: v"
    )
    assert _usage_error(["applicable"]).endswith("required: --seq|--set")
    assert _usage_error(["applicable", "--seq", "[a b]", "--set=a"]) == (
        "pivotgraph: error: argument --set: not allowed with argument --seq"
    )
    assert _usage_error(["apply", "--seq"]) == (
        "pivotgraph: error: argument --seq: expected one argument"
    )
    assert _usage_error(["det", "-f", "dot"]).endswith("invalid choice: 'dot'")
    assert _usage_error(["det", "a", "b"]).endswith("unrecognized arguments: b")
    assert _usage_error(["det", "-x"]).endswith("unrecognized arguments: -x")
    assert _usage_error(["frobnicate"]).endswith("invalid choice: 'frobnicate'")


def test_dropped_argparse_forms():
    # argparse took option prefixes and short options with the value
    # attached; the reader takes neither
    assert _usage_error(["det", "--form", "graph6"]).endswith("unrecognized arguments: --form")
    assert _usage_error(["det", "-fgraph6"]).endswith("unrecognized arguments: -fgraph6")
    assert _usage_error(["reduce", "--s", "a"]).endswith("unrecognized arguments: --s")


def test_input_after_options_after_positionals(run):
    # argparse rejected this order (its optional input positional was spent
    # before the options); the reader takes it
    argv = ["pivot", "a", "b", "-f", "edge-list", "-"]
    with pytest.raises(SystemExit), contextlib.redirect_stderr(io.StringIO()):
        build_parser().parse_args(argv)
    assert run(argv, P3) == (0, "a b\na c\n", "")


def test_help_is_generated_from_the_table(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: pivotgraph [-h] command ...\n")
    assert all(f"\n  {name} " in out for name in cli.COMMANDS)
    with pytest.raises(SystemExit) as exc:
        cli.main(["applicable", "--set", "a", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: pivotgraph applicable [-h] (--seq SEQ | --set SET)"
        " [-f {edge-list,graph6}] [input]\n"
    )


def _outcome(parse, argv):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


def test_reader_agrees_with_argparse_oracle():
    parser = build_parser()
    corpus = argv_corpus(random.Random(7), 3000)
    assert {argv[0] for argv in corpus if argv} >= set(cli.COMMANDS)
    wants = [_outcome(parser.parse_args, argv) for argv in corpus]
    gots = [_outcome(cli.parse_args, argv) for argv in corpus]
    assert [argv for argv, want, got in zip(corpus, wants, gots) if want != got] == []
    accepted = sum(isinstance(want, dict) for want in wants)
    assert 0.5 * len(corpus) < accepted < 0.9 * len(corpus)


# one successful request per command, with the graph it reads
ANSWERED = [
    (["det"], P4),
    (["pm"], K3),
    (["pivot", "a", "b"], P3),
    (["lc", "b"], P3),
    (["apply", "--seq", "[a b]"], P3),
    (["apply-support", "--set", "a,b"], P3),
    (["applicable", "--set", "a,c"], P3),
    (["reduce", "--set", "a,b,c,d"], P4),
    (["reduce-to-empty"], "vertex a\n"),
    (["orbit"], P3),
    (["count-supports"], P4),
    (["overlap", "--word", "1 2 1 2"], ""),
    (["witness"], K3),
]


@pytest.mark.parametrize("argv, doc", ANSWERED, ids=[argv[0] for argv, _ in ANSWERED])
def test_handler_returns_its_answer_and_writes_nothing(run, capsys, argv, doc):
    code, printed, _ = run(argv, doc)
    assert code == 0
    args = cli.parse_args(argv)
    G = None if argv[0] == "overlap" else formats.parse_graph(doc)
    assert args.func(G, args) == printed
    assert capsys.readouterr() == ("", "")


# requests refused after the graph is read; det and pm refuse no parsed
# graph, so theirs are refused by the reader
REFUSED = [
    (["det"], b"a b\n\xff", 2),
    (["pm"], "a b\nb a\n", 2),
    (["pivot", "a", "x"], P3, 2),
    (["pivot", "a", "c"], P3, 1),
    (["lc", "x"], P3, 2),
    (["lc", "a"], "a b\nloop b\n", 1),
    (["apply", "--seq", "[a b"], P3, 2),
    (["apply", "--seq", "[a b] [b c]"], P3, 1),
    (["apply-support", "--set", "a,,b"], P3, 2),
    (["apply-support", "--set", "a,c"], P3, 1),
    (["applicable", "--seq", "a b"], P3, 2),
    (["applicable", "--set", "a,x"], P3, 2),
    (["reduce", "--set", "a],b"], "a] b\n", 2),
    (["reduce", "--set", "a,c"], P3, 1),
    (["reduce-to-empty"], "a] b\n", 2),
    (["orbit"], "".join(f"vertex v{i}\n" for i in range(13)), 1),
    (["count-supports"], "".join(f"vertex v{i}\n" for i in range(25)), 1),
    (["overlap", "--word", "a# b a# b"], "", 2),
    (["overlap", "--word", "1 2 1"], "", 2),
    (["witness"], "vertex x,y\n", 2),
]


@pytest.mark.parametrize("argv, doc, code", REFUSED, ids=[" ".join(r[0]) for r in REFUSED])
def test_refused_request_writes_only_the_error(run, argv, doc, code):
    got, out, err = run(argv, doc)
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_request_tables_cover_every_command():
    for table in (ANSWERED, REFUSED):
        assert {row[0][0] for row in table} == set(cli.COMMANDS)


def _fresh(argv, tmp_path, doc="", unbuffered=False, **popen):
    """Run one request as ``python -m pivotgraph.cli``; return (exit code,
    stdout bytes, stderr bytes).  Its stdout is block-buffered, or unbuffered
    under PYTHONUNBUFFERED=1 when ``unbuffered`` is set, as the benchmark's
    requests may run.  stdin is a file holding ``doc``."""
    path = tmp_path / "in"
    path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
    env = {"PYTHONUNBUFFERED": "1"} if unbuffered else None
    with open(path, "rb") as fin:
        proc = run_child(
            ["-m", "pivotgraph.cli", *argv], fin, env, unset=("PYTHONUNBUFFERED",), **popen
        )
    return proc.returncode, proc.stdout, proc.stderr


# the looped path on 9 vertices: its orbit is about 27 kB, more than the
# 8 KiB stdout buffer, so an answer left in the buffer at exit shows
LOOPED_P9 = "".join(f"loop v{i}\n" for i in range(9)) + "".join(f"v{i} v{i + 1}\n" for i in range(8))
# the orbit of the looped 12-vertex path, about 237 kB, overfills the pipe
LOOPED_P12 = "".join(f"loop v{i}\n" for i in range(12)) + "".join(
    f"v{i} v{i + 1}\n" for i in range(11)
)
FRESH = [
    *ANSWERED,
    *((argv, doc) for argv, doc, _ in REFUSED),
    (["orbit"], LOOPED_P9),
    (["orbit"], LOOPED_P12),
    (["pivot", "a"], P3),
    (["-h"], ""),
]


def _replies_as_main(run, capsys, tmp_path, argv, doc, unbuffered):
    with open(tmp_path / "out", "wb") as out, open(tmp_path / "err", "wb") as err:
        code, _, _ = _fresh(argv, tmp_path, doc, unbuffered, stdout=out, stderr=err)
    try:
        want = run(argv, doc)
    except SystemExit as exc:
        want = (exc.code, *capsys.readouterr())
    got = (code, (tmp_path / "out").read_bytes(), (tmp_path / "err").read_bytes())
    assert got == (want[0], want[1].encode(), want[2].encode())


@pytest.mark.parametrize("argv, doc", FRESH, ids=[" ".join(argv) for argv, _ in FRESH])
def test_fresh_process_replies_as_main(run, capsys, tmp_path, argv, doc):
    # stdout goes to a file, so it is block-buffered, and every byte of an
    # answer must reach the file before run ends the process
    _replies_as_main(run, capsys, tmp_path, argv, doc, unbuffered=False)


@pytest.mark.parametrize("argv, doc", FRESH, ids=[" ".join(argv) for argv, _ in FRESH])
def test_unbuffered_process_replies_as_main(run, capsys, tmp_path, argv, doc):
    _replies_as_main(run, capsys, tmp_path, argv, doc, unbuffered=True)


def test_profiler_still_reports():
    proc = run_child(["-m", "cProfile", "-m", "pivotgraph.cli", "det"], P4, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1\n") and "function calls" in proc.stdout
    assert "Ordered by:" in proc.stdout


# the closed-pipe faults: an answer larger than the pipe and a small one;
# ">&-" starts with no stdout
UNWRITABLE = [
    (["orbit"], LOOPED_P9, "pipe"),
    (["det"], P4, "pipe"),
    (["det"], P4, "closed"),
]
UNWRITABLE_IDS = ["large answer into a closed pipe", "small answer into a closed pipe", "closed stdout"]


def _unwritable_stdout_is_one_error_line(tmp_path, argv, doc, fault, unbuffered):
    if fault == "pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            code, _, err = _fresh(argv, tmp_path, doc, unbuffered, stdout=write)
        finally:
            os.close(write)
        want = "Broken pipe"
    else:
        code, _, err = _fresh(
            argv, tmp_path, doc, unbuffered, stdout=None, preexec_fn=lambda: os.close(1)
        )
        want = "closed"
    assert (code, err.decode()) == (1, f"error: cannot write stdout: {want}\n")


@pytest.mark.parametrize("argv, doc, fault", UNWRITABLE, ids=UNWRITABLE_IDS)
def test_unwritable_stdout_is_one_error_line(tmp_path, argv, doc, fault):
    _unwritable_stdout_is_one_error_line(tmp_path, argv, doc, fault, unbuffered=False)


@pytest.mark.parametrize("argv, doc, fault", UNWRITABLE, ids=UNWRITABLE_IDS)
def test_unwritable_unbuffered_stdout_is_one_error_line(tmp_path, argv, doc, fault):
    _unwritable_stdout_is_one_error_line(tmp_path, argv, doc, fault, unbuffered=True)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_gone_mid_answer_is_one_error_line(tmp_path, unbuffered):
    # the reader leaves after one byte, as ``head -c1`` does; unbuffered, the
    # one write that the pipe takes in part must not drop the rest silently
    read, write = os.pipe()

    def head():
        os.read(read, 1)
        os.close(read)

    reader = threading.Thread(target=head)
    reader.start()
    try:
        code, _, err = _fresh(["orbit"], tmp_path, LOOPED_P12, unbuffered, stdout=write)
    finally:
        os.close(write)
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert (code, err.decode()) == (1, "error: cannot write stdout: Broken pipe\n")


# with fd 2 closed the error line cannot be written, but the exit code stands
CLOSED_STDERR = [
    (["frobnicate"], "", 2),
    (["det", "missing.txt"], "", 2),
    (["pivot", "a", "c"], P3, 1),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, doc, want", CLOSED_STDERR, ids=[r[0][0] for r in CLOSED_STDERR])
def test_closed_stderr_keeps_the_exit_code(tmp_path, argv, doc, want, unbuffered):
    argv = [str(tmp_path / a) if a == "missing.txt" else a for a in argv]
    code, out, _ = _fresh(argv, tmp_path, doc, unbuffered, stderr=None, preexec_fn=lambda: os.close(2))
    assert (code, out) == (want, b"")
