import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pivotgraph import cli

P3 = "a b\nb c\n"
P4 = "a b\nb c\nc d\n"
K3 = "a b\na c\nb c\n"


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, stdin=""):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
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


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pivotgraph.cli", "det"],
        input=P4,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1\n"


def test_cli_import_skips_heavy_modules():
    # every request pays for these imports before any graph work: the
    # introspection stack behind dataclasses would cost several ms a call
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import pivotgraph.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in set(sys.modules) - before))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
