"""The README states the contract, and these tests hold it to the code.

The command reference is quoted from the CLI's own help and usage lines, so
a command added to ``cli.COMMANDS`` without docs fails here.  Every ``$``
example is run, and every quick-tour line with a literal ``# value`` comment
is evaluated.  The README points to ``tools/crossovers.py`` for the grids
behind two constants, so that tool is run here on a small grid.
"""

import ast
import importlib.util
import io
import re
import shlex
import sys
import tokenize
from pathlib import Path

import pytest

from pivotgraph import cli
from helpers import run_child

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(lang: str) -> list:
    """The bodies of the README's fenced code blocks tagged ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def examples() -> list:
    """(command, expected stdout) for each ``$`` line of the console blocks."""
    out = []
    for body in blocks("console"):
        for chunk in re.split(r"^\$ ", body, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            out.append((command, shown))
    return out


def test_readme_quotes_the_help(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out in README


@pytest.mark.parametrize("name", cli.COMMANDS)
def test_readme_quotes_each_usage_line(name):
    assert cli._usage(name) in README.splitlines()


@pytest.mark.parametrize("command, shown", examples())
def test_readme_examples_run(command, shown, tmp_path):
    # the README shows a failing command's status with `|| echo "exit $?"`,
    # so every example as a whole exits 0
    entry = f"{shlex.quote(sys.executable)} -m pivotgraph.cli"
    script = re.sub(r"\bpivotgraph\b", entry, command)
    proc = run_child(["-c", script], program="bash", cwd=tmp_path)
    assert (proc.returncode, proc.stdout.decode("utf-8")) == (0, shown), proc.stderr


def test_readme_has_examples():
    assert len(examples()) >= 3


def test_readme_quick_tour_runs():
    (tour,) = blocks("python")
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(tour).readline)
        if tok.type == tokenize.COMMENT
    }
    scope, checked = {}, 0
    for stmt in ast.parse(tour).body:
        code = ast.get_source_segment(tour, stmt)
        try:
            want = ast.literal_eval(comments.get(stmt.end_lineno, ""))
        except (ValueError, SyntaxError):
            exec(code, scope)
            continue
        assert isinstance(stmt, ast.Expr), code
        assert eval(code, scope) == want, code
        checked += 1
    assert checked >= 5


@pytest.fixture
def crossovers(monkeypatch):
    spec = importlib.util.spec_from_file_location("crossovers", ROOT / "tools" / "crossovers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name, value in dict(
        READER_N=(15,), READER_RATIOS=(4,), WALK_N=(100,), WALK_K=(4,), REPEAT=1, SETS=1
    ).items():
        monkeypatch.setattr(tool, name, value)
    return tool


def test_crossovers_prints_one_row_per_point(crossovers, capsys):
    crossovers.reader_grid()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["15"]
    assert rows[0][-1] in ("transpose", "_bit_rows")

    crossovers.walk_grid()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[3:]]
    # (p, placement, n), then one cell per k
    assert [row[:3] for row in rows] == [
        [p, place, "100"] for p in ("0.5", "0.05") for place in ("consecutive", "scattered")
    ]
    assert all(len(row) == 4 for row in rows)
