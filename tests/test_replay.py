"""``tools/replay.py``, the seeded reply digest that compares two checkouts."""

import importlib.util
import re
from pathlib import Path

from pivotgraph import cli
from helpers import run_child

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay.py"
REPLAY_LINE = (
    "1001 requests, exit 0: 378, exit 1: 87, exit 2: 536,"
    " sha256 1d4d61385f582caed0af3ccc11b6bfb0b97580c7a0d0f83dcec870cdf23a8edc\n"
)


def test_corpus_names_every_command(tmp_path):
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    requests = replay.corpus(1, 20, tmp_path)
    assert {argv[0] for argv, _ in requests if argv} >= set(cli.COMMANDS)


def test_replay_line_ignores_the_hash_seed():
    lines = []
    for seed in ("0", "1"):
        done = run_child([str(TOOL), "--graphs", "20"], env={"PYTHONHASHSEED": seed}, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        lines.append(done.stdout)
    assert lines[0] == lines[1]
    counts = re.fullmatch(
        r"(\d+) requests, exit 0: (\d+), exit 1: (\d+), exit 2: (\d+), sha256 [0-9a-f]{64}\n", lines[0]
    )
    total, *codes = map(int, counts.groups())
    assert total == sum(codes) and min(codes) > 0
    # any change to a reply moves the digest: update this line with the change
    assert lines[0] == REPLAY_LINE
