"""Replay a seeded corpus of command lines through ``pivotgraph.cli.main``.

    PYTHONPATH=src python3 tools/replay.py [--seed N] [--graphs N]

The corpus depends on the seed alone.  It writes ``--graphs`` random loop
graphs on at most 8 vertices as edge-list files, some labelled by numbers or
by tokens that hold a bracket, some shuffled, commented, faulty or not
UTF-8, and as many graph6 files, some of them malformed.  On each it sends
every command, with well-formed and malformed ``--seq``, ``--set`` and
``--anchor`` values, reading the graph from the file or from stdin; then
``overlap`` words and usage errors.  With every 25th graph it also writes a
dense loop graph on 96 to 130 vertices as an edge list and a simple one in
graph6, drawn from a generator of their own, and sends each the commands
that walk the whole graph or a set of about 100 vertices: walks that long
batch their row updates (``gf2.BATCH_MIN``), and graph6 writes an order of
63 or more in its long form.  Every request runs in this process.

It prints the number of requests per exit code and one SHA-256 over every
(argv, exit code, stdout, stderr), with the temporary directory masked.  Two
checkouts that print the same line for a seed gave byte-identical replies,
and so does one checkout under two values of PYTHONHASHSEED.
"""

import argparse
import hashlib
import io
import random
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from pivotgraph import Graph, cli, serialize_graph

LABELS = (
    tuple("abcdefgh"),
    ("0", "1", "3", "7", "10", "22", "-3", "-5"),  # sorted as strings, not numbers
    # bracket groups cannot name most of these, a set cannot name "c,d", and
    # "none" cannot be a witness
    ("a", "b", "x]", "[y", "p[q", "[", "]", "none", "c,d"),
)
BAD_SEQS = ("[a b", "a b]", "[a a]", "[]", "[a b c]", "x [a]", "[zz]", "[a] junk", "[[a]]", "[a][b]")
BAD_SETS = ("", " ", ",", ",,", "{x},", ",{x}", "{x},,{x}", "{x}, ,{x}", " , ", " {x} ,", "zz")
BAD_DOCS = ("a b c\n", "loop\n", "vertex\n", "a a\n", "loop a\nloop a\n", "a b\nb a\n")
USAGE = (
    [], ["bogus"], ["-h"], ["det", "-h"], ["det", "--bogus"], ["det", "-f", "dot"],
    ["pivot", "a"], ["apply"], ["applicable", "--seq", "[a]", "--set", "a"],
    ["reduce", "--set"], ["overlap"], ["overlap", "--word", "1 1", "extra"],
    ["det", "-f"], ["det", "--format"],
)


def edge_list(rng, labels) -> bytes:
    """A random loop graph over ``labels`` as an edge-list document, now and
    then shuffled, commented, faulty or not UTF-8."""
    p, loop_p = rng.random(), rng.random()
    edges = [e for e in combinations(labels, 2) if rng.random() < p]
    text = serialize_graph(Graph(labels, edges, [v for v in labels if rng.random() < loop_p]))
    fault = rng.random()
    if fault < 0.15:
        lines = text.splitlines()
        rng.shuffle(lines)
        text = "# shuffled\n" + "\n".join(lines) + "\n"
    elif fault < 0.2:
        text += rng.choice(BAD_DOCS)
    elif fault < 0.22:
        return text.encode() + b"\xff\n"
    return text.encode()


def graph6_body(n: int, bits: str) -> str:
    """The graph6 line of order ``n`` whose upper triangle, column by column, is ``bits``."""
    bits += "0" * (-len(bits) % 6)
    order = chr(63 + n) if n < 63 else "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    return order + "".join(chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))


def graph6(rng) -> bytes:
    """A random simple graph on at most 12 vertices in graph6, now and then malformed."""
    n = rng.randrange(13)
    p = rng.random()
    bits = "".join("1" if rng.random() < p else "0" for j in range(1, n) for i in range(j))
    body = graph6_body(n, bits)
    form = rng.choice(
        ["{}", "{}\n", ">>graph6<<{}\n", ">>graph6<<>>graph6<<{}", " {}", "{}\n{}\n", "",
         ">>graph6<<", "{}é", "☃{}", "{}\x7f", "{}!"]
    )
    text = form.format(body, body)
    if rng.random() < 0.1 and len(text) > 1:
        text = text[:-1] if rng.random() < 0.5 else text + "?"
    return text.encode()


def seq_text(rng, labels) -> str:
    """Bracket groups over ``labels`` and an unknown vertex, applicable or not."""
    pool = [*labels, "zz"] if labels else ["zz"]
    groups = []
    for _ in range(rng.randrange(5)):
        if rng.random() < 0.5:
            groups.append(f"[{rng.choice(pool)}]")
        else:
            groups.append("[{} {}]".format(*rng.sample(pool, 2) if len(pool) > 1 else pool * 2))
    return " ".join(groups)


def set_text(rng, labels) -> str:
    """Comma-separated vertices, with spaces around some, as ``--set`` takes them."""
    picked = [v for v in labels if rng.random() < 0.5]
    return ",".join(f" {v}" if rng.random() < 0.2 else v for v in picked)


def graph_requests(rng, path: str, labels) -> list:
    """Every command but ``overlap`` on one graph, as (argv, stdin) pairs with
    the graph in ``path``; stdin is None when argv names the file."""
    x = rng.choice(labels) if labels else "zz"
    pool = [*labels, "zz"]
    out = [[cmd] for cmd in ("det", "pm", "witness", "reduce-to-empty", "orbit", "count-supports")]
    out += [["pivot", rng.choice(pool), rng.choice(pool)] for _ in range(2)]
    out += [["lc", rng.choice(pool)] for _ in range(2)]
    seqs = [seq_text(rng, labels) for _ in range(3)] + rng.sample(BAD_SEQS, 2)
    out += [[cmd, "--seq", s] for s in seqs for cmd in ("apply", "applicable")]
    sets = [set_text(rng, labels) for _ in range(3)] + [s.format(x=x) for s in rng.sample(BAD_SETS, 2)]
    for s in sets:
        out += [["apply-support", "--set", s], ["applicable", "--set", s], ["reduce", "--set", s]]
        out.append(["reduce", "--set", s, "--anchor", rng.choice([*s.split(","), "zz"]).strip()])
    # the graph from the file named last, after --, or from stdin as "-" or nothing
    requests = []
    for argv in out:
        where = rng.random()
        if where < 0.7:
            requests.append((argv + [path], None))
        elif where < 0.8:
            requests.append((argv + ["--", path], None))
        else:
            requests.append((argv + rng.choice([["-"], []]), path))
    return requests


def large_requests(rng, tmp: Path, k: int) -> list:
    """A dense loop graph on 96 to 130 vertices as an edge-list file and a
    simple one as a graph6 file, each with the commands that walk it whole
    or walk a set of about 100 of its vertices, as (argv, None) pairs."""
    requests = []
    for fmt, suffix in (("edge-list", "txt"), ("graph6", "g6")):
        n = rng.randrange(96, 131)
        labels = [str(v) for v in range(n)]
        p = rng.uniform(0.3, 0.7)
        pairs = [(labels[i], labels[j]) for j in range(1, n) for i in range(j)]  # graph6's order
        bits = [rng.random() < p for _ in pairs]
        edges = [e for e, b in zip(pairs, bits) if b]
        path = tmp / f"large{k}.{suffix}"
        if fmt == "edge-list":
            loops = {v for v in labels if rng.random() < 0.5}
            path.write_text(serialize_graph(Graph(labels, edges, loops)))
        else:
            loops = set()
            path.write_text(graph6_body(n, "".join("01"[b] for b in bits)) + "\n")
        u, v = rng.choice([e for e in edges if not loops.intersection(e)] or edges)
        picked = rng.sample(labels, rng.randrange(96, min(n, 110) + 1))
        s = ",".join(picked)
        out = [[cmd] for cmd in ("det", "pm", "witness", "reduce-to-empty")]
        out += [["pivot", u, v], ["pivot", *rng.sample(labels, 2)]]
        out += [["lc", rng.choice(sorted(loops) or labels)], ["lc", rng.choice(labels)]]
        out += [["apply", "--seq", f"[{u} {v}]"], ["apply", "--seq", seq_text(rng, labels)]]
        out += [["apply-support", "--set", s], ["applicable", "--set", s]]
        out.append(["reduce", "--set", s, "--anchor", rng.choice(picked)])
        requests += [(argv + ["-f", fmt, str(path)], None) for argv in out]
    return requests


def corpus(seed: int, graphs: int, tmp: Path) -> list:
    """The seeded requests as (argv, stdin path or None), their files written under ``tmp``."""
    rng, large = random.Random(seed), random.Random(f"large {seed}")
    requests = [(argv, None) for argv in USAGE]
    requests.append((["det", str(tmp / "missing")], None))
    for k in range(graphs):
        labels = rng.sample(rng.choice(LABELS), rng.randrange(9))
        path = tmp / f"g{k}.txt"
        path.write_bytes(edge_list(rng, labels))
        requests += graph_requests(rng, str(path), labels)
        path = tmp / f"g{k}.g6"
        path.write_bytes(graph6(rng))
        for argv in (["det"], ["pm"], ["witness"], ["orbit"], ["pivot", "0", "1"],
                     ["apply", "--seq", "[0 1] [2]"], ["applicable", "--set", "0,1,2"]):
            fmt = rng.choice([["-f", "graph6"], ["--format=graph6"], ["-f", "edge-list"]])
            requests.append((argv + fmt + [str(path)], None))
        symbols = [str(s) for s in range(rng.randrange(7))] * 2
        rng.shuffle(symbols)
        if symbols and rng.random() < 0.2:
            symbols.pop()
        requests.append((["overlap", "--word", " ".join(symbols)], None))
        if k % 25 == 0:
            requests += large_requests(large, tmp, k)
    return requests


def reply(argv: list, stdin: str | None) -> tuple:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` with stdin read from the file ``stdin``."""
    data = Path(stdin).read_bytes() if stdin else b""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def replay(seed: int, graphs: int) -> str:
    """The summary line: the request count per exit code and the digest."""
    digest, codes = hashlib.sha256(), Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for argv, stdin in corpus(seed, graphs, Path(tmp)):
            code, out, err = reply(argv, stdin)
            codes[code] += 1
            record = repr(([a.replace(tmp, "TMP") for a in argv], code, out, err.replace(tmp, "TMP")))
            digest.update(record.encode())
    counts = ", ".join(f"exit {c}: {codes[c]}" for c in sorted(codes))
    return f"{sum(codes.values())} requests, {counts}, sha256 {digest.hexdigest()}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--graphs", type=int, default=500, help="edge-list and graph6 files each")
    args = parser.parse_args()
    print(replay(args.seed, args.graphs))


if __name__ == "__main__":
    main()
