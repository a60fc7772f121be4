"""Crossover grids behind the two path-selection rules, ``formats._DENSE``
and ``gf2.BATCH_MIN``.

    PYTHONPATH=src python3 tools/crossovers.py

Prints two grids and checks nothing; ``tests/test_readme.py`` runs both on
one point each, so the tool keeps working.  Seeds and sizes are fixed, so a
later change can re-derive both constants on its own machine.  Each time is
the best of ``REPEAT`` calls in one process, with the paths of a point
interleaved.  A run took 18 s to 2.5 min on a 2-core Intel Xeon, as its
load varied.

1. The edge-list reader by path, on random graphs in the writer's form with
   n vertices, m = n*n / ratio edge lines and 30 % loops: the run read that
   transposes (``_DENSE`` forced high), the run read through
   ``graph._bit_rows`` (``_DENSE`` forced to 0), and the line loop (the
   same text after a comment line).  ``bit/T`` above 1 means the transpose
   wins; ``rule`` is the side ``_DENSE`` picks.
2. The pivot-out walk over k positions of n random rows with 30 % loops, at
   edge probability 1/2 and 1/20, the positions the lowest k
   ("consecutive") or k at random ("scattered"): the direct walk's time over
   forced batching's, so above 1 means batching wins.  Each cell is the
   median over ``SETS`` row and position sets; ``*`` marks the walks that
   ``BATCH_MIN`` batches.
"""

import random
import statistics
import time

from pivotgraph import formats, gf2
from pivotgraph.graph import Graph

REPEAT = 5
SETS = 5
READER_N = (15, 48, 100, 260, 500, 1000)
READER_RATIOS = (4, 8, 16, 32, 64)
WALK_N = (100, 260, 500)
WALK_K = (4, 8, 16, 32, 64, 96, 128, 192)


def timed(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def writer_text(rng, n: int, m: int) -> str:
    labels = [f"n{x}" for x in rng.sample(range(100_000, 1_000_000), n)]
    pairs = set()
    while len(pairs) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            pairs.add((labels[min(i, j)], labels[max(i, j)]))
    return formats.serialize_graph(Graph(labels, pairs, rng.sample(labels, round(0.3 * n))))


def reader_grid() -> None:
    rng = random.Random(5)
    print("edge-list reader, ms (best of %d)" % REPEAT)
    print(f"{'n':>5} {'n*n/m':>6} {'m':>7} {'transpose':>10} {'_bit_rows':>10} {'line loop':>10} {'bit/T':>6}  rule")
    for n in READER_N:
        for ratio in READER_RATIOS:
            m = max(1, min(n * n // ratio, n * (n - 1) // 2))
            text = writer_text(rng, n, m)
            paths = [(10**9, text), (0, text), (formats._DENSE, "# c\n" + text)]
            times = [float("inf")] * 3
            dense = formats._DENSE
            try:
                for _ in range(REPEAT):
                    for i, (forced, doc) in enumerate(paths):
                        formats._DENSE = forced
                        times[i] = min(times[i], timed(lambda: formats.parse_graph(doc)))
            finally:
                formats._DENSE = dense
            t, b, loop = (1e3 * x for x in times)
            rule = "transpose" if n * n <= dense * m else "_bit_rows"
            print(f"{n:>5} {n * n / m:>6.1f} {m:>7} {t:>10.3f} {b:>10.3f} {loop:>10.3f} {b / t:>6.2f}  {rule}")


def random_rows(rng, n: int, p: float) -> list:
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if rng.random() < 0.3:
            rows[i] |= 1 << i
    return rows


def walk_ratio(rng, n: int, k: int, p: float, scattered: bool) -> float:
    """Median over SETS row and position sets of direct time over batched time."""
    ratios = []
    batch_min = gf2.BATCH_MIN
    try:
        for _ in range(SETS):
            rows = random_rows(rng, n, p)
            live = gf2._mask(rng.sample(range(n), k) if scattered else range(k))
            times = [float("inf")] * 2
            for _ in range(REPEAT):
                for i, forced in enumerate((10**9, 0)):  # direct, then batched
                    gf2.BATCH_MIN = forced
                    out = list(rows)
                    times[i] = min(times[i], timed(lambda: gf2._pivot_out(out, live)))
            ratios.append(times[0] / times[1])
    finally:
        gf2.BATCH_MIN = batch_min
    return statistics.median(ratios)


def walk_grid() -> None:
    rng = random.Random(7)
    print(f"\npivot-out walk, direct time / batched time (median of {SETS} sets, best of {REPEAT})")
    print(f"{'p':>5} {'positions':>11} {'n':>5} " + " ".join(f"{k:>6}" for k in WALK_K))
    for p in (0.5, 0.05):
        for scattered in (False, True):
            for n in WALK_N:
                cells = [
                    f"{walk_ratio(rng, n, k, p, scattered):.2f}" + ("*" if k >= gf2.BATCH_MIN else " ")
                    if k <= n else "- "
                    for k in WALK_K
                ]
                place = "scattered" if scattered else "consecutive"
                print(f"{p:>5} {place:>11} {n:>5} " + " ".join(f"{c:>6}" for c in cells))


if __name__ == "__main__":
    reader_grid()
    walk_grid()
