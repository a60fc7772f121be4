"""Compare two sets of saved benchmark outputs, parent against change.

Each set is a directory of files (or one file), each holding the stdout of
one ``--trace 0`` run.  For every workload and end-to-end metric it prints
each side's median and quartiles and a verdict:

- ``better``: the change wins at least nine tenths of the runs paired by
  seed (at least ten pairs, ties count for neither side) and the medians
  differ by more than the parent's quartile distance;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's quartile distance, as a share of its median,
  exceeds the bound, and the runs of the two sides interleave;
- ``unchanged``: none of the above.

The exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(path):
    """{workload: [(seed, metrics)]} from the untraced runs under ``path``."""
    path = Path(path)
    files = sorted(p for p in path.iterdir() if p.is_file()) if path.is_dir() else [path]
    runs = {}
    for file in files:
        lines = [ln for ln in file.read_text().splitlines() if ln.strip()]
        if len(lines) < 2:
            continue
        try:
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        if info.get("trace") or "metrics" not in result:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(info["workload"], []).append((info["seed"], values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, pairs, bound, lower_is_better):
    """Verdict for one metric; ``pairs`` are (parent, change) runs of one seed."""
    sign = 1 if lower_is_better else -1

    def gain(p, c):
        return sign * (p - c)

    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if (q3 - q1) > bound * abs(p_med):
        if all(gain(p, c) > 0 for p in parent for c in change):
            return "better"
        if all(gain(p, c) < 0 for p in parent for c in change):
            return "worse"
        return "unresolved"
    if -gain(p_med, c_med) > bound * abs(p_med):
        return "worse"
    wins = sum(gain(p, c) > 0 for p, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain(p_med, c_med) > q3 - q1:
        return "better"
    return "unchanged"


def main(parent_path, change_path, spec):
    parent, change = load_runs(parent_path), load_runs(change_path)
    header = f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':>32s} " \
             f"{'change median [q1, q3]':>32s} {'pairs':>5s}  verdict"
    print(header)
    worse = False
    for wl in (w["name"] for w in spec["workloads"]):
        if wl not in parent or wl not in change:
            print(f"{wl:10s} missing from {'parent' if wl not in parent else 'change'}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_runs = [(s, v[name]) for s, v in parent[wl]]
            c_runs = [(s, v[name]) for s, v in change[wl]]
            c_by_seed = {}
            for s, v in c_runs:
                c_by_seed.setdefault(s, []).append(v)
            pairs = [(v, c_by_seed[s].pop(0)) for s, v in p_runs if c_by_seed.get(s)]
            p_vals, c_vals = [v for _, v in p_runs], [v for _, v in c_runs]
            mark = verdict(p_vals, c_vals, pairs, metric["bound"], metric["better"] == "lower")
            worse |= mark == "worse"
            p_q, c_q = quartiles(p_vals), quartiles(c_vals)
            print(f"{wl:10s} {name:12s} {_fmt(p_q):>32s} {_fmt(c_q):>32s} {len(pairs):5d}  {mark}")
    return 1 if worse else 0


def _fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
