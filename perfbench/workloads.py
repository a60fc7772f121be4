"""Seeded inputs and request streams for the benchmark's workloads.

``build(name, seed, directory)`` writes the workload's input files and
returns its request stream: one pass, the list of CLI calls the run repeats.
Each request carries a judge that decides from the reference code alone
whether a reply (exit status, stdout, stderr) is right.  Sizes are fixed per
workload, so that a pass does about the same work for every seed.
"""

from __future__ import annotations

import random
from pathlib import Path

import reference as ref

WORKLOADS = ("rewrite", "minors", "parity")


class Request:
    """One CLI call: ``args`` follow ``pivotgraph``, the input path last."""

    def __init__(self, kind, args, judge):
        self.kind = kind
        self.args = args
        self._judge = judge
        self._verdicts = {}

    def check(self, code, out, err):
        """True when the reply is right; each distinct reply is judged once."""
        refused = any(line.startswith("error:") for line in err.splitlines())
        key = (code, out, refused)
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(code, out, refused)
        return self._verdicts[key]


def exact(expected):
    """Judge for a deterministic reply.  ``expected()`` gives the stdout of
    a success, or None when the request must be refused: exit 1, an
    ``error:`` line and empty stdout."""
    cache = []

    def judge(code, out, refused):
        if not cache:
            cache.append(expected())
        want = cache[0]
        if want is None:
            return code == 1 and refused and out == ""
        return code == 0 and out == want

    return judge


def _write(directory, name, text):
    path = Path(directory) / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _labels(rng, n):
    return [f"n{x}" for x in rng.sample(range(100_000, 1_000_000), n)]


def _random_graph(rng, labels, loop_share):
    """Half of all vertex pairs as edges, round(loop_share * n) loops."""
    n = len(labels)
    pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    return ref.make_graph(
        labels, rng.sample(pairs, len(pairs) // 2), rng.sample(labels, round(loop_share * n))
    )


def _det_one(rng, labels, loop_share):
    while True:
        G = _random_graph(rng, labels, loop_share)
        if ref.det(G):
            return G


def _pivot_edges(G):
    return [e for e in ref.edge_list(G) if ref.applicable(G, e)]


def _random_ops(rng, G, count):
    """Applicable sequence alternating pivots and loop rules, pivot first."""
    ops = []
    for i in range(count):
        op = rng.choice(_pivot_edges(G) if i % 2 == 0 else [(v,) for v in sorted(G[2])])
        ops.append(op)
        G = ref.step(G, op)
    return ops, G


def _seq_text(ops):
    return " ".join(f"[{' '.join(op)}]" for op in ops)


def _rewrite(rng, directory):
    reqs = []
    for k in range(4):
        G = _random_graph(rng, _labels(rng, 260), 0.1)
        path = _write(directory, f"rewrite-{k}.txt", ref.serialize(G))
        for u, v in rng.sample(_pivot_edges(G), 2):
            reqs.append(Request("pivot", ["pivot", u, v, path],
                                exact(lambda G=G, u=u, v=v: ref.serialize(ref.pivot(G, u, v)))))
        w = rng.choice(sorted(G[2]))
        reqs.append(Request("lc", ["lc", w, path],
                            exact(lambda G=G, w=w: ref.serialize(ref.loop_rule(G, w)))))
        ops, H = _random_ops(rng, G, 3)
        reqs.append(Request("apply", ["apply", "--seq", _seq_text(ops), path],
                            exact(lambda H=H: ref.serialize(H))))
        if k == 0:
            free = sorted(set(G[0]) - G[2])
            while True:
                u, v = rng.sample(free, 2)
                if v not in G[1][u]:
                    break
            reqs.append(Request("pivot", ["pivot", u, v, path], exact(lambda: None)))
    for k in range(2):
        G = _det_one(rng, _labels(rng, 100), 0.0)
        path = _write(directory, f"reduce-{k}.txt", ref.serialize(G))

        def judge(code, out, refused, G=G):
            return code == 0 and ref.valid_reduced(G, out, G[0])

        reqs.append(Request("reduce-to-empty", ["reduce-to-empty", path], judge))
    return reqs


def _support_set(rng, G, size, nonsingular):
    while True:
        S = rng.sample(G[0], size)
        if ref.det(G, S) == nonsingular:
            return S


def _minors(rng, directory):
    reqs = []
    for k in range(6):
        G = _random_graph(rng, _labels(rng, 14), 0.3)
        path = _write(directory, f"count-{k}.txt", ref.serialize(G))
        reqs.append(Request("count-supports", ["count-supports", path],
                            exact(lambda G=G: f"{ref.count_supports(G)}\n")))
    for k in range(2):
        G = _random_graph(rng, _labels(rng, 9), 0.3)
        path = _write(directory, f"orbit-{k}.txt", ref.serialize(G))
        reqs.append(Request("orbit", ["orbit", path], exact(lambda G=G: ref.orbit_text(G))))
    for k in range(4):
        G = _random_graph(rng, _labels(rng, 48), 0.3)
        path = _write(directory, f"support-{k}.txt", ref.serialize(G))
        # two of the six apply-support sets are singular and must be refused
        for nonsingular in (1, 0) if k < 2 else (1,):
            S = _support_set(rng, G, 12, nonsingular)
            reqs.append(Request(
                "apply-support", ["apply-support", "--set", ",".join(S), path],
                exact(lambda G=G, S=S: None if not ref.det(G, S)
                      else ref.serialize(ref.apply_support(G, S)))))
        for _ in range(2):
            S = rng.sample(G[0], 12)
            reqs.append(Request(
                "applicable", ["applicable", "--set", ",".join(S), path],
                exact(lambda G=G, S=S: "true\n" if ref.det(G, S) else "false\n")))
            S = _support_set(rng, G, 12, 1)
            a = rng.choice(S)

            def judge(code, out, refused, G=G, S=S, a=a):
                if ref.anchored_exists(G, S, a):
                    return code == 0 and ref.valid_reduced(G, out, S, a)
                return code == 1 and refused and out == ""

            reqs.append(Request(
                "reduce", ["reduce", "--set", ",".join(S), "--anchor", a, path], judge))
    return reqs


def _parity(rng, directory):
    reqs = []
    labels = [str(i) for i in range(500)]
    for k in range(2):
        G = _random_graph(rng, labels, 0.0)
        path = _write(directory, f"dense-{k}.g6", ref.graph6(G))
        fmt = ["-f", "graph6", path]
        reqs.append(Request("det", ["det", *fmt], exact(lambda G=G: f"{ref.det(G)}\n")))

        def judge(code, out, refused, G=G):
            if ref.det(G):
                return code == 0 and out == "none\n"
            witness = out.strip().split(",")
            return (code == 0 and out.endswith("\n") and witness == sorted(witness)
                    and ref.is_kernel_witness(G, witness))

        reqs.append(Request("witness", ["witness", *fmt], judge))
        # simple graph of even order: the parity is the determinant
        reqs.append(Request("pm", ["pm", *fmt], exact(lambda G=G: f"{ref.det(G)}\n")))
    for k in range(16):
        H = _random_graph(rng, _labels(rng, 15), 0.3)
        path = _write(directory, f"looped-{k}.txt", ref.serialize(H))
        reqs.append(Request("pm", ["pm", path], exact(lambda H=H: f"{ref.pm_parity(H)}\n")))
    return reqs


_BUILDERS = {"rewrite": _rewrite, "minors": _minors, "parity": _parity}


def build(name, seed, directory):
    """Write the inputs of workload ``name`` for ``seed``; return one pass."""
    return _BUILDERS[name](random.Random(f"{name}:{seed}"), directory)
