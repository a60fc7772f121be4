"""Traced in-process replay: per-layer calls, self time and counters.

The request stream of a workload is replayed through ``pivotgraph.cli.main``
in this process.  Untraced and traced passes alternate; a traced pass first
swaps each public function of the package's modules for a timing wrapper
(in every module namespace that holds it) and restores the originals after.
Nothing under ``src/`` changes.

A call's self time is its duration minus the time of the wrapped calls it
made, so a layer's self time is the time spent in its own code, accessors
and private helpers included.  An exception is counted once, against the
innermost wrapped call it leaves.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import io
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import reference as ref
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("cli", "formats", "graph", "gf2", "matchings", "sequences")
STARTUP_SAMPLES = 11


class RequestTimeout(BaseException):
    """Raised by the alarm when an in-process request overruns its limit."""


def load_package(work):
    """Import pivotgraph from SRC, refusing any other copy."""
    sys.pycache_prefix = str(work / "pycache")
    sys.path.insert(0, str(SRC))
    import pivotgraph
    import pivotgraph.cli

    want = (SRC / "pivotgraph" / "__init__.py").resolve()
    if Path(pivotgraph.__file__).resolve() != want:
        sys.exit(f"error: pivotgraph resolves to {pivotgraph.__file__}, not {want}")
    return pivotgraph


class Tracer:
    """Timing wrappers around the package's public functions and methods."""

    def __init__(self, pg):
        self.pg = pg
        self.modules = [pg, pg.cli, pg.formats, pg.graph, pg.gf2, pg.matchings, pg.sequences]
        self.calls, self.self_s = Counter(), Counter()
        self.errors, self.counts = Counter(), Counter()
        self._stack = []
        self._last_error = None
        self.targets = self._targets()

    def reset(self):
        # cleared in place: the wrappers and hooks hold these objects
        for counter in (self.calls, self.self_s, self.errors, self.counts):
            counter.clear()
        self._stack.clear()
        self._last_error = None

    def _targets(self):
        """(metric name, owner, attribute, hook) for every wrapped callable."""
        pg = self.pg
        hooks = self._hooks()
        out = [("cli.main", pg.cli, "main", None)]
        for layer in ("formats", "graph", "matchings", "sequences"):
            mod = getattr(pg, layer)
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                # classes are handled below; a generator would be timed
                # only until it is created
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    out.append((f"{layer}.{attr}", mod, attr, hooks.get(attr)))
        Graph = pg.graph.Graph
        out.append(("graph.Graph", Graph, "__init__", None))
        for attr in ("adjacency_matrix", "induced_subgraph"):
            out.append((f"graph.{attr}", Graph, attr, None))
        for attr in ("principal_submatrix", "det", "kernel_witness", "ppt"):
            out.append((f"gf2.{attr}", pg.gf2.Gf2Matrix, attr, hooks.get(attr)))
        return out

    def _hooks(self):
        counts = self.counts

        def parse_graph(call, args):
            counts["formats.parse_graph.bytes_in"] += len(args[0])
            return call()

        def serialize_graph(call, args):
            text = call()
            counts["formats.serialize_graph.bytes_out"] += len(text)
            return text

        def det(call, args):
            value = call()
            counts["gf2.det.nonsingular"] += value
            return value

        def orbit(call, args):
            before = self.calls["sequences.apply_support"]
            members = call()
            counts["sequences.orbit.members"] += len(members)
            counts["sequences.orbit.supports"] += self.calls["sequences.apply_support"] - before
            return members

        return {"parse_graph": parse_graph, "serialize_graph": serialize_graph,
                "det": det, "orbit": orbit}

    def _wrap(self, name, fn, hook):
        layer = name.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(lambda: fn(*args, **kwargs), args)
            except BaseException as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                spent = clock() - start
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += spent - children
                if stack:
                    stack[-1] += spent

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for name, owner, attr, hook in self.targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            # rebind the function in every module that imported it by name
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self):
        out = {}
        for name, _, _, _ in self.targets:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + "."))
            out[f"{layer}.errors"] = self.errors[layer]
        out["formats.parse_graph.bytes_in"] = self.counts["formats.parse_graph.bytes_in"]
        out["formats.serialize_graph.bytes_out"] = self.counts["formats.serialize_graph.bytes_out"]
        out["gf2.det.nonsingular_ratio"] = _ratio(
            self.counts["gf2.det.nonsingular"], self.calls["gf2.det"])
        out["sequences.orbit.unique_ratio"] = _ratio(
            self.counts["sequences.orbit.members"], self.counts["sequences.orbit.supports"])
        return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _on_alarm(signum, frame):
    raise RequestTimeout()


def replay(cli, stream, limit, deadline, reply_type):
    """One in-process pass, cut short at ``deadline``; returns (wall, replies)."""
    replies = []
    gc.collect()
    start = time.perf_counter()
    for req in stream:
        if time.perf_counter() > deadline:
            break
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(req.args))
        except SystemExit as exc:
            code = exc.code
        except RequestTimeout:
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        replies.append(reply_type(req, code, out.getvalue(), err.getvalue(),
                                  time.perf_counter() - t0))
    wall = time.perf_counter() - start
    for reply in replies:
        reply.judge()
    return wall, replies


def traced(seconds, work, make_stream, spawn, limit, deadline, reply_type):
    """Per-layer metrics of one workload; returns (replies, metrics, info).

    ``spawn`` runs a request as a CLI process; ``reply_type(request, code,
    stdout, stderr, latency)`` records an in-process reply.  No request
    starts after ``deadline`` (a ``time.perf_counter`` value).
    """
    stream = make_stream()
    trivial = workloads.Request(
        "overlap", ["overlap", "--word", "1 2 1 2"],
        workloads.exact(lambda: ref.serialize(ref.make_graph(["1", "2"], [("1", "2")]))),
    )
    startup = [spawn(trivial) for _ in range(STARTUP_SAMPLES)]
    for reply in startup:
        reply.judge()
    replies = list(startup)

    pg = load_package(work)
    tracer = Tracer(pg)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        wall, first = replay(pg.cli, stream, limit, deadline, reply_type)
        replies += first
        rounds = max(2, int(seconds / (2 * wall)))
        plain, traced_walls, per_pass = [], [], []
        for _ in range(rounds):
            w, rs = replay(pg.cli, stream, limit, deadline, reply_type)
            plain.append(w)
            replies += rs
            tracer.reset()
            with tracer.installed():
                w, rs = replay(pg.cli, stream, limit, deadline, reply_type)
            traced_walls.append(w)
            replies += rs
            per_pass.append(tracer.metrics())
    finally:
        signal.signal(signal.SIGALRM, previous)

    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["cli.startup_s"] = statistics.median(r.latency for r in startup)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    info = {
        "rounds": rounds,
        "requests_per_pass": len(stream),
        "untraced_pass_s": statistics.median(plain),
        "traced_pass_s": statistics.median(traced_walls),
        "layer_share": {layer: round(metrics[f"{layer}.self_s"] / total, 4) for layer in LAYERS},
    }
    return replies, metrics, info
