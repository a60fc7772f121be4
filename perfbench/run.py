"""pivotgraph benchmark: seeded CLI workloads, checked against reference code.

Run one workload (prints an info line, then the result as the last line):

    python3 perfbench/run.py --workload rewrite --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run is a closed loop of real ``pivotgraph`` processes,
one request in flight, and reports the end-to-end metrics.  With
``--trace 1`` it replays the same request stream in-process with timing
wrappers around each module's public functions and reports per-layer
metrics.  Compare two sets of saved outputs (one file per run):

    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# a request running longer than this is killed and counts as failed
REQUEST_LIMIT_S = 10.0
# no request starts after this much time since the run began
RUN_BUDGET_S = 140.0
# set-up repeats in one run; setup_s is their median
SETUP_REPEATS = 3
# the tail latency is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
# a calibration child runs at the start and end of each pass and before any
# request that starts this long after the previous calibration
CALIBRATION_INTERVAL_S = 0.6
# calibration wall and CPU time that times are scaled to (about its times
# on a 2-core Intel Xeon with Python 3.11)
CALIBRATION_REF_S = 0.13
CALIBRATION_REF_CPU_S = 0.12
CALIBRATION = ("import sys; sys.path.insert(0, {!r}); import reference; "
               "reference.calibration_task()").format(str(HERE))


class Reply:
    """Outcome of one request; ``judge`` keeps the verdict and drops stdout."""

    __slots__ = ("request", "code", "out", "err", "latency", "cpu", "maxrss_kb", "passed",
                 "scale", "cpu_scale")

    def __init__(self, request, code, out, err, latency, cpu=0.0, maxrss_kb=0):
        self.request = request
        self.code = code
        self.out = out
        self.err = err
        self.latency = latency
        self.cpu = cpu
        self.maxrss_kb = maxrss_kb
        self.passed = None
        self.scale = self.cpu_scale = 1.0

    def judge(self):
        self.passed = self.code is not None and self.request.check(self.code, self.out, self.err)
        self.out = None
        return self.passed

    def describe(self):
        status = "timeout" if self.code is None else f"exit {self.code}"
        args = " ".join(self.request.args[:-1])
        return f"{args}: {status}, {self.err.strip()[:120]!r}"


def child_env(work):
    """Environment of a CLI child: ROOT/src first on the path, and bytecode
    cached under the run's work directory (whatever the caller's setting),
    so that a request pays for imports but not for compiling them."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


def check_source(env):
    """Exit unless a child interpreter imports pivotgraph from ROOT/src."""
    want = (SRC / "pivotgraph" / "__init__.py").resolve()
    if not want.is_file():
        sys.exit(f"error: {want} not found; run from a checkout of the repository")
    found = subprocess.run(
        [sys.executable, "-c", "import pivotgraph; print(pivotgraph.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if found.returncode != 0 or Path(found.stdout.strip()).resolve() != want:
        sys.exit(f"error: pivotgraph resolves to {found.stdout.strip() or found.stderr!r}, "
                 f"not {want}")


def spawn(argv, env, work):
    """Run one child to completion; kill it past REQUEST_LIMIT_S.

    Returns (exit code or None on timeout, stdout, stderr, latency, CPU
    seconds, peak RSS in KiB).
    """
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            finished, _, _ = select.select([pidfd], [], [], REQUEST_LIMIT_S)
            if not finished:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode if finished else None,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            latency, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def request(req, env, work):
    return Reply(req, *spawn(["-m", "pivotgraph.cli", *req.args], env, work))


def calibrate(env, work):
    """(wall, CPU) seconds of one calibration child; it does not use the package."""
    code, _, err, latency, cpu, _ = spawn(["-c", CALIBRATION], env, work)
    if code != 0:
        sys.exit(f"error: calibration failed: {err.strip()[-200:]}")
    return latency, cpu


def setup(name, seed, work, env, warm):
    """Write the inputs and, with ``warm``, make one call per command kind."""
    inputs = work / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    stream = workloads.build(name, seed, inputs)
    if warm:
        kinds = {}
        for req in stream:
            kinds.setdefault(req.kind, req)
        for req in kinds.values():
            request(req, env, work)
    return stream


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_stream(stream, seconds, started, env, work):
    """Closed loop: repeat whole passes of the stream for ``seconds``.

    A new pass starts only while one more pass of the last one's length
    fits.  Calibration children run between requests; each reply's
    ``scale`` is CALIBRATION_REF_S over the mean wall time of the
    calibrations just before and just after it, and its ``cpu_scale`` the
    same for CPU time.  Replies are judged between passes.
    """
    passes = []
    measured = 0.0
    while True:
        replies = []
        t0 = time.perf_counter()
        last = calibrate(env, work)
        pending, since = [], time.perf_counter()
        for req in stream:
            if time.perf_counter() - started > RUN_BUDGET_S:
                break
            if pending and time.perf_counter() - since > CALIBRATION_INTERVAL_S:
                last = _settle(pending, last, calibrate(env, work))
                since = time.perf_counter()
            pending.append(request(req, env, work))
            replies.append(pending[-1])
        _settle(pending, last, calibrate(env, work))
        spent = time.perf_counter() - t0
        for reply in replies:
            reply.judge()
        passes.append(replies)
        measured += spent
        if len(replies) < len(stream) or measured + spent > seconds:
            return passes


def _settle(pending, before, after):
    scale = 2 * CALIBRATION_REF_S / (before[0] + after[0])
    cpu_scale = 2 * CALIBRATION_REF_CPU_S / (before[1] + after[1])
    for reply in pending:
        reply.scale, reply.cpu_scale = scale, cpu_scale
    pending.clear()
    return after


def end_to_end(name, seed, seconds, work, env, started):
    """Untraced closed-loop run; every time is scaled by calibration.

    Calibration children time a fixed task from the benchmark's own code
    between requests.  A request's times are multiplied by its ``scale``,
    so that a slower or busier machine moves the figures much less than a
    slower program does.  Each set-up is scaled by the calibrations just
    before and after it.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate(env, work)
        t0 = time.perf_counter()
        stream = setup(name, seed, work, env, warm=True)
        spent = time.perf_counter() - t0
        setups.append(spent * 2 * CALIBRATION_REF_S / (before[0] + calibrate(env, work)[0]))
    passes = run_stream(stream, seconds, started, env, work)
    replies = [r for rs in passes for r in rs]
    latencies = [r.latency * r.scale for r in replies]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(r.latency * r.scale for r in rs) for rs in passes),
        "cpu_s": statistics.median(sum(r.cpu * r.cpu_scale for r in rs) for rs in passes),
        "lat_p50_s": statistics.median(latencies),
        "lat_tail_s": tail_s,
        "peak_rss_mb": max(r.maxrss_kb for r in replies) / 1024.0,
    }
    info = {
        "passes": len(passes),
        "requests_per_pass": len(stream),
        "tail_percentile": round(tail_pct, 2),
        "latency_samples": len(latencies),
        "raw_wall_s": [round(sum(r.latency for r in rs), 4) for rs in passes],
        "mean_scale": round(statistics.fmean(r.scale for r in replies), 4),
    }
    return replies, metrics, info


def traced(name, seed, seconds, work, env, started):
    import trace_layers

    return trace_layers.traced(
        seconds, work,
        make_stream=lambda: setup(name, seed, work, env, warm=False),
        spawn=lambda req: request(req, env, work),
        limit=REQUEST_LIMIT_S,
        deadline=started + RUN_BUDGET_S,
        reply_type=Reply,
    )


def environment():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit()}


def git_commit():
    """HEAD of ROOT read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(args, spec):
    started = time.perf_counter()
    work = HERE / ".work" / f"run-{os.getpid()}"
    env = child_env(work)
    try:
        work.mkdir(parents=True, exist_ok=True)
        check_source(env)
        if args.trace:
            replies, values, info = traced(
                args.workload, args.seed, args.seconds, work, env, started)
        else:
            replies, values, info = end_to_end(
                args.workload, args.seed, args.seconds, work, env, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failed = [r for r in replies if not r.passed]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    head = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **environment(), **info,
            "fail_ratio": len(failed) / len(replies),
            "failures": [r.describe() for r in failed[:5]]}
    print(json.dumps(head))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(replies),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="directories or files of saved run outputs")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        import compare

        return compare.main(args.compare[0], args.compare[1], spec)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    run(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
