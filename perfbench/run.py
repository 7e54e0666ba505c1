"""absorb-kit benchmark runner.

    python3 perfbench/run.py --workload sts-bulk --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: absorbkit is imported from ./src and
nowhere else.  Each run is one process and one closed-loop client: it sets
up (imports absorbkit, generates the workload's op list from --seed), then
runs the op list in passes, one op at a time, starting another pass only
while a pass of the last one's length still fits in --seconds.  Every answer
is re-verified.  Every time metric is in reference seconds: a measured time
scaled by how fast the host ran a fixed calibration kernel just before it
(see perfbench/README.md, "Noise").  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics of the first traced pass
and the tracing overhead.  The last line of stdout is the JSON result; the
line before it holds the run's metadata and every failed op with its
reason.

Scratch files go to ./.perfbench/ (inputs, outputs, and the spans of traced
runs).  See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

import tracing
import workloads

MODULES = ("hypercore", "divide", "exactcover", "integral", "gadgets", "omni",
           "embed", "fraclp", "nibble", "pipeline", "cli")
SETUP_REPEATS = 11
REF_CAL_S = 0.0025   # calibrate() on the reference machine (2-core VM, fast spells)
TAIL_BEYOND = 10     # op_tail_s: the highest percentile with >= 10 ops beyond it
SMOKE_OP = {"sts-bulk": "n=61", "sts-lp": "K_4-e", "certify-cli": "oracle"}
END_TO_END_UNITS = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class Deadline(BaseException):
    """A per-op deadline overrun.  A BaseException, so that the program's
    own `except Exception` handlers (omni.verify_omni has one) cannot
    swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def import_absorbkit(src: str):
    """Import absorbkit afresh from `src`; returns the package."""
    for name in [k for k in sys.modules if k == "absorbkit" or k.startswith("absorbkit.")]:
        del sys.modules[name]
    ak = importlib.import_module("absorbkit")
    for mod in MODULES:
        importlib.import_module(f"absorbkit.{mod}")
    if os.path.dirname(os.path.abspath(ak.__file__)) != os.path.join(src, "absorbkit"):
        raise ImportError(f"absorbkit was imported from {ak.__file__}, not {src}")
    return ak


def calibrate() -> float:
    """The factor from this moment's seconds to reference seconds.

    The host slows the whole VM in spells of seconds to minutes, by up to
    1.7x, and reports no steal time.  A fixed kernel of the work absorbkit's
    ops are made of (rational arithmetic, tuple-keyed dict updates; about
    2.5 ms, best of two) is timed just before each measurement; the
    measurement is scaled by REF_CAL_S over the kernel's time.  The kernel
    is benchmark code, so a change to the program cannot move it; it runs
    with the cyclic collector off, so garbage left by the program cannot
    either.  Its own garbage is acyclic and freed as it goes."""
    best = float("inf")
    gc.disable()
    for _ in range(2):
        t0 = time.perf_counter()
        acc = Fraction(0)
        counts: dict = {}
        for i in range(1, 700):
            acc += Fraction(i % 13 + 1, i % 11 + 2)
            acc -= acc.numerator // acc.denominator
            key = (i % 31, i % 17, i % 5)
            counts[key] = counts.get(key, 0) + 1
        best = min(best, time.perf_counter() - t0)
    gc.enable()
    return REF_CAL_S / best


def set_up(workload: str, seed: int, src: str, work: str):
    """Import absorbkit and generate the inputs SETUP_REPEATS times; returns
    the last (modules, ops) and the median set-up time in reference
    seconds.  After the first repeat the stdlib modules absorbkit uses stay
    loaded."""
    times = []
    for _ in range(SETUP_REPEATS):
        for sub in ("in", "out"):
            shutil.rmtree(os.path.join(work, sub), ignore_errors=True)
        scale = calibrate()
        t0 = time.perf_counter()
        M = workloads.Mods(import_absorbkit(src))
        ops = workloads.WORKLOADS[workload](M, seed, work)
        times.append((time.perf_counter() - t0) * scale)
    return M, ops, statistics.median(times)


def run_op(op) -> tuple:
    """(latency_s, scale, None | (kind, reason), escaped): the measured
    latency and its factor to reference seconds.  The deadline is in
    reference seconds too, and an overrun's latency is the time to its
    signal.  Each op starts on a collected heap, as a fresh CLI process
    would: left-over cyclic garbage of earlier ops would otherwise be
    collected inside a later op and inflate the peak RSS."""
    gc.collect()
    scale = calibrate()
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s / scale)
            value = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return (time.perf_counter() - t0, scale,
                ("fail", f"deadline of {op.deadline_s:g} s overrun"), True)
    except Exception as exc:   # noqa: BLE001 - an escaped exception is a failed op
        return (time.perf_counter() - t0, scale,
                ("fail", f"{type(exc).__name__}: {exc}"[:200]), True)
    latency = time.perf_counter() - t0
    try:
        problem = op.check(value)
    except Exception as exc:   # noqa: BLE001 - an unreadable answer is a wrong one
        problem = ("wrong", f"answer check raised {type(exc).__name__}: {exc}"[:200])
    return latency, scale, problem, False


def run_pass(M, ops, work: str, tracer=None) -> dict:
    """One closed-loop pass over the op list.  Each pass starts as a fresh
    CLI session would: the integral solver's per-size cache is emptied."""
    cache = getattr(M.integral, "_triangularization", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    latencies, scales, failures = [], [], []
    mismatch = 0
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        latency, scale, problem, escaped = run_op(op)
        latencies.append(latency)
        scales.append(scale)
        if problem is not None:
            failures.append({"op": op.label, "kind": problem[0], "reason": problem[1]})
            # an escaped exception would end the console script with exit 1
            mismatch += op.cli and (escaped or problem[1].startswith("exit "))
    return {"wall_s": time.perf_counter() - t0, "latencies": latencies,
            "scales": scales, "failures": failures, "exit_code_mismatch": mismatch}


def op_latencies(passes: list, ops: int) -> list:
    """Each op's median latency over the passes, in reference seconds."""
    return [statistics.median(p["latencies"][i] * p["scales"][i] for p in passes)
            for i in range(ops)]


def tail_index(ops: int) -> tuple:
    """Index into the ops' sorted latencies, and the percentile, of
    op_tail_s: the highest percentile with TAIL_BEYOND ops beyond it, or
    the slowest op when the list is no longer than that."""
    if ops <= TAIL_BEYOND:
        return ops - 1, 100.0
    return ops - TAIL_BEYOND - 1, 100.0 * (ops - TAIL_BEYOND) / ops


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "absorbkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str):
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run a single op of the workload, once (self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "absorbkit", "__init__.py")):
        print(f"perfbench: no absorbkit sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    work = os.path.join(root, ".perfbench")
    signal.signal(signal.SIGALRM, _on_alarm)

    M, ops, setup_s = set_up(args.workload, args.seed, src, work)
    if args.smoke:
        ops = [next(op for op in ops if SMOKE_OP[args.workload] in op.label)]

    passes, traced = [], []
    tracer = None
    start = time.perf_counter()
    while True:
        passes.append(run_pass(M, ops, work))
        if args.trace:
            # the same pass traced; the per-layer metrics are the first
            # traced pass's, the overhead compares every traced pass with
            # the untraced ones
            t = tracing.Tracer()
            t.install()
            try:
                traced.append(run_pass(M, ops, work, t))
            finally:
                t.uninstall()
            tracer = tracer or t
        elapsed = time.perf_counter() - start
        last = passes[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0.0)
        if args.smoke or elapsed + last > args.seconds:
            break

    lat = op_latencies(passes, len(ops))
    passes += traced
    failures = [{**f, "pass": i} for i, p in enumerate(passes) for f in p["failures"]]
    attempted = len(ops) * len(passes)
    failed = len(failures)
    idx, tail_pct = tail_index(len(ops))
    if args.trace:
        first = traced[0]
        values = tracer.layer_metrics(
            first["exit_code_mismatch"],
            len(first["failures"]) / len(first["latencies"]),
            sum(op_latencies(traced, len(ops))) / sum(lat) - 1)
        metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]}
                   for k, v in values.items()}
    else:
        values = {
            "wall_s": sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": sorted(lat)[idx],
            "ok_ratio": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit(root),
        "source_sha256": source_digest(src), "passes": len(passes),
        "traced_passes": len(traced),
        "ops_per_pass": len(ops), "pass_wall_s": [p["wall_s"] for p in passes],
        "op_samples": attempted, "op_tail_percentile": round(tail_pct, 2),
        "fail_ratio": failed / attempted, "failures": failures,
        "ref_cal_s": REF_CAL_S,
        # per op: its measured latencies and their factors to reference seconds
        "op_latency_s": [[op.label, [round(p["latencies"][i], 4) for p in passes],
                          [round(p["scales"][i], 4) for p in passes]]
                         for i, op in enumerate(ops)],
    }
    if tracer is not None:
        os.makedirs(os.path.join(work, "spans"), exist_ok=True)
        path = os.path.join(work, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(path, meta)
        meta["spans_file"] = os.path.relpath(path, root)
    for f in failures:
        print(f"FAILED [{f['kind']}] pass {f['pass']}: {f['op']}: {f['reason']}")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not any(f["kind"] == "wrong" for f in failures),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
