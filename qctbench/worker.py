"""One benchmark process: set up a workload, then time whole rounds of ops.

Started by run.py, one fresh interpreter per run, never two at once.
Each op calls `qct.cli.main(argv)` in-process with stdout and stderr
captured.  Between ops, outside the timed span, the output is checked
and the garbage collector runs.  The last line of stdout is a JSON
object for run.py.

The host's speed drifts under a run: a plain Python loop runs up to
2x slower for seconds at a time.  `ops_per_s` is the rate over every
op of the run.  `op_ms_p50` is the median, over the op kinds of a
round, of each kind's fastest repetition (best of N, as `timeit`
reports), which those slow spells reach less than the median of every
op, kept as `all_op_ms_p50`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from qct import cli  # noqa: E402


def run_op(op: workloads.Op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        error = None
    except (Exception, SystemExit) as exc:  # a traceback or an argparse exit: the op failed
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"label": op.label, "wall": wall, "cpu": cpu, "rc": rc, "out": out.getvalue(),
            "error": error}


def verify(op: workloads.Op, rec: dict, verified: dict) -> str | None:
    """None if the op's output is right.  An output already verified for
    the same op in this run is accepted by equality."""
    if rec["rc"] != op.expect_code:
        return f"exit code {rec['rc']}, expected {op.expect_code}"
    if verified.get(id(op)) == rec["out"]:
        return None
    try:
        reason = op.check(rec["out"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    if reason is None:
        verified[id(op)] = rec["out"]
    return reason


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (40+ ops)."""
    n = len(walls)
    if n < 40:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "ms": sorted(walls)[n - 11] * 1000.0}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.time() at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    try:
        return _run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def _run(args) -> int:
    ops = workloads.build(args.workload, args.seed, args.workdir)
    verified: dict = {}
    problems = []
    warm = run_op(ops[0])
    reason = warm["error"] or verify(ops[0], warm, verified)
    if reason:
        problems.append(f"warm-up {ops[0].label}: {reason}")
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        spans.install(tracer)
    records = []
    best = [math.inf] * len(ops)
    busy = 0.0
    while busy < args.seconds:
        for i, op in enumerate(ops):
            gc.collect()
            rec = run_op(op)
            busy += rec["wall"]
            if rec["error"]:
                problems.append(f"{op.label}: {rec['error']}")
            else:
                reason = verify(op, rec, verified)
                if reason:
                    problems.append(f"{op.label}: {reason}")
            del rec["out"]
            best[i] = min(best[i], rec["wall"])
            if op.trials:
                rec["trials"] = op.trials if rec["rc"] == 1 else 1
            records.append(rec)

    walls = [r["wall"] for r in records]
    result = {
        "setup_s": setup_s,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"]),
        "problems": problems[:20],
        "ops_per_s": len(records) / busy,
        "op_ms_p50": statistics.median(best) * 1000.0,
        "all_op_ms_p50": statistics.median(walls) * 1000.0,
        "op_ms_tail": tail(walls),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_over_wall": sum(r["cpu"] for r in records) / busy,
        "ops": [[r["label"], r["wall"] * 1000.0, r["cpu"] * 1000.0, r["rc"]] for r in records],
    }
    searches = [r for r in records if "trials" in r]
    if searches:
        result["trials_per_s"] = sum(r["trials"] for r in searches) / sum(r["wall"] for r in searches)
    if tracer:
        result["per_layer"] = tracer.metrics(len(records))
        result["traced_op_ms"] = busy * 1000.0 / len(records)
        result["self_sum_ms"] = tracer.self_total_s() * 1000.0 / len(records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
