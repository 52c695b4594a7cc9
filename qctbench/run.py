"""qct benchmark: one workload, one seed, one result line.

    python3 qctbench/run.py --workload eval-refute --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the directory holding src/qct).
With --trace 0 the last line of stdout carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a separate traced run.
A run's full record, every op's wall and CPU time included, is written to
.qctbench_out/.  See README.md in this directory for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("eval-refute", "compile-large")
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes; the median is reported
RUN_LIMIT_S = 170.0  # every child together must end within this


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QCT_N_MAX", None)
    env.update(
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker process to its end and return its result line."""
    workdir = os.path.join(ROOT, ".qctbench_out", f"work-{os.getpid()}")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir, "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:  # a killed worker leaves its model files behind
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "qct", "cli.py")):
        print(f"error: no qct source under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [] if args.trace else [
            spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)
        ]
        res = spawn(args, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [q for s in setups for q in s["problems"]] + res["problems"]
    for q in problems:
        print(f"check failed: {q}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": "count" if name.endswith(("_calls", "_emitted")) else "ms"}
            for name, value in res["per_layer"].items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median([s["setup_s"] for s in setups] + [res["setup_s"]]),
                        "unit": "s"},
            "ops_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": res["op_ms_p50"], "unit": "ms"},
            "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"},
        }

    out_dir = os.path.join(ROOT, ".qctbench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = dict(res, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=[s["setup_s"] for s in setups] + [res["setup_s"]])
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    summary = {k: res[k] for k in ("all_op_ms_p50", "op_ms_tail", "cpu_over_wall", "trials_per_s",
                                   "traced_op_ms", "self_sum_ms") if k in res}
    print(json.dumps({"detail": summary, "record": os.path.relpath(path, ROOT)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
