"""Summarise parent/change benchmark pairs into one BENCH_*.json file.

Each side is a checkout in which `python3 qctbench/run.py --trace 0` has
written `.qctbench_out/<workload>-seed<N>-trace0.json` records.  A pair
is one workload and seed run on both sides.  For every workload and
every end-to-end metric of the change's BENCHMARK.json, the output gives
both sides' median and quartiles, how many pairs the change won, the
seeds, and each side's commit and `src` tree hash.  As in run.py,
`setup_s` is the median of a run's `setup_samples_s`.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_6.json

Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

_RECORD_RE = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json\Z")


def load_records(checkout: str) -> dict[tuple[str, int], dict]:
    """Untraced run records of a checkout, keyed by (workload, seed)."""
    out = {}
    for path in glob.glob(os.path.join(checkout, ".qctbench_out", "*-trace0.json")):
        m = _RECORD_RE.match(os.path.basename(path))
        if m:
            with open(path, encoding="utf-8") as fh:
                out[(m["workload"], int(m["seed"]))] = json.load(fh)
    return out


def metric_value(record: dict, name: str) -> float:
    if name == "setup_s":
        return statistics.median(record["setup_samples_s"])
    return float(record[name])


def _spread(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """Per workload and metric: both sides' spread and the change's wins."""
    workloads: dict[str, dict] = {}
    for workload in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        metrics = {}
        for metric in end_to_end:
            name = metric["name"]
            before = [metric_value(parent[(workload, s)], name) for s in seeds]
            after = [metric_value(change[(workload, s)], name) for s in seeds]
            higher = metric["better"] == "higher"
            wins = sum((a > b) if higher else (a < b) for b, a in zip(before, after))
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": _spread(before),
                "change": _spread(after),
                "wins": wins,
                "pairs": len(seeds),
            }
        workloads[workload] = {"seeds": seeds, "metrics": metrics}
    return workloads


def _git(checkout: str, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def describe(checkout: str) -> dict:
    return {"commit": _git(checkout, "rev-parse", "HEAD"),
            "src_tree": _git(checkout, "rev-parse", "HEAD:src")}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--out", required=True, help="BENCH_*.json file to write")
    args = p.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    workloads = summarise(load_records(args.parent), load_records(args.change), end_to_end)
    if not workloads:
        print("error: no workload and seed was run on both sides", file=sys.stderr)
        return 1
    out = {"parent": describe(args.parent), "change": describe(args.change), "workloads": workloads}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
