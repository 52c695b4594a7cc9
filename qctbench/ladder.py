"""One-off reference figures: an eval ladder and per-gate-kind cost.

    python3 qctbench/ladder.py [--max-n 21]

For each odd n from 13 to --max-n, one fresh process runs `qct eval` on
a balanced `and` tree of (n + 1) / 2 distinct atoms and reports wall time
and peak RSS.  Then one process times qcore.apply_gate for each gate kind
over a whole register.  Peak RSS grows with the tree height, because
eval keeps every level's state; at n = 23 it is several GiB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

EVAL_CHILD = r"""
import json, resource, sys, time, io, contextlib
sys.path.insert(0, sys.argv[1])
from qct import cli
n = int(sys.argv[2]); model = sys.argv[3]
names = [f"p{i:02d}" for i in range((n + 1) // 2)]
def bal(xs):
    if len(xs) == 1:
        return xs[0]
    h = (len(xs) + 1) // 2
    return f"({bal(xs[:h])} and {bal(xs[h:])})"
with open(model, "w") as fh:
    json.dump({"atoms": {k: [[0.6, 0.0], [0.0, 0.8]] for k in names}}, fh)
t0 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["eval", bal(names), "--model", model])
wall = time.perf_counter() - t0
print(json.dumps({"n": n, "rc": rc, "eval_s": wall,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

GATE_CHILD = r"""
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from qct import qcore
n = int(sys.argv[2])
rng = np.random.default_rng(0)
v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
psi = qcore.QRegister(n, v / np.linalg.norm(v))
half = (n - 1) // 2
gates = {"NOT": qcore.Not(n), "SNOT": qcore.SqrtNot(n), "T": qcore.Toffoli(half, n - 1 - half)}
out = {"n": n}
for name, gate in gates.items():
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        qcore.apply_gate(psi, gate)
        times.append(time.perf_counter() - t0)
    out[name + "_ms"] = statistics.median(times) * 1000
times = []
for _ in range(5):
    t0 = time.perf_counter()
    qcore.QRegister(n, psi.amps)
    times.append(time.perf_counter() - t0)
out["QRegister_ms"] = statistics.median(times) * 1000
print(json.dumps(out))
"""


def child(code: str, *args: str) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"), *args],
                          env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-n", type=int, default=21, choices=range(13, 25, 2))
    args = p.parse_args()
    out_dir = os.path.join(ROOT, ".qctbench_out")
    os.makedirs(out_dir, exist_ok=True)
    model = os.path.join(out_dir, f"ladder-model-{os.getpid()}.json")
    try:
        for n in range(13, args.max_n + 1, 2):
            print(json.dumps(child(EVAL_CHILD, str(n), model)), flush=True)
    finally:
        if os.path.exists(model):
            os.remove(model)
    print(json.dumps(child(GATE_CHILD, str(args.max_n))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
