"""Fast self-test of the benchmark's oracle, checkers and tracer.

    python3 qctbench/selftest.py

Runs in a few seconds from the root of a source checkout and exits 0
when every check holds.  Each test_* function is independent.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qct import cli  # noqa: E402

H = 2 ** -0.5
BALANCED = {"p": (complex(H), complex(H))}


def qct(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


P = ("atom", "p")
Q = ("atom", "q")


def test_hand_values() -> None:
    assert math.isclose(oracle.prob(oracle.desugar(("and", P, P)), BALANCED), 0.25, abs_tol=1e-15)
    assert math.isclose(oracle.prob(oracle.desugar(("or", P, P)), BALANCED), 0.75, abs_tol=1e-15)
    assert oracle.prob(oracle.desugar(("not", ("f",))), {}) == 1.0
    # snot of any conjunction is balanced
    rng = random.Random(5)
    for _ in range(50):
        model = {"p": workloads.random_qubit(rng), "q": workloads.random_qubit(rng)}
        assert math.isclose(oracle.prob(oracle.desugar(("snot", ("and", P, ("not", Q)))), model), 0.5)
    # snot twice is not
    model = {"p": workloads.random_qubit(rng)}
    assert math.isclose(oracle.prob(oracle.desugar(("snot", ("snot", P))), model),
                        oracle.prob(oracle.desugar(("not", P)), model))


def test_structure_of_known_sentence() -> None:
    # README: qct compile "p and not p" -> n: 3, U1: T(1,1), U2: I ⊗ NOT(1) ⊗ I
    st = oracle.Structure(oracle.desugar(("and", P, ("not", P))))
    assert (st.n, st.height) == (3, 3)
    assert st.layers == [[("T", 1, 1)], [("I", 1, 0), ("NOT", 1, 0), ("I", 1, 0)]]
    assert st.counts == {"I": 2, "NOT": 1, "SNOT": 0, "T": 1}
    # `or` adds three negations, one conjunction and one f
    st = oracle.Structure(oracle.desugar(("or", P, Q)))
    assert st.n == 3 and st.counts["NOT"] == 3 and st.counts["T"] == 1


def test_oracle_matches_qct_on_small_sentences() -> None:
    rng = random.Random(7)
    names = ["p", "q", "r"]
    for i in range(20):
        sh = workloads.shape(3 + i % 3, ("and", "or"), frozenset({1, 2}))
        tree = workloads.instantiate(rng, sh, lambda: ("atom", rng.choice(names)))
        model = {k: workloads.random_qubit(rng) for k in names}
        path = os.path.join(WORK, "m.json")
        workloads.write_model(path, model)
        rc, out = qct(["eval", workloads.render(tree), "--model", path, "--trace", "--json"])
        c = oracle.desugar(tree)
        assert rc == 0
        assert oracle.check_eval_trace_json(out, c, model, oracle.atcompl(c)) is None, out


def test_checkers_flag_wrong_output() -> None:
    c = oracle.desugar(("and", P, P))
    path = os.path.join(WORK, "bal.json")
    workloads.write_model(path, BALANCED)
    rc, out = qct(["eval", "p and p", "--model", path])
    assert rc == 0 and oracle.check_eval_text(out, c, BALANCED) is None
    assert oracle.check_eval_text(out.replace("Prob: 0.25", "Prob: 0.2500001"), c, BALANCED)
    assert oracle.check_eval_text(out.replace("True: no", "True: yes"), c, BALANCED)

    rc, out = qct(["eval", "p and p", "--model", path, "--trace", "--json"])
    data = json.loads(out)
    assert oracle.check_eval_trace_json(out, c, BALANCED, 3) is None
    data["trace"][0]["prob"] += 1e-6
    assert oracle.check_eval_trace_json(json.dumps(data), c, BALANCED, 3)

    lem = ("or", P, ("not", P))
    rc, out = qct(["refute", workloads.render(lem), "--delta", "0.1", "--trials", "5"])
    assert rc == 0 and oracle.check_countermodel(out, oracle.desugar(lem), {"p"}, 0.1) is None
    lines = out.splitlines()
    definite = json.dumps({"atoms": {"p": [[0.0, 0.0], [1.0, 0.0]]}})
    assert oracle.check_countermodel("\n".join([lines[0], definite, lines[2]]), oracle.desugar(lem), {"p"}, 0.0)
    balanced = json.dumps({"atoms": {"p": [[H, 0.0], [H, 0.0]]}})
    assert oracle.check_countermodel("\n".join([lines[0], balanced, lines[2]]), oracle.desugar(lem), {"p"}, 0.1)
    assert oracle.check_exhausted("no countermodel in 10 trials\n", 11)

    st = oracle.Structure(oracle.desugar(("and", P, ("not", P))))
    rc, out = qct(["compile", "p and not p"])
    assert oracle.check_compile_text(out, st) is None
    assert oracle.check_compile_text(out.replace("NOT(1)", "SNOT(1)"), st)
    assert oracle.check_compile_text(out.replace("T(1,1)", "T(1,2)"), st)
    rc, out = qct(["compile", "p and not p", "--json"])
    assert oracle.check_compile_json(out, st) is None
    assert oracle.check_compile_json(out.replace('"n": 3', '"n": 4'), st)
    rc, out = qct(["tree", "p and not p"])
    assert oracle.check_tree_text(out, st) is None
    assert oracle.check_tree_text(out.replace("Height: 3", "Height: 4"), st)


def tiny_rounds(rng: random.Random) -> list[workloads.Op]:
    return (
        workloads.eval_ops(rng, WORK, workloads.shape(3, ("and", "or"), frozenset({1})), 1)
        + workloads.refute_ops(rng, trials=5)
        + workloads.compile_ops(rng, chains=(6,), balanced=(5,))
    )


def test_tiny_workloads_pass_their_checks() -> None:
    for seed in (1, 2):
        for op in tiny_rounds(random.Random(seed)):
            rc, out = qct(op.argv)
            assert rc == op.expect_code, (op.label, rc)
            assert op.check(out) is None, (op.label, op.check(out))


def test_same_seed_same_inputs() -> None:
    a = [op.argv for op in workloads.build("compile-large", 3, WORK)]
    b = [op.argv for op in workloads.build("compile-large", 3, WORK)]
    assert a == b
    assert a != [op.argv for op in workloads.build("compile-large", 4, WORK)]


def test_self_times_add_up_to_the_op() -> None:
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    wall = 0.0
    try:
        ops = tiny_rounds(random.Random(3))
        for op in ops:
            t0 = time.perf_counter()
            qct(op.argv)
            wall += time.perf_counter() - t0
    finally:
        undo()
    assert 0.8 * wall <= tracer.self_total_s() <= wall, (tracer.self_total_s(), wall)
    m = tracer.metrics(len(ops))
    assert set(m) == set(spans.TIMED) | set(spans.CALLS) | set(spans.COUNTS)
    assert tracer.calls["cli.main"] == len(ops)
    for name in ("qcore.not_calls", "qcore.toffoli_calls", "semantics.sample_model_calls",
                 "qtree.gates_emitted"):
        assert m[name] > 0, name
    assert cli.main.__name__ == "main"  # undone


WORK = os.path.join(ROOT, ".qctbench_out", f"selftest-{os.getpid()}")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    failed = 0
    try:
        for name, fn in sorted(globals().items()):
            if name.startswith("test_") and callable(fn):
                try:
                    fn()
                    print(f"ok    {name}")
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL  {name}: {exc!r}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
