"""Per-layer self time, recorded by wrapping qct's layer boundaries.

`install` replaces module attributes of qct with timing wrappers; qct's
source is not touched.  A function imported by name into another module
is wrapped there too (`qtree.apply_gate`, `semantics.prob`), because
that is where the caller looks it up.  Gate applications are split by
gate kind.  Nested calls of the recursive `semantics.evaluate` join the
outermost span, so each layer's self time is its span's duration minus
the spans it encloses, and the self times of one op sum to the time of
its outermost span, `cli.main`.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

# Per-layer metric name -> span or counter it reads.
TIMED = {
    "qcore.not_ms": "qcore.not",
    "qcore.snot_ms": "qcore.snot",
    "qcore.toffoli_ms": "qcore.toffoli",
    "qcore.prob_ms": "qcore.prob",
    "qtree.run_ms": "qtree.run",
    "qtree.input_state_ms": "qtree.input_state",
    "qtree.compile_tree_ms": "qtree.compile_tree",
    "semantics.evaluate_ms": "semantics.evaluate",
    "semantics.sample_model_ms": "semantics.sample_model",
    "semantics.search_countermodel_ms": "semantics.search_countermodel",
    "lang.parse_ms": "lang.parse",
    "syntree.build_tree_ms": "syntree.build_tree",
    "cli.self_ms": "cli.main",
}
CALLS = {
    "qcore.not_calls": "qcore.not",
    "qcore.snot_calls": "qcore.snot",
    "qcore.toffoli_calls": "qcore.toffoli",
    "semantics.sample_model_calls": "semantics.sample_model",
}
COUNTS = {"qtree.gates_emitted": "qtree.gates_emitted"}


class Tracer:
    """Self time and call count per span name, plus free counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds spent in child spans]

    def call(self, name: str, fn, *args, **kwargs):
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += dur

    def wrap(self, name: str, fn, reentrant: bool = False):
        def traced(*args, **kwargs):
            if reentrant and self._stack and self._stack[-1][0] == name:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def metrics(self, ops: int) -> dict[str, float]:
        """Every per-layer metric, per op of the traced run."""
        out = {}
        for metric, span in TIMED.items():
            out[metric] = self.self_s.get(span, 0.0) * 1000.0 / ops
        for metric, span in CALLS.items():
            out[metric] = self.calls.get(span, 0) / ops
        for metric, counter in COUNTS.items():
            out[metric] = self.counts.get(counter, 0) / ops
        return out

    def self_total_s(self) -> float:
        return sum(self.self_s.values())


def install(tracer: Tracer):
    """Wrap qct's layer boundaries; returns a function that undoes it."""
    from qct import cli, lang, qcore, qtree, semantics, syntree

    originals = []

    def patch(module, attr, wrapper):
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    gate_spans = {qcore.Not: "qcore.not", qcore.SqrtNot: "qcore.snot", qcore.Toffoli: "qcore.toffoli"}
    apply_gate = qcore.apply_gate

    def traced_apply_gate(psi, gate, offset=0):
        name = gate_spans.get(type(gate))
        if name is None:  # identity wires return their input untouched
            return apply_gate(psi, gate, offset)
        return tracer.call(name, apply_gate, psi, gate, offset)

    compile_tree = qtree.compile_tree

    def counted_compile_tree(tree):
        qt = compile_tree(tree)
        tracer.counts["qtree.gates_emitted"] += sum(len(layer.ops) for layer in qt.layers)
        return qt

    prob = tracer.wrap("qcore.prob", qcore.prob)
    patch(qcore, "apply_gate", traced_apply_gate)
    patch(qtree, "apply_gate", traced_apply_gate)
    patch(qcore, "prob", prob)
    patch(semantics, "prob", prob)
    patch(qtree, "run", tracer.wrap("qtree.run", qtree.run))
    patch(qtree, "run_with_trace", tracer.wrap("qtree.run", qtree.run_with_trace))
    patch(qtree, "input_state", tracer.wrap("qtree.input_state", qtree.input_state))
    patch(qtree, "compile_tree", tracer.wrap("qtree.compile_tree", counted_compile_tree))
    patch(semantics, "evaluate", tracer.wrap("semantics.evaluate", semantics.evaluate, reentrant=True))
    patch(semantics, "sample_model", tracer.wrap("semantics.sample_model", semantics.sample_model))
    patch(semantics, "search_countermodel",
          tracer.wrap("semantics.search_countermodel", semantics.search_countermodel))
    patch(lang, "parse", tracer.wrap("lang.parse", lang.parse))
    patch(syntree, "build_tree", tracer.wrap("syntree.build_tree", syntree.build_tree))
    patch(cli, "main", tracer.wrap("cli.main", cli.main))

    def undo() -> None:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return undo
