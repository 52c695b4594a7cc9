"""Reference semantics and output checks, written apart from qct.

Sentences are plain tuples made by the workload generator:

    ("atom", name)  ("f",)  ("not", x)  ("snot", x)  ("and", x, y)  ("or", x, y)

`desugar` turns them into the core the paper compiles, where `and` is a
ternary conjunction with a falsity third slot and `or` is
not (not x and not y):

    ("atom", name)  ("f",)  ("not", x)  ("snot", x)  ("conj", x, y)

Probabilities come from the 2x2 reduced state of a sentence's last qubit
(the density-operator, or qumix, reading):

    atom q       ->  |q><q|
    f            ->  |0><0|
    not          ->  X rho X
    snot         ->  S rho S^dagger,  S = [[(1+i)/2, (1-i)/2], [(1-i)/2, (1+i)/2]]
    conj(a, b)   ->  diag(1 - pa*pb, pa*pb)

The conjunction's target qubit decoheres because its two inputs live on
disjoint, tensored registers.  The cost is O(|s|), against O(height * 2^n)
for the state vector, so every op of the benchmark can be checked.

Every `check_*` function returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import json
import re

TOL = 1e-9  # qct's own truth tolerance, and the agreement demanded here

_HP = 0.5 + 0.5j
_HM = 0.5 - 0.5j


# ---------------------------------------------------------------- structure


def desugar(node: tuple) -> tuple:
    kind = node[0]
    if kind in ("atom", "f"):
        return node
    if kind in ("not", "snot"):
        return (kind, desugar(node[1]))
    a, b = desugar(node[1]), desugar(node[2])
    if kind == "and":
        return ("conj", a, b)
    if kind == "or":
        return ("not", ("conj", ("not", a), ("not", b)))
    raise ValueError(f"unknown node kind {kind!r}")


def _children(core: tuple) -> tuple:
    """One unfolding step of the syntactic tree: conj exposes (a, b, f)."""
    kind = core[0]
    if kind in ("atom", "f"):
        return (core,)
    if kind in ("not", "snot"):
        return (core[1],)
    return (core[1], core[2], ("f",))


def _is_atomic(core: tuple) -> bool:
    return core[0] in ("atom", "f")


def atcompl(core: tuple, memo: dict | None = None) -> int:
    """Atomic occurrences after desugaring, falsity slots included."""
    if memo is None:
        memo = {}
    key = id(core)
    if key not in memo:
        kind = core[0]
        if kind in ("atom", "f"):
            memo[key] = 1
        elif kind in ("not", "snot"):
            memo[key] = atcompl(core[1], memo)
        else:
            memo[key] = atcompl(core[1], memo) + atcompl(core[2], memo) + 1
    return memo[key]


def levels(core: tuple) -> list[list[tuple]]:
    """Root level first; unfold until a level is all atomic."""
    out = [[core]]
    while not all(_is_atomic(node) for node in out[-1]):
        out.append([child for node in out[-1] for child in _children(node)])
    return out


def leaf_text(core: tuple) -> str:
    return core[1] if core[0] == "atom" else "f"


class Structure:
    """What the compiled circuit and the tree of a sentence must look like."""

    def __init__(self, core: tuple):
        memo: dict = {}
        lv = levels(core)
        self.n = atcompl(core, memo)
        self.height = len(lv)
        self.leaves = [leaf_text(node) for node in lv[-1]]
        self.layers = [[_gate_of(node, memo) for node in level] for level in lv[:-1]]
        self.counts = {"I": 0, "NOT": 0, "SNOT": 0, "T": 0}
        for layer in self.layers:
            for gate in layer:
                self.counts[gate[0]] += 1


def _gate_of(node: tuple, memo: dict) -> tuple:
    kind = node[0]
    if kind in ("atom", "f"):
        return ("I", 1, 0)
    if kind == "not":
        return ("NOT", atcompl(node[1], memo), 0)
    if kind == "snot":
        return ("SNOT", atcompl(node[1], memo), 0)
    return ("T", atcompl(node[1], memo), atcompl(node[2], memo))


def _width(gate: tuple) -> int:
    kind, r, s = gate
    return r + s + 1 if kind == "T" else r


# ---------------------------------------------------------------- semantics


def _mul(a: tuple, b: tuple) -> tuple:
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )


_S = (_HP, _HM, _HM, _HP)
_S_DAG = (_HM, _HP, _HP, _HM)


def rho(core: tuple, model: dict) -> tuple:
    """Reduced state (r00, r01, r10, r11) of the sentence's last qubit.

    `model` maps atom names to (c0, c1) complex amplitude pairs.
    """
    kind = core[0]
    if kind == "atom":
        c0, c1 = model[core[1]]
        return (
            c0 * c0.conjugate(),
            c0 * c1.conjugate(),
            c1 * c0.conjugate(),
            c1 * c1.conjugate(),
        )
    if kind == "f":
        return (1 + 0j, 0j, 0j, 0j)
    if kind == "not":
        r00, r01, r10, r11 = rho(core[1], model)
        return (r11, r10, r01, r00)
    if kind == "snot":
        return _mul(_mul(_S, rho(core[1], model)), _S_DAG)
    p = prob(core[1], model) * prob(core[2], model)
    return (1 - p + 0j, 0j, 0j, p + 0j)


def prob(core: tuple, model: dict) -> float:
    return rho(core, model)[3].real


def is_true(p: float) -> bool:
    return abs(p - 1.0) <= TOL


def level_probs(core: tuple, model: dict) -> list[float]:
    """Probability of each tree level, level 1 (root) first.

    A level's register is the tensor of its nodes' registers, so its last
    qubit is the last qubit of the level's last node.
    """
    return [prob(level[-1], model) for level in levels(core)]


def model_from_json(text: str) -> dict:
    data = json.loads(text)
    return {
        name: (complex(a[0][0], a[0][1]), complex(a[1][0], a[1][1]))
        for name, a in data["atoms"].items()
    }


# ---------------------------------------------------------------- checks


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL


def _truth_ok(printed: bool, p: float) -> bool:
    # Within 1e-11 of the tolerance edge either verdict is a rounding choice.
    if abs(abs(p - 1.0) - TOL) < 1e-11:
        return True
    return printed == is_true(p)


def check_eval_text(out: str, core: tuple, model: dict) -> str | None:
    lines = out.splitlines()
    if len(lines) != 3:
        return f"expected 3 lines, got {len(lines)}"
    m = re.fullmatch(r"Prob: (\S+)", lines[0])
    if not m:
        return f"bad Prob line {lines[0]!r}"
    p, want = float(m.group(1)), prob(core, model)
    if not _close(p, want):
        return f"Prob {p!r} but the oracle gives {want!r}"
    if lines[1] not in ("True: yes", "True: no"):
        return f"bad True line {lines[1]!r}"
    if not _truth_ok(lines[1] == "True: yes", want):
        return f"{lines[1]!r} disagrees with oracle Prob {want!r}"
    m = re.fullmatch(r"Circuit vs recursive eval, max deviation: (\S+)", lines[2])
    if not m:
        return f"bad deviation line {lines[2]!r}"
    if not float(m.group(1)) <= TOL:
        return f"max deviation {m.group(1)} exceeds {TOL}"
    return None


def check_eval_trace_json(out: str, core: tuple, model: dict, n: int) -> str | None:
    data = json.loads(out)
    want = prob(core, model)
    if data["n"] != n:
        return f"n {data['n']} but the sentence has Atcompl {n}"
    if not _close(data["prob"], want):
        return f"prob {data['prob']!r} but the oracle gives {want!r}"
    if not _truth_ok(data["true"], want):
        return f"true={data['true']} disagrees with oracle Prob {want!r}"
    if not data["max_deviation"] <= TOL:
        return f"max_deviation {data['max_deviation']!r} exceeds {TOL}"
    per_level = level_probs(core, model)
    height = len(per_level)
    trace = data["trace"]
    if [e["level"] for e in trace] != list(range(height, 0, -1)):
        return f"trace levels {[e['level'] for e in trace]} for a tree of height {height}"
    for entry in trace:
        lp = per_level[entry["level"] - 1]
        if not _close(entry["prob"], lp):
            return f"level {entry['level']} prob {entry['prob']!r}, oracle {lp!r}"
    return None


def _parse_gate_text(text: str) -> tuple:
    if text == "I":
        return ("I", 1, 0)
    m = re.fullmatch(r"(NOT|SNOT)\((\d+)\)", text)
    if m:
        return (m.group(1), int(m.group(2)), 0)
    m = re.fullmatch(r"T\((\d+),(\d+)\)", text)
    if m:
        return ("T", int(m.group(1)), int(m.group(2)))
    raise ValueError(f"unknown gate text {text!r}")


def _gate_from_json(g: dict) -> tuple:
    if g["gate"] == "T":
        return ("T", g["r"], g["s"])
    return (g["gate"], g["r"], 0)


def _check_layers(n: int, layers: list[list[tuple]], st: Structure) -> str | None:
    if n != st.n:
        return f"n {n} but the sentence has Atcompl {st.n}"
    if len(layers) != len(st.layers):
        return f"{len(layers)} layers, expected height - 1 = {len(st.layers)}"
    for i, (got, want) in enumerate(zip(layers, st.layers), start=1):
        width = sum(_width(g) for g in got)
        if width != n:
            return f"U{i} spans {width} qubits, n is {n}"
        if got != want:
            return f"U{i} gates differ from the tree's operator rule"
    return None


def check_compile_text(out: str, st: Structure) -> str | None:
    lines = out.splitlines()
    m = re.fullmatch(r"n: (\d+)", lines[0]) if lines else None
    if not m:
        return "missing 'n:' line"
    layers = []
    for i, line in enumerate(lines[1:], start=1):
        prefix = f"U{i}: "
        if not line.startswith(prefix):
            return f"bad layer line {line[:40]!r}"
        try:
            layers.append([_parse_gate_text(t) for t in line[len(prefix):].split(" ⊗ ")])
        except ValueError as exc:
            return str(exc)
    return _check_layers(int(m.group(1)), layers, st)


def check_compile_json(out: str, st: Structure) -> str | None:
    data = json.loads(out)
    layers = [[_gate_from_json(g) for g in layer] for layer in data["layers"]]
    return _check_layers(data["n"], layers, st)


def check_tree_text(out: str, st: Structure) -> str | None:
    lines = out.splitlines()
    if lines[-1:] != [f"Height: {st.height}"]:
        return f"last line {lines[-1:]!r}, expected Height: {st.height}"
    body = lines[:-1]
    if len(body) != st.height:
        return f"{len(body)} level lines, expected {st.height}"
    for i, line in enumerate(body, start=1):
        if not line.startswith(f"Level {i}: ("):
            return f"bad level line {line[:40]!r}"
    want = f"Level {st.height}: ({', '.join(st.leaves)})"
    if body[-1] != want:
        return "atomic level differs from the sentence's leaf occurrences"
    return None


def check_exhausted(out: str, trials: int) -> str | None:
    if out != f"no countermodel in {trials} trials\n":
        return f"expected exhaustion after {trials} trials, got {out[:60]!r}"
    return None


def check_countermodel(
    out: str, core: tuple, atoms: set[str], delta: float, then: tuple | None = None
) -> str | None:
    """A found countermodel must refute the claim under the oracle."""
    lines = out.splitlines()
    if not lines or lines[0] != "Countermodel found":
        return f"expected a countermodel, got {out[:60]!r}"
    model = model_from_json(lines[1])
    if set(model) != atoms:
        return f"model assigns {sorted(model)}, sentence has {sorted(atoms)}"
    for name, (c0, c1) in model.items():
        norm = abs(c0) ** 2 + abs(c1) ** 2
        if abs(norm - 1.0) > TOL:
            return f"qubit {name} has norm^2 {norm!r}"
        q = abs(c1) ** 2
        if delta and min(abs(q - v) for v in (0.0, 0.5, 1.0)) <= delta:
            return f"qubit {name} has probability {q!r}, inside the delta margin"
    p = prob(core, model)
    if then is None:
        if not p < 1.0 - TOL:
            return f"oracle Prob {p!r} does not refute the sentence"
    elif not p > prob(then, model) + TOL:
        return "oracle probabilities do not refute the entailment"
    m = re.fullmatch(r"Prob\(.*\) = (\S+)", lines[2])
    if not m or not _close(float(m.group(1)), p):
        return f"printed {lines[2]!r}, oracle Prob {p!r}"
    return None
