"""Compilation of syntactic trees into gate layers, and their execution.

Each non-final tree level contributes one layer: atomic nodes become
one-qubit identity wires, negations become Not/SqrtNot over the qubit
block of their body, and ternary conjunctions become a Petri-Toffoli
over the blocks of their components.  Block widths are the subformulas'
atomic complexities, so every layer spans exactly n qubits.

Layers are stored in level order (layers[0] belongs to the root level).
Execution runs them in reverse: the layer of the deepest level is
applied to the input first, and layers[0] produces the output, the
sentence's interpretation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import ArityMismatch
from .lang import Atom, Conj3, Neg, Sentence
from .qcore import (
    KET0,
    GateTag,
    Identity1,
    Not,
    QRegister,
    SqrtNot,
    Toffoli,
    apply_gate,
    tensor,
)
from .semantics import QubModel
from .syntree import SyntacticTree


@dataclass(frozen=True)
class Layer:
    """Tensor product of gate tags over consecutive qubit blocks."""

    ops: tuple[GateTag, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("a layer needs at least one gate")

    @property
    def width(self) -> int:
        return sum(map(attrgetter("arity"), self.ops))


@dataclass(frozen=True)
class QuantumTree:
    """Gate layers of a compiled sentence over n qubits.

    `layers` is level-ordered: layers[0] acts last and yields the
    output.  Atomic sentences compile to an empty layer tuple.
    """

    n: int
    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        for layer in self.layers:
            if layer.width != self.n:
                raise ArityMismatch(
                    f"layer spans {layer.width} qubits in a circuit of n={self.n}"
                )


# One shared value for every leaf, so every identity wire of a circuit is
# one object and a writer can render it once (see cli).
_WIRE = (1, Identity1())


def _width_and_gate(node: Sentence, parts: tuple) -> tuple[int, GateTag]:
    """A node's atomic complexity and operator, from its children's widths."""
    if not parts:
        return _WIRE
    if isinstance(node, Conj3):
        (r, _), (s, _), (t, _) = parts
        return r + s + t, Toffoli(r, s)
    ((r, _),) = parts
    return r, (Not(r) if isinstance(node, Neg) else SqrtNot(r))


def compile_tree(tree: SyntacticTree) -> QuantumTree:
    """Apply the operator rule to every level except the last."""
    levels = tree.fold_levels(_width_and_gate)
    ((n, _),) = levels[0]
    layers = tuple(Layer(tuple(map(itemgetter(1), level))) for level in levels[:-1])
    return QuantumTree(n, layers)


def input_state(tree: SyntacticTree, m: QubModel) -> QRegister:
    """Tensor the model's qubits over the last level's occurrences."""
    state: QRegister | None = None
    for leaf in tree.levels[-1]:
        q = m.qubit(leaf.name) if isinstance(leaf, Atom) else KET0
        state = q if state is None else tensor(state, q)
    assert state is not None
    return state


def run(
    qt: QuantumTree,
    input: QRegister,
    visit: Callable[[QRegister], object] | None = None,
) -> QRegister:
    """Execute the circuit: deepest layer first, layers[0] last.

    `visit`, if given, sees the input and the state after each layer, so
    a caller keeps only what it needs of the intermediate states.  Only
    the state a gate reads and the one it writes are held here.
    """
    if input.n != qt.n:
        raise ArityMismatch(f"circuit has n={qt.n}, input has n={input.n}")
    psi = input
    del input  # so the input is freed once the first gate has replaced it
    if visit is not None:
        visit(psi)
    for layer in reversed(qt.layers):  # every layer spans qt.n qubits
        offset = 0
        for gate in layer.ops:
            psi = apply_gate(psi, gate, offset)
            offset += gate.arity
        if visit is not None:
            visit(psi)
    return psi


def run_with_trace(qt: QuantumTree, input: QRegister) -> list[QRegister]:
    """All intermediate states, input first, output last."""
    states: list[QRegister] = []
    run(qt, input, states.append)
    return states


GATE_NAMES = {Identity1: "I", Not: "NOT", SqrtNot: "SNOT", Toffoli: "T"}
