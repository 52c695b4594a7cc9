"""Shared oracles and generators for the test suite.

The dense-matrix route, the Boolean truth-table evaluator, the
per-level tensor states and the node-by-node tree levels are
deliberately written from the definitions, independent of the
structural implementations they check; the circuit's dict form is the
byte reference for `qct compile --json`.  None of it is needed at run
time, so it lives here rather than in the package.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import strategies as st

from qct import lang, qcore, semantics
from qct.errors import ArityMismatch, CapacityExceeded
from qct.lang import (
    FALSITY,
    Atom,
    Conj3,
    Falsity,
    Neg,
    Sentence,
    SqrtNeg,
    children,
    conj,
    disj,
)
from qct.qcore import GateTag, Identity1, Not, QRegister, SqrtNot, Toffoli, and_op, apply_not
from qct.qtree import GATE_NAMES, Layer, QuantumTree
from qct.semantics import ModelSampler, QubModel, sample_model
from qct.syntree import SyntacticTree

ATOM_POOL = ("p", "q", "r", "s")

EPS_VEC = 1e-9  # amplitude-wise agreement between two routes to a state
ORACLE_N_MAX = 10

# (1 +- i)/2, the two entries of the square-root-of-NOT mixing matrix.
_HALF_PLUS = 0.5 + 0.5j
_HALF_MINUS = 0.5 - 0.5j


def haar_state(rng: np.random.Generator, n: int) -> QRegister:
    """Uniform random unit vector on 2^n amplitudes."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return QRegister(n, v / np.linalg.norm(v))


def definite_last_bit_state(rng: np.random.Generator, n: int) -> QRegister:
    """Random state whose every component has a definite last qubit.

    For each index pair (2k, 2k+1) only one slot is populated, so the
    state has the shape sum_j a_j |j>|x_j>.
    """
    half = 1 << (n - 1)
    amps = np.zeros(1 << n, dtype=np.complex128)
    slots = 2 * np.arange(half) + rng.integers(0, 2, size=half)
    amps[slots] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    return QRegister(n, amps / np.linalg.norm(amps))


def max_amp_diff(a: QRegister, b: QRegister) -> float:
    return float(np.max(np.abs(a.amps - b.amps)))


def random_sentence(
    rng: random.Random,
    budget: int,
    atoms: tuple[str, ...] = ATOM_POOL,
    allow_falsity: bool = False,
    allow_sqrt: bool = True,
) -> Sentence:
    """Random sentence with atomic complexity at most `budget` (>= 1)."""
    assert budget >= 1
    opts = ["atom", "atom", "neg", "neg"]
    if allow_falsity:
        opts.append("f")
    if allow_sqrt:
        opts += ["snot", "snot"]
    if budget >= 3:
        opts += ["conj"] * 3 + ["disj"] * 2
    kind = rng.choice(opts)
    if kind == "atom":
        return Atom(rng.choice(atoms))
    if kind == "f":
        return FALSITY
    if kind == "neg":
        return Neg(random_sentence(rng, budget, atoms, allow_falsity, allow_sqrt))
    if kind == "snot":
        return SqrtNeg(random_sentence(rng, budget, atoms, allow_falsity, allow_sqrt))
    left = rng.randint(1, budget - 2)
    a = random_sentence(rng, left, atoms, allow_falsity, allow_sqrt)
    b = random_sentence(rng, budget - 1 - left, atoms, allow_falsity, allow_sqrt)
    return conj(a, b) if kind == "conj" else disj(a, b)


def random_chain(terms: int, seed: int) -> Sentence:
    """Left-associated and/or chain of `terms` atoms or f, with not and
    snot on up to three levels above each term and above each link."""
    rng = random.Random(seed)

    def negated(s: Sentence) -> Sentence:
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            s = rng.choice((Neg, SqrtNeg))(s)
        return s

    def term() -> Sentence:
        return negated(rng.choice((Atom(rng.choice(ATOM_POOL)), FALSITY)))

    out = term()
    for _ in range(terms - 1):
        out = negated(rng.choice((conj, disj))(out, term()))
    return out


def chain_strategy(max_terms: int) -> st.SearchStrategy[Sentence]:
    return st.builds(random_chain, st.integers(1, max_terms), st.integers(0, 2**32 - 1))


def model_for(s: Sentence, seed: int, delta: float = 0.0) -> QubModel:
    return sample_model(lang.atom_names(s), ModelSampler(seed=seed, delta=delta))


def bool_eval(s: Sentence, env: dict[str, int]) -> int:
    """Boolean truth-table evaluation of a sqrt-negation-free sentence."""
    if isinstance(s, Atom):
        return env[s.name]
    if isinstance(s, Falsity):
        return 0
    if isinstance(s, Neg):
        return 1 - bool_eval(s.body, env)
    if isinstance(s, Conj3):
        return bool_eval(s.left, env) & bool_eval(s.right, env)
    raise ValueError(f"not a Boolean sentence: {s!r}")


def boolean_sqrt_not_witnesses() -> dict[tuple[int, int], int | None]:
    """Each unary Boolean function, as its table (f(0), f(1)), mapped to
    the smallest x with f(f(x)) != 1 - x, or None if f squares to NOT."""
    tables = [(f0, f1) for f0 in (0, 1) for f1 in (0, 1)]
    return {t: next((x for x in (0, 1) if t[t[x]] != 1 - x), None) for t in tables}


def connective_sentences(atoms: tuple[str, ...], depth: int) -> list[Sentence]:
    """Every sqrt-negation-free sentence over `atoms` up to nesting `depth`."""
    out: dict[Sentence, None] = dict.fromkeys(
        [Atom(a) for a in atoms] + [FALSITY]
    )
    for _ in range(depth):
        current = list(out)
        for s in current:
            out.setdefault(Neg(s), None)
        for a in current:
            for b in current:
                out.setdefault(conj(a, b), None)
                out.setdefault(disj(a, b), None)
    return list(out)


def or_op(psi: QRegister, phi: QRegister) -> QRegister:
    """Disjunction via De Morgan: NOT(AND(NOT psi, NOT phi))."""
    return apply_not(and_op(apply_not(psi), apply_not(phi)))


def dense_matrix(gate: GateTag) -> np.ndarray:
    """Explicit 2^arity x 2^arity matrix of a gate tag (oracle use)."""
    if isinstance(gate, Identity1):
        return np.eye(2, dtype=np.complex128)
    dim = 1 << gate.arity
    m = np.zeros((dim, dim), dtype=np.complex128)
    if isinstance(gate, Not):
        for col in range(dim):
            m[col ^ 1, col] = 1.0
    elif isinstance(gate, SqrtNot):
        for col in range(dim):
            m[col, col] = _HALF_PLUS
            m[col ^ 1, col] = _HALF_MINUS
    elif isinstance(gate, Toffoli):
        c1, c2 = gate.s + 1, 1
        for col in range(dim):
            row = col ^ ((col >> c1) & (col >> c2) & 1)
            m[row, col] = 1.0
    else:
        raise TypeError(f"unknown gate tag: {gate!r}")
    return m


def dense_oracle_apply(psi: QRegister, gate: GateTag) -> QRegister:
    """Apply a gate by dense matrix multiplication.  Oracle scale only."""
    if psi.n > ORACLE_N_MAX:
        raise CapacityExceeded(
            f"dense oracle is limited to n <= {ORACLE_N_MAX}, got n={psi.n}"
        )
    if gate.arity != psi.n:
        raise ArityMismatch(
            f"gate of arity {gate.arity} applied to register of n={psi.n}"
        )
    return QRegister(psi.n, dense_matrix(gate) @ psi.amps)


def reference_gate_amps(psi: QRegister, gate: GateTag, offset: int = 0) -> np.ndarray:
    """apply_gate's amplitudes by the original index-arithmetic kernels.

    The runtime kernels permute or mix through reshaped views; these are
    the bodies they replaced, kept to pin the new ones bit for bit.
    """
    amps = psi.amps
    if isinstance(gate, Identity1):
        return amps
    t = psi.n - offset - gate.r
    if isinstance(gate, Not):
        out = amps.reshape(-1, 2, 1 << t)[:, ::-1, :]
        return out.reshape(-1).copy()
    if isinstance(gate, SqrtNot):
        v = amps.reshape(-1, 2, 1 << t)
        out = np.empty_like(v)
        out[:, 0, :] = _HALF_PLUS * v[:, 0, :] + _HALF_MINUS * v[:, 1, :]
        out[:, 1, :] = _HALF_MINUS * v[:, 0, :] + _HALF_PLUS * v[:, 1, :]
        return out.reshape(-1)
    c1, c2 = t, t - gate.s
    j = np.arange(amps.size)
    both = (j >> c1) & (j >> c2) & 1
    return amps[j ^ (both << (c2 - 1))]


def dense_layer_matrix(layer: Layer) -> np.ndarray:
    """Kronecker product of the layer's gate matrices."""
    m = np.eye(1, dtype=np.complex128)
    for gate in layer.ops:
        m = np.kron(m, dense_matrix(gate))
    return m


def reference_levels(s: Sentence) -> tuple[tuple[Sentence, ...], ...]:
    """The tree's levels, unfolding every node of every level."""
    levels = [(s,)]
    while any(map(children, levels[-1])):
        levels.append(tuple(kid for node in levels[-1] for kid in children(node) or (node,)))
    return tuple(levels)


def reference_fold_levels(levels: tuple[tuple[Sentence, ...], ...], combine) -> list[list]:
    """SyntacticTree.fold_levels, node by node over every level."""
    below = [combine(leaf, ()) for leaf in levels[-1]]
    out = [below]
    for level in reversed(levels[:-1]):
        values, i = [], 0
        for node in level:
            k = len(children(node))
            values.append(combine(node, tuple(below[i : i + k])) if k else below[i])
            i += k or 1
        out.append(values)
        below = values
    out.reverse()
    return out


def _gate_to_json(gate: GateTag) -> dict:
    name = GATE_NAMES[type(gate)]
    if isinstance(gate, Toffoli):
        return {"gate": name, "r": gate.r, "s": gate.s}
    return {"gate": name, "r": gate.arity}


def circuit_to_json(qt: QuantumTree) -> dict:
    """JSON-ready circuit: {"n": ..., "layers": [[gate, ...], ...]}."""
    return {
        "n": qt.n,
        "layers": [[_gate_to_json(g) for g in layer.ops] for layer in qt.layers],
    }


def level_state(tree: SyntacticTree, m: QubModel, i: int) -> QRegister:
    """Tensor of the interpretations of level i's nodes (0-based index)."""
    state = None
    for node in tree.levels[i]:
        q = semantics.evaluate(node, m)
        state = q if state is None else qcore.tensor(state, q)
    assert state is not None
    return state


def ast_depth(s: Sentence) -> int:
    if isinstance(s, (Atom, Falsity)):
        return 0
    if isinstance(s, (Neg, SqrtNeg)):
        return 1 + ast_depth(s.body)
    return 1 + max(ast_depth(s.left), ast_depth(s.right), ast_depth(s.third))


def sentence_strategy(
    atoms: tuple[str, ...] = ATOM_POOL,
    allow_falsity: bool = True,
    max_leaves: int = 12,
) -> st.SearchStrategy[Sentence]:
    leaves: list[Sentence] = [Atom(a) for a in atoms]
    if allow_falsity:
        leaves.append(FALSITY)
    return st.recursive(
        st.sampled_from(leaves),
        lambda kids: st.one_of(
            kids.map(Neg),
            kids.map(SqrtNeg),
            st.builds(conj, kids, kids),
            st.builds(disj, kids, kids),
        ),
        max_leaves=max_leaves,
    )
