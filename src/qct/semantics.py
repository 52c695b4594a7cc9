"""Models, recursive evaluation, truth, and countermodel search.

A model assigns one qubit to each atom; the falsity constant is always
|0>.  Evaluation interprets negation, square-root negation and ternary
conjunction through the gates in qcore, so a sentence's value is a
quregister on Atcompl(s) qubits and its probability is the weight the
register puts on an odd final qubit.

That weight depends only on the 2x2 reduced state of the register's
last qubit (the density-operator, or qumix, reading), so `probability`
computes it in closed form, in time linear in the sentence and with no
register built.  Per node it carries p = rho11 and b = rho01:

    atom c0|0> + c1|1>   (|c1|^2, c0 * conj(c1))
    f                    (0, 0)
    not                  (1 - p, conj(b))
    snot                 (1/2 + Im b, Re b + i (1/2 - p))
    conjunction          (p_left * p_right, 0)

The conjunction's target is a function of the other qubits, so its
reduced state has no coherence.  Truth, consequence and the
countermodel search use this closed form; `evaluate` builds the
register itself.

Truth and consequence compare probabilities with an EPS_PROB tolerance;
exact comparison is meaningless after floating-point gate chains.  The
countermodel search samples Haar-uniform models.  It can only ever
refute: a search that comes back empty says nothing about validity.
Sentences whose probability is pinned by the falsity constant alone
(such as `not f`) have no countermodel to find.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ModelError, ReservedName, SamplerStuck, UnboundAtom
from .lang import Atom, Conj3, Falsity, Neg, Sentence, SqrtNeg, fold
# prob is unused here but stays importable as semantics.prob, which
# qctbench/spans.py wraps
from .qcore import (
    EPS_PROB,
    KET0,
    QRegister,
    and_op,
    apply_not,
    apply_sqrt_not,
    prob,
    qubit,
)

_SEED_MASK = (1 << 64) - 1
_MAX_DRAWS = 10**6


@dataclass(frozen=True)
class QubModel:
    """Atom-to-qubit assignment.  Treat as immutable."""

    atoms: Mapping[str, QRegister]

    def __post_init__(self) -> None:
        copied = {}
        for name, q in self.atoms.items():
            Atom(name)  # reuses the atom-name validation
            if q.n != 1:
                raise ValueError(f"model entry for '{name}' is not a single qubit")
            copied[name] = q
        object.__setattr__(self, "atoms", copied)

    def qubit(self, name: str) -> QRegister:
        try:
            return self.atoms[name]
        except KeyError:
            raise UnboundAtom(name) from None


EMPTY_MODEL = QubModel({})


def evaluate(s: Sentence, m: QubModel) -> QRegister:
    """Interpretation of s under m, a register on Atcompl(s) qubits."""
    if isinstance(s, Atom):
        return m.qubit(s.name)
    if isinstance(s, Falsity):
        return KET0
    if isinstance(s, Neg):
        return apply_not(evaluate(s.body, m))
    if isinstance(s, SqrtNeg):
        return apply_sqrt_not(evaluate(s.body, m))
    if isinstance(s, Conj3):
        return and_op(evaluate(s.left, m), evaluate(s.right, m))
    raise TypeError(f"not a sentence: {s!r}")


# Steps of a ProbProgram, in post order: (_ATOM, name), (_F, None),
# (_NOT, None), (_SNOT, None) and (_AND, None).
_ATOM, _F, _NOT, _SNOT, _AND = range(5)


class ProbProgram:
    """Prob(s) as a function of the model, from one walk over s.

    The walk turns s into a post-order list of steps; each call runs
    that list on a stack of (p, b) pairs, the reduced state of each
    subsentence's last qubit.  The result is clamped into [0, 1] as
    qcore.prob clamps.  A call raises UnboundAtom for an atom the
    model does not assign.
    """

    def __init__(self, s: Sentence) -> None:
        steps: list[tuple[int, str | None]] = []

        def emit(node: Sentence, parts: tuple) -> None:
            if isinstance(node, Atom):
                steps.append((_ATOM, node.name))
            elif isinstance(node, Falsity):
                steps.append((_F, None))
            elif isinstance(node, Neg):
                steps.append((_NOT, None))
            elif isinstance(node, SqrtNeg):
                steps.append((_SNOT, None))
            else:
                # the third slot is always f, whose step came last: the
                # conjunction's target starts at |0>, so drop it
                steps[-1] = (_AND, None)

        fold(s, emit)
        self._steps = steps
        self.atoms = frozenset(name for op, name in steps if op == _ATOM)

    def __call__(self, m: QubModel) -> float:
        leaves: dict[str, tuple[float, complex]] = {}
        stack: list[tuple[float, complex]] = []
        for op, name in self._steps:
            if op == _ATOM:
                leaf = leaves.get(name)
                if leaf is None:
                    c0, c1 = m.qubit(name).amps.tolist()
                    leaf = leaves[name] = (c1.real * c1.real + c1.imag * c1.imag, c0 * c1.conjugate())
                stack.append(leaf)
            elif op == _F:
                stack.append((0.0, 0j))
            elif op == _NOT:
                p, b = stack[-1]
                stack[-1] = (1.0 - p, b.conjugate())
            elif op == _SNOT:
                p, b = stack[-1]
                stack[-1] = (0.5 + b.imag, complex(b.real, 0.5 - p))
            else:
                p_right = stack.pop()[0]
                stack[-1] = (stack[-1][0] * p_right, 0j)
        return min(max(stack[0][0], 0.0), 1.0)


def probability(s: Sentence, m: QubModel) -> float:
    """Prob(s) under m in closed form, building no register."""
    return ProbProgram(s)(m)


def is_true(s: Sentence, m: QubModel) -> bool:
    """Probability 1 within EPS_PROB."""
    return abs(probability(s, m) - 1.0) <= EPS_PROB


def consequence_in_model(a: Sentence, b: Sentence, m: QubModel) -> bool:
    """prob(a) <= prob(b) within EPS_PROB."""
    return probability(a, m) <= probability(b, m) + EPS_PROB


@dataclass(frozen=True)
class ModelSampler:
    """Seeded Haar-uniform qubit sampling with an exclusion margin.

    With delta > 0 each drawn qubit is rejected until its probability
    keeps a distance greater than delta from all of 0, 1/2 and 1.
    """

    seed: int = 0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 0.25:
            raise ValueError(f"delta must lie in [0, 0.25), got {self.delta}")


def _draw_qubit(rng: np.random.Generator, delta: float) -> QRegister:
    for _ in range(_MAX_DRAWS):
        g = rng.standard_normal(4)
        c0 = complex(g[0], g[1])
        c1 = complex(g[2], g[3])
        norm = (abs(c0) ** 2 + abs(c1) ** 2) ** 0.5
        if norm == 0.0:
            continue
        c0, c1 = c0 / norm, c1 / norm
        p = abs(c1) ** 2
        if delta == 0.0 or min(abs(p - v) for v in (0.0, 0.5, 1.0)) > delta:
            return qubit(c0, c1)
    raise SamplerStuck(f"no accepted draw in {_MAX_DRAWS} attempts (delta={delta})")


def sample_model(atoms: Iterable[str], sampler: ModelSampler) -> QubModel:
    """One independent qubit per atom name.  Deterministic per seed."""
    rng = np.random.default_rng(sampler.seed & _SEED_MASK)
    return QubModel({name: _draw_qubit(rng, sampler.delta) for name in sorted(set(atoms))})


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed & _SEED_MASK, trial]).generate_state(1)[0])


def search_countermodel(
    a: Sentence,
    b: Sentence | None = None,
    trials: int = 1000,
    sampler: ModelSampler = ModelSampler(),
) -> QubModel | None:
    """Sample models until one refutes the claim, or give up.

    With b given, a countermodel makes prob(a) exceed prob(b); without
    b, it keeps prob(a) below 1.  Trials draw per-trial sub-seeds from
    (seed, trial index), so a parallel evaluation order could not
    change the outcome.  Returns None when the search is exhausted,
    which proves nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    prob_a = ProbProgram(a)
    prob_b = ProbProgram(b) if b is not None else None
    names = prob_a.atoms | (prob_b.atoms if prob_b is not None else frozenset())
    if not names:
        trials = 1  # no atoms, every trial checks the same model
    for trial in range(trials):
        sub = ModelSampler(seed=_trial_seed(sampler.seed, trial), delta=sampler.delta)
        m = sample_model(names, sub)
        if prob_b is None:
            if prob_a(m) < 1.0 - EPS_PROB:
                return m
        elif prob_a(m) > prob_b(m) + EPS_PROB:
            return m
    return None


def model_to_json(m: QubModel) -> dict:
    """JSON-ready model with atoms in sorted order."""
    out = {}
    for name in sorted(m.atoms):
        amps = m.atoms[name].amps
        out[name] = [[float(c.real), float(c.imag)] for c in amps]
    return {"atoms": out}


def model_from_json(data: object) -> QubModel:
    """Parse and validate the model schema.  Raises ModelError."""
    if not isinstance(data, dict) or not isinstance(data.get("atoms"), dict):
        raise ModelError("model must be an object with an 'atoms' mapping")
    assignment = {}
    for name, pair in data["atoms"].items():
        if name == "f":
            raise ModelError("'f' is the falsity constant and cannot be assigned")
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(not isinstance(c, list) or len(c) != 2 for c in pair)
        ):
            raise ModelError(
                f"entry for '{name}' must be [[re0, im0], [re1, im1]]"
            )
        try:
            assignment[name] = qubit(
                complex(pair[0][0], pair[0][1]), complex(pair[1][0], pair[1][1])
            )
        except (TypeError, ValueError) as exc:
            raise ModelError(f"entry for '{name}' is invalid: {exc}") from exc
    try:
        return QubModel(assignment)
    except (ValueError, ReservedName) as exc:
        raise ModelError(str(exc)) from exc
