"""The closed-form probability (the last qubit's 2x2 reduced state)
against the register routes: recursive evaluation, the compiled circuit
and the dense-matrix oracle."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import ORACLE_N_MAX, dense_layer_matrix, model_for, random_sentence, sentence_strategy
from qct.errors import UnboundAtom
from qct.lang import Atom, Neg, SqrtNeg, atom_names, atomic_complexity, conj, parse
from qct.qcore import EPS_PROB, KET0, KET1, prob, qubit
from qct.qtree import compile_tree, input_state, run
from qct.semantics import (
    ProbProgram,
    QubModel,
    consequence_in_model,
    evaluate,
    is_true,
    probability,
)
from qct.syntree import build_tree

AGREE = 1e-12


def dense_prob(s, m) -> float:
    """Prob from the compiled circuit's layers as dense matrices."""
    tree = build_tree(s)
    state = input_state(tree, m).amps
    for layer in reversed(compile_tree(tree).layers):
        state = dense_layer_matrix(layer) @ state
    return float(np.sum(np.abs(state[1::2]) ** 2))


@settings(max_examples=150, deadline=None)
@given(sentence_strategy(max_leaves=6), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2]))
def test_closed_form_agrees_with_every_register_route(s, seed, delta):
    assume(atomic_complexity(s) <= ORACLE_N_MAX)
    m = model_for(s, seed, delta)
    closed = probability(s, m)
    tree = build_tree(s)
    assert abs(closed - prob(evaluate(s, m))) <= AGREE
    assert abs(closed - prob(run(compile_tree(tree), input_state(tree, m)))) <= AGREE
    assert abs(closed - dense_prob(s, m)) <= AGREE


def test_program_runs_the_same_steps_on_every_model():
    s = parse("snot (p and not q) or snot snot r")
    program = ProbProgram(s)
    for seed in range(20):
        m = model_for(s, seed)
        assert program(m) == probability(s, m)
    assert program.atoms == atom_names(s) == {"p", "q", "r"}


def _mixed_model(rng: random.Random, s) -> QubModel:
    """Basis qubits as well as random ones, so that some sentences are true."""
    atoms = {}
    for name in sorted(atom_names(s)):
        kind = rng.randrange(3)
        if kind == 2:
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            atoms[name] = qubit(np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2))
        else:
            atoms[name] = (KET0, KET1)[kind]
    return QubModel(atoms)


def _near(x: float) -> bool:
    return abs(x - EPS_PROB) < 1e-12


def test_truth_and_consequence_agree_with_register_comparisons():
    rng = random.Random(6)
    outcomes = {"true": set(), "consequence": set()}
    for _ in range(400):
        a = random_sentence(rng, rng.randint(1, 9), allow_falsity=True)
        b = random_sentence(rng, rng.randint(1, 9), allow_falsity=True)
        m = _mixed_model(rng, conj(a, b))
        pa, pb = prob(evaluate(a, m)), prob(evaluate(b, m))
        if not _near(abs(pa - 1.0)):
            expected = abs(pa - 1.0) <= EPS_PROB
            assert is_true(a, m) == expected
            outcomes["true"].add(expected)
        if not _near(pa - pb):
            expected = pa <= pb + EPS_PROB
            assert consequence_in_model(a, b, m) == expected
            outcomes["consequence"].add(expected)
    assert outcomes == {"true": {True, False}, "consequence": {True, False}}


def test_rounding_below_zero_is_clamped_as_qcore_prob_clamps():
    half = 2**-0.5
    m = QubModel({"p": qubit(half, 1j * half)})  # unclamped, snot p is -1.1e-16
    s = parse("snot p")
    assert probability(s, m) == prob(evaluate(s, m)) == 0.0


def test_unbound_atom_is_reported():
    with pytest.raises(UnboundAtom):
        probability(parse("p and q"), QubModel({"p": KET1}))


def test_long_chain_needs_no_register():
    s = parse(" and ".join(["p"] * 1200))
    assert atomic_complexity(s) == 2399
    half = 2**-0.5
    p = probability(s, QubModel({"p": qubit(half, half)}))
    assert 0.0 <= p < 1e-300  # 0.5**1200 underflows without leaving [0, 1]
    assert probability(s, QubModel({"p": KET1})) == 1.0


def test_deep_negation_chain_needs_no_recursion():
    s = Atom("p")
    for i in range(50_000):
        s = Neg(s) if i % 3 else SqrtNeg(s)
    m = model_for(s, 1)
    assert 0.0 <= probability(s, m) <= 1.0
