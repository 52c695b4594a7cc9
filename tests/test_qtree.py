"""Compiler output, circuit execution, and the level-by-level agreement
between gate layers and recursive evaluation."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (
    EPS_VEC,
    circuit_to_json,
    dense_layer_matrix,
    level_state,
    max_amp_diff,
    model_for,
    random_sentence,
    sentence_strategy,
)
from qct.errors import ArityMismatch, UnboundAtom
from qct.lang import Atom, parse
from qct.qcore import (
    KET1,
    Identity1,
    Not,
    QRegister,
    SqrtNot,
    Toffoli,
    basis_state,
    prob,
    qubit,
)
from qct.qtree import (
    Layer,
    QuantumTree,
    compile_tree,
    input_state,
    run,
    run_with_trace,
)
from qct.semantics import QubModel, evaluate
from qct.syntree import build_tree

INV_SQRT2 = 1 / np.sqrt(2)


def _compiled(text):
    return compile_tree(build_tree(parse(text)))


def test_compile_worked_example():
    qt = _compiled("p and not p")
    assert qt.n == 3
    assert qt.layers == (
        Layer((Toffoli(1, 1),)),
        Layer((Identity1(), Not(1), Identity1())),
    )


def test_compile_second_worked_example():
    qt = _compiled("not p and (q and snot p)")
    assert qt.layers == (
        Layer((Toffoli(1, 3),)),
        Layer((Not(1), Toffoli(1, 1), Identity1())),
        Layer((Identity1(), Identity1(), SqrtNot(1), Identity1(), Identity1())),
    )


def test_compile_atomic_sentence_is_empty():
    qt = _compiled("p")
    assert qt.n == 1
    assert qt.layers == ()


def test_layer_widths_must_match_circuit():
    with pytest.raises(ArityMismatch):
        QuantumTree(2, (Layer((Not(1),)),))
    with pytest.raises(ValueError):
        Layer(())


def test_input_state_substitutes_leaves():
    tree = build_tree(parse("p and not p"))
    m = QubModel({"p": KET1})
    assert np.argmax(input_state(tree, m).amps) == 0b110

    tree2 = build_tree(parse("not p and (q and snot p)"))
    m2 = QubModel({"p": KET1, "q": basis_state(0)})
    assert np.argmax(input_state(tree2, m2).amps) == 0b10100


def test_input_state_for_atomic_sentence_is_the_qubit():
    h = qubit(INV_SQRT2, INV_SQRT2)
    tree = build_tree(Atom("p"))
    assert max_amp_diff(input_state(tree, QubModel({"p": h})), h) == 0.0


def test_input_state_reports_missing_atom():
    tree = build_tree(parse("p and q"))
    with pytest.raises(UnboundAtom) as err:
        input_state(tree, QubModel({"p": KET1}))
    assert err.value.name == "q"


def test_run_worked_example_and_trace():
    qt = _compiled("p and not p")
    inp = basis_state(1, 1, 0)
    trace = run_with_trace(qt, inp)
    assert [int(np.argmax(s.amps)) for s in trace] == [0b110, 0b100, 0b100]
    assert prob(trace[-1]) == 0.0
    assert max_amp_diff(run(qt, inp), trace[-1]) == 0.0


def test_run_single_not_layer():
    qt = _compiled("not p")
    out = run(qt, basis_state(0))
    assert np.argmax(out.amps) == 1


def test_run_empty_circuit_is_identity():
    qt = _compiled("p")
    h = qubit(INV_SQRT2, INV_SQRT2)
    assert max_amp_diff(run(qt, h), h) == 0.0
    assert len(run_with_trace(qt, h)) == 1


def test_run_checks_input_width():
    with pytest.raises(ArityMismatch):
        run(_compiled("p and q"), basis_state(0))


def test_trace_length_equals_height():
    rng = random.Random(21)
    for _ in range(20):
        s = random_sentence(rng, 8, allow_falsity=True)
        tree = build_tree(s)
        qt = compile_tree(tree)
        m = model_for(s, seed=rng.randrange(2**32))
        trace = run_with_trace(qt, input_state(tree, m))
        assert len(trace) == tree.height


def test_per_level_states_match_layer_action():
    rng = random.Random(22)
    for _ in range(40):
        s = random_sentence(rng, 10, allow_falsity=True)
        tree = build_tree(s)
        qt = compile_tree(tree)
        m = model_for(s, seed=rng.randrange(2**32))
        trace = run_with_trace(qt, input_state(tree, m))
        # trace[i] should equal the tensor of level (height - i) values
        for i, state in enumerate(trace):
            expected = level_state(tree, m, tree.height - 1 - i)
            assert max_amp_diff(state, expected) <= EPS_VEC


def test_circuit_output_equals_recursive_eval():
    rng = random.Random(23)
    for _ in range(40):
        s = random_sentence(rng, 10, allow_falsity=True)
        tree = build_tree(s)
        m = model_for(s, seed=rng.randrange(2**32))
        out = run(compile_tree(tree), input_state(tree, m))
        assert max_amp_diff(out, evaluate(s, m)) <= EPS_VEC


def test_compile_reads_only_the_tree():
    # same sentence, two models: identical circuits
    s = parse("not p and snot q")
    assert compile_tree(build_tree(s)) == compile_tree(build_tree(s))


@settings(max_examples=40)
@given(sentence_strategy(max_leaves=8))
def test_layers_are_unitary_at_oracle_scale(s):
    qt = compile_tree(build_tree(s))
    if qt.n > 8:
        return
    for layer in qt.layers:
        u = dense_layer_matrix(layer)
        assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=EPS_VEC)


def test_circuit_json_shape_and_round_trip():
    qt = _compiled("p and not p")
    data = circuit_to_json(qt)
    assert data == {
        "n": 3,
        "layers": [
            [{"gate": "T", "r": 1, "s": 1}],
            [{"gate": "I", "r": 1}, {"gate": "NOT", "r": 1}, {"gate": "I", "r": 1}],
        ],
    }

    # not (not snot (p and q) and not f)
    assert circuit_to_json(_compiled("snot (p and q) or f")) == {
        "n": 5,
        "layers": [
            [{"gate": "NOT", "r": 5}],
            [{"gate": "T", "r": 3, "s": 1}],
            [{"gate": "NOT", "r": 3}, {"gate": "NOT", "r": 1}, {"gate": "I", "r": 1}],
            [{"gate": "SNOT", "r": 3}, {"gate": "I", "r": 1}, {"gate": "I", "r": 1}],
            [{"gate": "T", "r": 1, "s": 1}, {"gate": "I", "r": 1}, {"gate": "I", "r": 1}],
        ],
    }
