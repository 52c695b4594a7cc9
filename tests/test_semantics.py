"""Models, evaluation, sampling, countermodel search, and the
finite checks behind the logic's negative results."""

import random

import numpy as np
import pytest

from helpers import (
    bool_eval,
    boolean_sqrt_not_witnesses,
    connective_sentences,
    model_for,
    random_sentence,
)
from qct.errors import ModelError, ReservedName, UnboundAtom
from qct.lang import FALSITY, Atom, Neg, conj, disj, parse
from qct.qcore import EPS_PROB, KET0, KET1, basis_state, prob, qubit
from qct.semantics import (
    EMPTY_MODEL,
    ModelSampler,
    QubModel,
    consequence_in_model,
    evaluate,
    is_true,
    model_from_json,
    model_to_json,
    sample_model,
    search_countermodel,
)

INV_SQRT2 = 1 / np.sqrt(2)
BALANCED = qubit(INV_SQRT2, INV_SQRT2)


def test_evaluate_classical_contradiction():
    m = QubModel({"p": KET1})
    value = evaluate(parse("p and not p"), m)
    assert np.argmax(value.amps) == 0b100
    assert prob(value) == 0.0


def test_evaluate_idempotence_numbers():
    m = QubModel({"p": BALANCED})
    assert prob(evaluate(parse("p"), m)) == pytest.approx(0.5, abs=1e-12)
    assert prob(evaluate(parse("p and p"), m)) == pytest.approx(0.25, abs=1e-12)


def test_evaluate_negated_contradiction_is_not_true():
    m = QubModel({"p": BALANCED})
    assert prob(evaluate(parse("not (p and not p)"), m)) == pytest.approx(
        0.75, abs=1e-12
    )


def test_evaluate_dimensions_and_unbound_atom():
    m = QubModel({"p": KET0})
    assert evaluate(parse("snot (p and p)"), m).n == 3
    with pytest.raises(UnboundAtom):
        evaluate(parse("p and q"), m)


def test_is_true_examples():
    assert is_true(parse("not f"), EMPTY_MODEL)
    assert is_true(parse("p"), QubModel({"p": KET1}))
    assert not is_true(parse("not (p and not p)"), QubModel({"p": BALANCED}))


def test_consequence_examples():
    m = QubModel({"p": BALANCED})
    assert consequence_in_model(FALSITY, parse("snot p"), m)
    assert consequence_in_model(parse("p and p"), parse("p"), m)
    # idempotence direction that quantum computational logic drops
    assert not consequence_in_model(parse("p"), parse("p and p"), m)


def test_model_requires_single_qubits_and_legal_names():
    with pytest.raises(ValueError):
        QubModel({"p": basis_state(0, 0)})
    with pytest.raises(ReservedName):
        QubModel({"or": KET0})
    with pytest.raises(UnboundAtom):
        EMPTY_MODEL.qubit("p")


def test_sampler_is_deterministic_per_seed():
    a = sample_model({"p", "q"}, ModelSampler(seed=42))
    b = sample_model({"q", "p"}, ModelSampler(seed=42))
    for name in ("p", "q"):
        assert np.array_equal(a.qubit(name).amps, b.qubit(name).amps)
    c = sample_model({"p", "q"}, ModelSampler(seed=43))
    assert not np.array_equal(a.qubit("p").amps, c.qubit("p").amps)


def test_sampler_margin_keeps_probabilities_away_from_special_values():
    m = sample_model([f"a{i}" for i in range(200)], ModelSampler(seed=5, delta=0.05))
    for q in m.atoms.values():
        p = prob(q)
        assert 0.05 < p < 0.95
        assert abs(p - 0.5) > 0.05


def test_sampler_mean_probability_is_one_half():
    # Haar measure pushes |c1|^2 to uniform on [0,1]
    names = [f"a{i}" for i in range(10_000)]
    m = sample_model(names, ModelSampler(seed=6))
    mean = np.mean([prob(q) for q in m.atoms.values()])
    assert mean == pytest.approx(0.5, abs=0.02)


def test_sampler_rejects_bad_delta():
    with pytest.raises(ValueError):
        ModelSampler(delta=0.25)
    with pytest.raises(ValueError):
        ModelSampler(delta=-0.1)


def test_search_finds_idempotence_countermodel():
    m = search_countermodel(parse("p"), parse("p and p"), trials=50)
    assert m is not None
    assert prob(evaluate(parse("p"), m)) > prob(evaluate(parse("p and p"), m)) + EPS_PROB


def test_search_respects_valid_consequences():
    # prob(p and q) = prob(p) * prob(q) <= prob(p), so no countermodel exists
    assert search_countermodel(parse("p and q"), parse("p"), trials=60) is None


def test_search_refutes_negated_contradiction():
    m = search_countermodel(parse("not (p and not p)"), trials=50)
    assert m is not None
    assert prob(evaluate(parse("not (p and not p)"), m)) < 1 - EPS_PROB


def test_search_cannot_refute_falsity_pinned_sentences():
    assert search_countermodel(parse("not f"), trials=3) is None


def test_search_validates_trials():
    with pytest.raises(ValueError):
        search_countermodel(parse("p"), trials=0)


def test_search_is_deterministic_per_seed():
    a = search_countermodel(parse("p"), trials=20, sampler=ModelSampler(seed=9))
    b = search_countermodel(parse("p"), trials=20, sampler=ModelSampler(seed=9))
    assert a is not None and b is not None
    assert np.array_equal(a.qubit("p").amps, b.qubit("p").amps)


def test_no_boolean_square_root_of_negation():
    by_table = boolean_sqrt_not_witnesses()
    assert len(by_table) == 4
    assert None not in by_table.values()
    assert by_table[(0, 1)] == 0  # identity
    assert by_table[(1, 1)] == 1  # constant 1
    assert by_table[(1, 0)] == 0  # plain negation
    assert by_table[(0, 0)] == 0  # constant 0


def test_probabilities_stay_interior_with_margin_models():
    rng = random.Random(31)
    for _ in range(60):
        s = random_sentence(rng, 10, allow_falsity=False)
        m = model_for(s, seed=rng.randrange(2**32), delta=0.05)
        p = prob(evaluate(s, m))
        assert EPS_PROB < p < 1 - EPS_PROB


def test_strong_distributivity_sample():
    rng = random.Random(32)
    for _ in range(80):
        a = random_sentence(rng, 3)
        b = random_sentence(rng, 3)
        c = random_sentence(rng, 3)
        lhs = conj(a, disj(b, c))
        rhs = disj(conj(a, b), conj(a, c))
        m = model_for(conj(lhs, rhs), seed=rng.randrange(2**32))
        assert prob(evaluate(lhs, m)) <= prob(evaluate(rhs, m)) + EPS_PROB


def test_classical_restriction_spot_checks():
    for s in (
        parse("p and (q or r)"),
        parse("not (p and not q) or r"),
        parse("p or f"),
        Neg(FALSITY),
    ):
        for bits in range(8):
            env = {"p": bits & 1, "q": (bits >> 1) & 1, "r": (bits >> 2) & 1}
            m = QubModel(
                {name: (KET1 if value else KET0) for name, value in env.items()}
            )
            p = prob(evaluate(s, m))
            assert p in (0.0, 1.0)
            assert int(p) == bool_eval(s, env)


def test_connective_sentence_enumeration_is_exhaustive_and_small():
    sentences = connective_sentences(("p", "q"), 1)
    # 3 leaves, then closure by one application of not/and/or
    assert Atom("p") in sentences
    assert conj(Atom("p"), FALSITY) in sentences
    assert disj(Atom("q"), Atom("q")) in sentences
    assert len(sentences) == len(set(sentences))


def test_model_json_round_trip():
    m = sample_model({"p", "q"}, ModelSampler(seed=77))
    data = model_to_json(m)
    again = model_from_json(data)
    for name in ("p", "q"):
        assert np.allclose(again.qubit(name).amps, m.qubit(name).amps, atol=1e-15)
    assert list(data["atoms"]) == ["p", "q"]  # sorted for determinism


def test_model_json_validation():
    with pytest.raises(ModelError):
        model_from_json({"atoms": {"f": [[1, 0], [0, 0]]}})
    with pytest.raises(ModelError):
        model_from_json({"atoms": {"p": [[1, 0], [1, 0]]}})  # not unit norm
    with pytest.raises(ModelError):
        model_from_json({"atoms": {"p": [[1, 0]]}})
    with pytest.raises(ModelError):
        model_from_json({"atoms": {"not": [[1, 0], [0, 0]]}})
    with pytest.raises(ModelError):
        model_from_json([1, 2])
    assert model_from_json({"atoms": {}}).atoms == {}
