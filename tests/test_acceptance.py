"""Acceptance suite: ten checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every check uses fixed seeds, so reruns are bit-identical.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np

from helpers import (
    ATOM_POOL,
    bool_eval,
    boolean_sqrt_not_witnesses,
    connective_sentences,
    definite_last_bit_state,
    dense_oracle_apply,
    haar_state,
    level_state,
    max_amp_diff,
    model_for,
    or_op,
    random_sentence,
)
from qct.lang import atom_names, atomic_complexity, conj, disj, parse
from qct.qcore import (
    KET0,
    KET1,
    Identity1,
    Not,
    SqrtNot,
    Toffoli,
    and_op,
    apply_gate,
    apply_not,
    apply_sqrt_not,
    prob,
    qubit,
)
from qct.qtree import Layer, compile_tree, input_state, run_with_trace
from qct.semantics import (
    ModelSampler,
    QubModel,
    evaluate,
    search_countermodel,
)
from qct.syntree import build_tree

TOL = 1e-9

H_PLUS = (1 + 1j) / 2
H_MINUS = (1 - 1j) / 2


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def _sqrt_not_prob_formula(psi) -> float:
    """Truth probability of the square-root negation, from amplitudes."""
    total = 0.0
    for j in range(1, 1 << psi.n, 2):
        total += abs(H_MINUS * psi.amps[j - 1] + H_PLUS * psi.amps[j]) ** 2
    return total


def test_criterion_1_probability_laws():
    rng = np.random.default_rng(101)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(200):
        psi = haar_state(rng, int(rng.integers(1, 7)))
        phi = haar_state(rng, int(rng.integers(1, 7)))
        p, q = prob(psi), prob(phi)
        worst = max(worst, abs(prob(and_op(psi, phi)) - p * q))
        worst = max(worst, abs(prob(apply_not(psi)) - (1.0 - p)))
        worst = max(worst, abs(prob(or_op(psi, phi)) - (p + q - p * q)))
        worst = max(worst, abs(prob(apply_sqrt_not(psi)) - _sqrt_not_prob_formula(psi)))
        worst = max(
            worst,
            abs(
                prob(apply_sqrt_not(apply_not(psi)))
                - prob(apply_not(apply_sqrt_not(psi)))
            ),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "conjunction/negation/disjunction/sqrt-negation probability laws",
        worst <= TOL and elapsed < 5.0,
        f"200 pairs, worst {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_sqrt_negation_of_conjunction_is_balanced():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        psi = haar_state(rng, int(rng.integers(1, 5)))
        phi = haar_state(rng, int(rng.integers(1, 5)))
        worst = max(worst, abs(prob(apply_sqrt_not(and_op(psi, phi))) - 0.5))
    for _ in range(100):
        chi = definite_last_bit_state(rng, int(rng.integers(1, 7)))
        worst = max(worst, abs(prob(apply_sqrt_not(chi)) - 0.5))
    _report(
        2,
        "sqrt-negation of any conjunction (and any definite-last-bit state) is 1/2",
        worst <= TOL,
        f"worst {worst:.2e}",
    )


def test_criterion_3_sqrt_negation_squares_to_negation_and_dense_agreement():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        psi = haar_state(rng, int(rng.integers(1, 7)))
        worst = max(
            worst, max_amp_diff(apply_sqrt_not(apply_sqrt_not(psi)), apply_not(psi))
        )
    gates = [Identity1()]
    gates += [Not(r) for r in range(1, 9)]
    gates += [SqrtNot(r) for r in range(1, 9)]
    gates += [Toffoli(r, s) for r in range(1, 7) for s in range(1, 8 - r)]
    for gate in gates:
        for _ in range(3):
            psi = haar_state(rng, gate.arity)
            worst = max(
                worst, max_amp_diff(apply_gate(psi, gate), dense_oracle_apply(psi, gate))
            )
    _report(
        3,
        "sqrt-negation squared equals negation; structured kernels match dense matrices",
        worst <= TOL,
        f"{len(gates)} gate tags, worst {worst:.2e}",
    )


def test_criterion_4_balanced_qubit_breaks_idempotence():
    m = QubModel({"p": qubit(2**-0.5, 2**-0.5)})
    p1 = prob(evaluate(parse("p"), m))
    p2 = prob(evaluate(parse("p and p"), m))
    ok = abs(p1 - 0.5) <= 1e-12 and abs(p2 - 0.25) <= 1e-12 and p1 > p2
    _report(
        4,
        "balanced qubit gives Prob(p)=1/2 and Prob(p and p)=1/4",
        ok,
        f"p={p1!r}, p and p={p2!r}",
    )


def test_criterion_5_strong_distributivity():
    rng = random.Random(105)
    worst = -1.0
    count = 0
    start = time.perf_counter()
    while count < 500:
        alpha = random_sentence(rng, rng.randint(1, 3), ATOM_POOL[:3], allow_falsity=True)
        beta = random_sentence(rng, rng.randint(1, 3), ATOM_POOL[:3], allow_falsity=True)
        gamma = random_sentence(rng, rng.randint(1, 3), ATOM_POOL[:3], allow_falsity=True)
        lhs = conj(alpha, disj(beta, gamma))
        rhs = disj(conj(alpha, beta), conj(alpha, gamma))
        if atomic_complexity(rhs) > 14:
            continue
        m = model_for(rhs, seed=900 + count)
        worst = max(worst, prob(evaluate(lhs, m)) - prob(evaluate(rhs, m)))
        count += 1
    elapsed = time.perf_counter() - start
    _report(
        5,
        "Prob(a and (b or c)) <= Prob((a and b) or (a and c))",
        worst <= TOL and elapsed < 30.0,
        f"500 instances, worst excess {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_compiled_circuit_matches_recursive_evaluation():
    rng = random.Random(106)
    worst = 0.0
    count = 0
    while count < 300:
        s = random_sentence(rng, rng.randint(1, 12), allow_falsity=True)
        if atomic_complexity(s) > 12:
            continue
        m = model_for(s, seed=2000 + count)
        tree = build_tree(s)
        trace = run_with_trace(compile_tree(tree), input_state(tree, m))
        for i, state in enumerate(trace):
            worst = max(worst, max_amp_diff(state, level_state(tree, m, tree.height - 1 - i)))
        worst = max(worst, max_amp_diff(trace[-1], evaluate(s, m)))
        count += 1

    example = compile_tree(build_tree(parse("p and not p")))
    exact = example.n == 3 and example.layers == (
        Layer((Toffoli(1, 1),)),
        Layer((Identity1(), Not(1), Identity1())),
    )
    _report(
        6,
        "per-level layer action and end-to-end circuit output match recursive evaluation",
        worst <= TOL and exact,
        f"300 sentences, worst {worst:.2e}, worked example {'exact' if exact else 'WRONG'}",
    )


def test_criterion_7_random_sentences_are_refutable():
    rng = random.Random(107)
    failures = []
    for k in range(50):
        s = random_sentence(rng, rng.randint(1, 8), allow_falsity=False)
        sampler = ModelSampler(seed=4000 + k, delta=0.05)
        found = search_countermodel(s, trials=100, sampler=sampler)
        if found is None or prob(evaluate(s, found)) >= 1.0 - TOL:
            failures.append(s)
    contradiction_dual = parse("not (p and not p)")
    specific = search_countermodel(
        contradiction_dual, trials=100, sampler=ModelSampler(seed=4444, delta=0.05)
    )
    ok = not failures and specific is not None
    ok = ok and prob(evaluate(contradiction_dual, specific)) < 1.0 - TOL
    _report(
        7,
        "every sampled sentence (no bare falsity leaves) has a countermodel",
        ok,
        f"{50 - len(failures)}/50 refuted, plus not (p and not p)",
    )


def test_criterion_8_margin_models_keep_probabilities_interior():
    rng = random.Random(108)
    bad = 0
    for k in range(200):
        s = random_sentence(rng, rng.randint(1, 10), allow_falsity=False)
        m = model_for(s, seed=6000 + k, delta=0.05)
        p = prob(evaluate(s, m))
        if not TOL < p < 1.0 - TOL:
            bad += 1
    _report(
        8,
        "with margin-0.05 atoms, sentence probabilities avoid 0 and 1",
        bad == 0,
        f"200 pairs, {bad} violations",
    )


def test_criterion_9_no_boolean_unary_square_root_of_negation():
    witnesses = boolean_sqrt_not_witnesses()
    refuted = sum(w is not None for w in witnesses.values())
    ok = len(witnesses) == 4 and refuted == 4
    _report(
        9,
        "none of the 4 unary Boolean functions squares to negation",
        ok,
        f"{refuted}/4 refuted by witness",
    )


def test_criterion_10_classical_restriction_is_boolean():
    sentences = connective_sentences(("p", "q", "r"), 2)
    checked = 0
    ok = True
    for s in sentences:
        names = sorted(atom_names(s))
        for bits in itertools.product((0, 1), repeat=len(names)):
            env = dict(zip(names, bits))
            m = QubModel({nm: KET1 if b else KET0 for nm, b in env.items()})
            p = prob(evaluate(s, m))
            if p not in (0.0, 1.0) or int(p) != bool_eval(s, env):
                ok = False
            checked += 1
    _report(
        10,
        "sqrt-free sentences on basis-state models reproduce Boolean truth tables",
        ok,
        f"{len(sentences)} sentences, {checked} assignments, exact 0/1",
    )
