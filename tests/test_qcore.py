"""Register construction, gate semantics, and the probability value.

Index convention under test everywhere: basis label x1..xn lives at
index 2^(n-1)*x1 + ... + xn, so the last qubit is the index's LSB and
odd indices carry the truth mass.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    EPS_VEC,
    definite_last_bit_state,
    dense_matrix,
    dense_oracle_apply,
    haar_state,
    max_amp_diff,
    or_op,
    reference_gate_amps,
)
from qct.errors import ArityMismatch, CapacityExceeded
from qct.qcore import (
    KET0,
    KET1,
    N_MAX,
    Identity1,
    Not,
    QRegister,
    SqrtNot,
    Toffoli,
    and_op,
    apply_gate,
    apply_not,
    apply_sqrt_not,
    basis_state,
    prob,
    qubit,
    tensor,
)

H_PLUS = 0.5 + 0.5j
H_MINUS = 0.5 - 0.5j
INV_SQRT2 = 1 / np.sqrt(2)

BALANCED = qubit(INV_SQRT2, INV_SQRT2)


def test_basis_state_uses_big_endian_indexing():
    assert np.argmax(basis_state(1, 0).amps) == 2
    assert np.argmax(basis_state(1, 1, 0).amps) == 6
    assert np.argmax(basis_state(0, 0, 1).amps) == 1


def test_basis_state_rejects_bad_bits():
    with pytest.raises(ValueError):
        basis_state(0, 2)
    with pytest.raises(ValueError):
        basis_state()


def test_register_validates_norm_and_length():
    with pytest.raises(ValueError):
        QRegister(1, [1.0, 1.0])
    with pytest.raises(ValueError):
        QRegister(2, [1.0, 0.0])
    with pytest.raises(ValueError):
        QRegister(0, [1.0])


def test_public_constructor_copies_the_callers_array():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    psi = QRegister(1, amps)
    amps[:] = [0.0, 1.0]
    assert psi.amps.tolist() == [1.0, 0.0]


@pytest.mark.parametrize(
    "amps", [[1.0, 1.0], [np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0.0, np.inf)]]
)
@pytest.mark.parametrize("make", [QRegister, QRegister._owned])
def test_both_constructors_reject_non_unit_or_non_finite_amplitudes(make, amps):
    with pytest.raises(ValueError, match="unit norm"):
        make(1, np.array(amps, dtype=np.complex128))


def test_owned_constructor_checks_width_and_capacity():
    with pytest.raises(ValueError):
        QRegister._owned(2, np.array([1.0, 0.0], dtype=np.complex128))
    with pytest.raises(CapacityExceeded):  # refused before the shape is read
        QRegister._owned(N_MAX + 1, np.array([1.0, 0.0], dtype=np.complex128))


def test_register_amplitudes_are_read_only():
    psi = basis_state(0)
    with pytest.raises(ValueError):
        psi.amps[0] = 0.5


def test_tensor_concatenates_labels():
    t = tensor(BALANCED, KET1)
    assert np.allclose(t.amps, [0, INV_SQRT2, 0, INV_SQRT2], atol=1e-12)
    t2 = tensor(tensor(KET1, KET1), KET0)
    assert np.argmax(t2.amps) == 6
    assert t2.n == 3


def test_tensor_respects_capacity():
    a = basis_state(*[0] * 15)
    with pytest.raises(CapacityExceeded):
        tensor(a, a)


def test_apply_not_inverts_last_qubit():
    bell = QRegister(2, [INV_SQRT2, 0, 0, INV_SQRT2])
    flipped = apply_not(bell)
    assert np.allclose(flipped.amps, [0, INV_SQRT2, INV_SQRT2, 0], atol=1e-12)
    assert np.allclose(apply_not(KET0).amps, KET1.amps)
    # involution
    assert max_amp_diff(apply_not(flipped), bell) < 1e-12


def test_sqrt_not_basis_action():
    assert np.allclose(apply_sqrt_not(KET0).amps, [H_PLUS, H_MINUS], atol=1e-12)
    assert np.allclose(apply_sqrt_not(KET1).amps, [H_MINUS, H_PLUS], atol=1e-12)


def test_sqrt_not_maps_halfway_point_to_one():
    # dense 2x2 product oracle: M @ (H_PLUS, H_MINUS) = (0, 1) exactly
    halfway = qubit(H_PLUS, H_MINUS)
    assert np.allclose(apply_sqrt_not(halfway).amps, [0.0, 1.0], atol=1e-12)


def test_sqrt_not_squares_to_not_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(60):
        psi = haar_state(rng, int(rng.integers(1, 7)))
        twice = apply_sqrt_not(apply_sqrt_not(psi))
        assert max_amp_diff(twice, apply_not(psi)) <= EPS_VEC


def test_apply_toffoli_conjoins_control_bits():
    inp = tensor(tensor(BALANCED, KET1), KET0)
    out = apply_gate(inp, Toffoli(1, 1))
    # (|010> + |110>)/sqrt2 -> (|010> + |111>)/sqrt2
    expected = np.zeros(8, dtype=complex)
    expected[2] = INV_SQRT2
    expected[7] = INV_SQRT2
    assert np.allclose(out.amps, expected, atol=1e-12)
    assert np.argmax(apply_gate(basis_state(1, 1, 0), Toffoli(1, 1)).amps) == 7
    assert np.argmax(apply_gate(basis_state(1, 0, 0), Toffoli(1, 1)).amps) == 4


def test_apply_toffoli_checks_width():
    with pytest.raises(ArityMismatch):
        apply_gate(basis_state(0, 0), Toffoli(1, 1))


def test_toffoli_controls_are_block_last_qubits():
    # r=2, s=1: controls are qubit 2 (of the first block) and qubit 3
    psi = basis_state(0, 1, 1, 0)
    assert np.argmax(apply_gate(psi, Toffoli(2, 1)).amps) == 0b0111
    psi = basis_state(1, 0, 1, 0)
    assert np.argmax(apply_gate(psi, Toffoli(2, 1)).amps) == 0b1010


def test_and_op_examples():
    assert np.argmax(and_op(KET1, KET1).amps) == 7
    assert prob(and_op(KET1, KET0)) == 0.0
    assert and_op(KET1, KET0).n == 3
    assert prob(and_op(BALANCED, BALANCED)) == pytest.approx(0.25, abs=1e-12)


def test_and_op_checks_capacity_before_allocating():
    a = basis_state(*[0] * 14)
    with pytest.raises(CapacityExceeded):
        and_op(a, a)


def test_or_op_examples():
    assert prob(or_op(KET0, KET0)) == 0.0
    assert prob(or_op(KET1, KET0)) == pytest.approx(1.0, abs=1e-12)
    assert prob(or_op(KET0, KET1)) == pytest.approx(1.0, abs=1e-12)
    assert or_op(KET0, KET0).n == 3


def test_prob_reads_odd_indices():
    assert prob(KET1) == 1.0
    assert prob(KET0) == 0.0
    assert prob(basis_state(1, 0)) == 0.0
    assert prob(BALANCED) == pytest.approx(0.5, abs=1e-12)


def test_prob_complement_law():
    rng = np.random.default_rng(11)
    for _ in range(40):
        psi = haar_state(rng, int(rng.integers(1, 7)))
        assert prob(apply_not(psi)) == pytest.approx(1 - prob(psi), abs=1e-9)


def test_prob_product_law():
    rng = np.random.default_rng(12)
    for _ in range(40):
        psi = haar_state(rng, int(rng.integers(1, 5)))
        phi = haar_state(rng, int(rng.integers(1, 5)))
        assert prob(and_op(psi, phi)) == pytest.approx(
            prob(psi) * prob(phi), abs=1e-9
        )


def test_prob_disjunction_law():
    rng = np.random.default_rng(13)
    for _ in range(40):
        psi = haar_state(rng, int(rng.integers(1, 5)))
        phi = haar_state(rng, int(rng.integers(1, 5)))
        p, q = prob(psi), prob(phi)
        assert prob(or_op(psi, phi)) == pytest.approx(p + q - p * q, abs=1e-9)


def test_sqrt_not_prob_closed_form():
    # direct formula over odd indices, written from the amplitude rule
    rng = np.random.default_rng(14)
    for _ in range(40):
        psi = haar_state(rng, int(rng.integers(1, 7)))
        c = psi.amps
        expected = sum(
            abs(H_MINUS * c[j - 1] + H_PLUS * c[j]) ** 2
            for j in range(1, c.size, 2)
        )
        assert prob(apply_sqrt_not(psi)) == pytest.approx(expected, abs=1e-9)


def test_sqrt_not_commutes_with_not_in_prob():
    rng = np.random.default_rng(15)
    for _ in range(40):
        psi = haar_state(rng, int(rng.integers(1, 7)))
        a = prob(apply_sqrt_not(apply_not(psi)))
        b = prob(apply_not(apply_sqrt_not(psi)))
        assert a == pytest.approx(b, abs=1e-9)


def test_sqrt_not_balanced_on_definite_last_bit_states():
    rng = np.random.default_rng(16)
    for _ in range(40):
        psi = definite_last_bit_state(rng, int(rng.integers(1, 7)))
        assert prob(apply_sqrt_not(psi)) == pytest.approx(0.5, abs=1e-9)


def test_gates_preserve_norm():
    rng = np.random.default_rng(17)
    psi = haar_state(rng, 5)
    for out in (
        apply_not(psi),
        apply_sqrt_not(psi),
        apply_gate(psi, Toffoli(2, 2)),
    ):
        assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)


def test_apply_gate_block_offsets():
    # NOT(1) at offset 1 of three qubits flips the middle label bit
    out = apply_gate(basis_state(0, 0, 0), Not(1), offset=1)
    assert np.argmax(out.amps) == 0b010
    out = apply_gate(basis_state(0, 0, 0), SqrtNot(2), offset=1)
    assert np.allclose(out.amps, [H_PLUS, H_MINUS, 0, 0, 0, 0, 0, 0], atol=1e-12)


def test_apply_gate_rejects_overflowing_blocks():
    psi = basis_state(0, 0)
    with pytest.raises(ArityMismatch):
        apply_gate(psi, Not(2), offset=1)
    with pytest.raises(ArityMismatch):
        apply_gate(psi, Identity1(), offset=-1)


def test_gate_tags_validate_arity_fields():
    with pytest.raises(ValueError):
        Not(0)
    with pytest.raises(ValueError):
        SqrtNot(-1)
    with pytest.raises(ValueError):
        Toffoli(0, 1)
    assert Toffoli(2, 3).arity == 6
    assert Identity1().arity == 1


def test_dense_matrix_small_cases():
    assert np.array_equal(dense_matrix(Not(1)), [[0, 1], [1, 0]])
    snot = dense_matrix(SqrtNot(1))
    assert np.allclose(snot @ snot, dense_matrix(Not(1)), atol=1e-12)
    t = dense_matrix(Toffoli(1, 1))
    expected = np.eye(8)
    expected[[6, 7]] = expected[[7, 6]]
    assert np.array_equal(t, expected)
    assert np.array_equal(dense_matrix(Identity1()), np.eye(2))


def test_dense_oracle_matches_structured_application():
    rng = np.random.default_rng(18)
    tags = [Identity1()]
    tags += [Not(r) for r in range(1, 9)]
    tags += [SqrtNot(r) for r in range(1, 9)]
    tags += [Toffoli(r, s) for r in range(1, 7) for s in range(1, 8 - r)]
    for tag in tags:
        psi = haar_state(rng, tag.arity)
        assert max_amp_diff(dense_oracle_apply(psi, tag), apply_gate(psi, tag)) <= EPS_VEC


def test_dense_oracle_scale_and_arity_limits():
    with pytest.raises(ArityMismatch):
        dense_oracle_apply(basis_state(0, 0), Not(1))
    rng = np.random.default_rng(19)
    with pytest.raises(CapacityExceeded):
        dense_oracle_apply(haar_state(rng, 11), Not(11))


@st.composite
def gate_placements(draw):
    """A register size n <= 10, a gate that fits it, and an offset."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from([Not, SqrtNot, Toffoli] if n >= 3 else [Not, SqrtNot]))
    if kind is Toffoli:
        r = draw(st.integers(1, n - 2))
        gate = Toffoli(r, draw(st.integers(1, n - 1 - r)))
    else:
        gate = kind(draw(st.integers(1, n)))
    return n, gate, draw(st.integers(0, n - gate.arity))


def signed_zero_state(rng: np.random.Generator, n: int) -> QRegister:
    """Random unit vector in which about a third of the parts are +0 or -0."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    for part in (v.real, v.imag):
        zero = rng.random(v.size) < 0.3
        part[zero] = np.copysign(0.0, rng.standard_normal(zero.sum()))
    if not np.any(v):
        v[0] = 1.0
    return QRegister(n, v / np.linalg.norm(v))


@given(gate_placements(), st.integers(0, 2**32 - 1))
def test_gate_kernels_match_the_index_arithmetic_reference(placement, seed):
    n, gate, offset = placement
    psi = signed_zero_state(np.random.default_rng(seed), n)
    out = apply_gate(psi, gate, offset)
    ref = reference_gate_amps(psi, gate, offset)
    assert np.array_equal(out.amps, ref)
    assert np.array_equal(np.signbit(out.amps.real), np.signbit(ref.real))
    assert np.array_equal(np.signbit(out.amps.imag), np.signbit(ref.imag))
    assert not out.amps.flags.writeable
    assert not np.shares_memory(out.amps, psi.amps)
