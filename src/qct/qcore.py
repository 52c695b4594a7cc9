"""Quregisters and the structural logic gates that act on them.

Basis indexing is big-endian: the basis vector labelled x1..xn sits at
index j = 2^(n-1)*x1 + ... + 2*x(n-1) + xn, so the LAST qubit of a
register is the LEAST significant bit of the index.  The truth mass of
a register is the weight on odd indices (last qubit equal to 1), which
is why every connective gate here targets last qubits.

Gates are applied through reshaped views of the amplitude array, never
by building a 2^n x 2^n matrix or an index array.  Each gate step writes
one fresh array and checks it once, without copying it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ArityMismatch, CapacityExceeded

EPS_NORM = 1e-9
EPS_PROB = 1e-9

# The largest register the package builds: a 2^28 x 16-byte (4 GiB) state.
N_MAX = 28

# (1 +- i)/2, the two entries of the square-root-of-NOT mixing matrix.
_HALF_PLUS = 0.5 + 0.5j
_HALF_MINUS = 0.5 - 0.5j


@dataclass(frozen=True, eq=False)
class QRegister:
    """Immutable unit vector over n qubits.

    `amps` has length 2^n and unit norm within EPS_NORM.  Global phase
    is significant: two registers differing by a phase are different
    values, and no operation normalises it away.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amps", _checked(self.n, self.amps, copy=True))

    @classmethod
    def _owned(cls, n: int, arr: np.ndarray) -> QRegister:
        """Register over an array a kernel has just made: checked, not copied."""
        psi = object.__new__(cls)
        object.__setattr__(psi, "n", n)
        object.__setattr__(psi, "amps", _checked(n, arr, copy=False))
        return psi


def _checked(n: int, amps: object, copy: bool) -> np.ndarray:
    """Read-only complex amplitudes for n qubits, of finite unit norm."""
    if n < 1:
        raise ValueError(f"register needs at least 1 qubit, got n={n}")
    if n > N_MAX:
        raise CapacityExceeded(f"n={n} exceeds the n_max={N_MAX} limit")
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.shape != (1 << n,):
        raise ValueError(
            f"expected {1 << n} amplitudes for n={n}, got shape {arr.shape}"
        )
    norm2 = float(np.vdot(arr, arr).real)
    if not abs(norm2 - 1.0) <= EPS_NORM:  # NaN and inf fail too
        raise ValueError(f"amplitudes are not unit norm: |psi|^2 = {norm2!r}")
    if copy:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


def basis_state(*bits: int) -> QRegister:
    """Computational basis vector |x1,...,xn> for the given bits."""
    if not bits:
        raise ValueError("basis_state needs at least one bit")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")
    index = 0
    for b in bits:
        index = (index << 1) | b
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[index] = 1.0
    return QRegister(len(bits), amps)


def qubit(c0: complex, c1: complex) -> QRegister:
    """One-qubit register c0|0> + c1|1>."""
    return QRegister(1, np.array([c0, c1], dtype=np.complex128))


KET0 = basis_state(0)
KET1 = basis_state(1)


@dataclass(frozen=True)
class Identity1:
    """One-qubit identity wire."""

    # a class attribute, not a property: a circuit holds far more wires
    # than gates, and reading it then runs no Python code per wire
    arity: ClassVar[int] = 1


@dataclass(frozen=True)
class Not:
    """Negation on an r-qubit block: inverts the block's last qubit."""

    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"Not needs r >= 1, got {self.r}")

    @property
    def arity(self) -> int:
        return self.r


@dataclass(frozen=True)
class SqrtNot:
    """Square root of negation on an r-qubit block.

    Sends the block's last qubit |x> to ((1+i)|x> + (1-i)|1-x>)/2;
    applied twice it equals Not(r).
    """

    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"SqrtNot needs r >= 1, got {self.r}")

    @property
    def arity(self) -> int:
        return self.r


@dataclass(frozen=True)
class Toffoli:
    """Petri-Toffoli gate on r + s + 1 qubits.

    Controls are the last qubit of the leading r-qubit block and the
    last qubit of the following s-qubit block; the final ancilla qubit
    receives their conjunction: |x>|y>|z> -> |x>|y>|(x_r AND y_s) XOR z>.
    """

    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.s < 1:
            raise ValueError(f"Toffoli needs r, s >= 1, got r={self.r}, s={self.s}")

    @property
    def arity(self) -> int:
        return self.r + self.s + 1


GateTag = Identity1 | Not | SqrtNot | Toffoli


def tensor(a: QRegister, b: QRegister) -> QRegister:
    """Tensor product; a's qubits precede b's."""
    if a.n + b.n > N_MAX:
        raise CapacityExceeded(
            f"tensor of n={a.n} and n={b.n} exceeds the n_max={N_MAX} limit"
        )
    return QRegister._owned(a.n + b.n, np.kron(a.amps, b.amps))


def _flip_bit(amps: np.ndarray, t: int) -> np.ndarray:
    """Permutation that inverts bit t (counted from the LSB)."""
    # written into a fresh array: at n=1 flattening the reversed view
    # would return a view of the input, not a copy
    out = np.empty_like(amps)
    out.reshape(-1, 2, 1 << t)[:] = amps.reshape(-1, 2, 1 << t)[:, ::-1, :]
    return out


def _mix_bit(amps: np.ndarray, t: int) -> np.ndarray:
    """Square-root-of-NOT mixing on bit t."""
    v = amps.reshape(-1, 2, 1 << t)
    out = np.empty_like(v)
    out[:, 0, :] = _HALF_PLUS * v[:, 0, :] + _HALF_MINUS * v[:, 1, :]
    out[:, 1, :] = _HALF_MINUS * v[:, 0, :] + _HALF_PLUS * v[:, 1, :]
    return out.reshape(-1)


def _toffoli_bits(amps: np.ndarray, c1: int, c2: int) -> np.ndarray:
    """Invert bit c2 - 1 exactly where bits c1 > c2 are both set."""
    out = amps.copy()
    # axes: rest, bit c1, bits between, bit c2, bit c2 - 1, bits below
    v = out.reshape(-1, 2, 1 << (c1 - c2 - 1), 2, 2, 1 << (c2 - 1))[:, 1, :, 1]
    low = v[:, :, 0].copy()
    v[:, :, 0] = v[:, :, 1]
    v[:, :, 1] = low
    return out


def apply_gate(psi: QRegister, gate: GateTag, offset: int = 0) -> QRegister:
    """Apply `gate` to the qubit block starting at `offset` (0-based).

    Qubits outside the block are untouched.  With offset 0 and a gate
    spanning the whole register this is the plain gate application.
    """
    width = gate.arity
    if offset < 0 or offset + width > psi.n:
        raise ArityMismatch(
            f"gate of arity {width} at offset {offset} does not fit in n={psi.n}"
        )
    if isinstance(gate, Identity1):
        return psi
    if isinstance(gate, Not):
        t = psi.n - offset - gate.r
        return QRegister._owned(psi.n, _flip_bit(psi.amps, t))
    if isinstance(gate, SqrtNot):
        t = psi.n - offset - gate.r
        return QRegister._owned(psi.n, _mix_bit(psi.amps, t))
    if isinstance(gate, Toffoli):
        c1 = psi.n - offset - gate.r
        c2 = psi.n - offset - gate.r - gate.s
        return QRegister._owned(psi.n, _toffoli_bits(psi.amps, c1, c2))
    raise TypeError(f"unknown gate tag: {gate!r}")


def apply_not(psi: QRegister) -> QRegister:
    """Negation of the whole register: inverts its last qubit."""
    return apply_gate(psi, Not(psi.n))


def apply_sqrt_not(psi: QRegister) -> QRegister:
    """Square root of negation on the whole register's last qubit."""
    return apply_gate(psi, SqrtNot(psi.n))


def and_op(psi: QRegister, phi: QRegister) -> QRegister:
    """Conjunction: Toffoli applied to psi (x) phi (x) |0>.

    The result lives on psi.n + phi.n + 1 qubits; its last qubit holds
    the conjunction of the two inputs' last qubits.
    """
    if psi.n + phi.n + 1 > N_MAX:
        raise CapacityExceeded(
            f"conjunction of n={psi.n} and n={phi.n} needs {psi.n + phi.n + 1} "
            f"qubits, exceeding the n_max={N_MAX} limit"
        )
    return apply_gate(tensor(tensor(psi, phi), KET0), Toffoli(psi.n, phi.n))


def prob(psi: QRegister) -> float:
    """Probability value: total weight on odd indices (last qubit 1).

    Clamped into [0, 1] so accumulated rounding cannot push it outside.
    """
    odd = psi.amps[1::2]
    p = float(np.sum(odd.real**2 + odd.imag**2))
    return min(max(p, 0.0), 1.0)
