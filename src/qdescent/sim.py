"""Minimal exact statevector simulator.

Qubit 0 is the most significant register position: basis index i addresses
qubit k through bit (i >> (q - 1 - k)) & 1, so a state laid out as
(flag, select, working) reads top-to-bottom like a circuit diagram.
Dense amplitudes only, guarded to 20 qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, PostselectionError, PurificationError

MAX_QUBITS = 20  # dense amplitudes: 2^20 complex values are 16 MiB
_NORM_TOL = 1e-12

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class QState:
    """A pure state on num_qubits qubits (2^q complex amplitudes, unit norm)."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if not 0 <= self.num_qubits <= MAX_QUBITS:
            raise CapacityError(f"qubit count {self.num_qubits} outside [0, {MAX_QUBITS}]")
        a = np.array(self.amps, dtype=complex).reshape(-1)
        if a.shape[0] != 2**self.num_qubits:
            raise ValueError("amplitude count must be 2^num_qubits")
        if not abs(np.sum(np.abs(a) ** 2) - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError("state must be finite with norm 1 within 1e-12")
        object.__setattr__(self, "amps", a)

    @classmethod
    def zero(cls, num_qubits: int) -> "QState":
        a = np.zeros(2**num_qubits, dtype=complex)
        a[0] = 1.0
        return cls(num_qubits, a)


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state: Hermitian, trace one, positive semidefinite (to 1e-10)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError("entries must be dim x dim")
        if not np.all(np.isfinite(m)):
            raise ValueError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix must be Hermitian within 1e-10")
        if abs(np.trace(m).real - 1.0) > 1e-10:
            raise ValueError("density matrix must have unit trace within 1e-10")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite within 1e-10")
        object.__setattr__(self, "entries", m)


def _check_targets(q: int, targets: list[int]) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError("target qubits must be distinct")
    if any(t < 0 or t >= q for t in targets):
        raise ValueError("target qubit out of range")


def _block(tensor: np.ndarray, qubits: list[int], bits: list[int]) -> np.ndarray:
    """The view of a [2]*n tensor where the listed qubits take the given bits; the
    other axes keep their order."""
    return np.moveaxis(tensor, qubits, range(len(qubits)))[tuple(int(b) for b in bits)]


def apply_unitary(state: QState, u: np.ndarray, targets: list[int]) -> QState:
    """Apply a unitary on the listed target qubits: apply_controlled with no controls."""
    return apply_controlled(state, u, [], [], targets)


def apply_controlled(state: QState, u: np.ndarray, controls: list[int],
                     pattern: list[int], targets: list[int]) -> QState:
    """Apply a unitary on targets only where the control qubits match pattern."""
    if len(pattern) != len(controls):
        raise ValueError("pattern length must match control count")
    if set(controls) & set(targets):
        raise ValueError("controls and targets must be disjoint")
    _check_targets(state.num_qubits, list(controls) + list(targets))
    u = np.asarray(u, dtype=complex)
    if u.shape != (2 ** len(targets), 2 ** len(targets)):
        raise ValueError("unitary dimension must be 2^len(targets)")
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > 1e-10:
        raise ValueError("matrix is not unitary within 1e-10")
    tensor = state.amps.reshape([2] * state.num_qubits).copy()
    remaining = [k for k in range(state.num_qubits) if k not in controls]
    axes = [remaining.index(t) for t in targets]
    sub = np.moveaxis(_block(tensor, controls, pattern), axes, range(len(axes)))  # targets first
    sub[...] = (u @ sub.reshape(2 ** len(axes), -1)).reshape(sub.shape)
    return QState(state.num_qubits, tensor.reshape(-1))


def postselect(state: QState, qubits: list[int], outcome: list[int]) -> tuple[QState, float]:
    """Project the listed qubits onto a bit outcome, drop them, renormalize.

    Returns the renormalized remaining-register state and the exact
    projection probability.
    """
    if len(outcome) != len(qubits):
        raise ValueError("outcome length must match qubit count")
    _check_targets(state.num_qubits, qubits)
    sub = _block(state.amps.reshape([2] * state.num_qubits), qubits, outcome)
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= 1e-14:
        raise PostselectionError(f"outcome {outcome} on qubits {qubits} has probability {prob:.3e}")
    kept = sub.reshape(-1) / np.sqrt(prob)
    return QState(state.num_qubits - len(qubits), kept), prob


def to_density(state: QState) -> DensityMatrix:
    """|psi><psi| of a pure state."""
    a = state.amps
    return DensityMatrix(dim=a.shape[0], entries=np.outer(a, a.conj()))


def depolarize(rho: DensityMatrix, eps: float) -> DensityMatrix:
    """(1 - eps) rho + eps I/dim."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    mixed = np.eye(rho.dim) / rho.dim
    return DensityMatrix(dim=rho.dim, entries=(1.0 - eps) * rho.entries + eps * mixed)


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """tr(a b) / sqrt(tr(a^2) tr(b^2)) of two density matrices (checked _fidelity)."""
    if a.dim != b.dim:
        raise ValueError("density matrices must share a dimension")
    return _fidelity(a.entries, b.entries)


def _fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """fidelity's arithmetic on two square arrays the caller vouches are Hermitian, where tr(ab) is the
    Frobenius product Re vdot(a, b) and tr(a^2) is vdot(a, a): O(d^2), no matrix product."""
    return float(np.vdot(a, b).real / math.sqrt(np.vdot(a, a).real * np.vdot(b, b).real))


def purify(rho: DensityMatrix) -> np.ndarray:
    """Dominant eigenvector of a density matrix as a real unit vector (checked _dominant).

    The phase is fixed so the largest-magnitude component is real positive;
    remaining imaginary parts are discarded and the vector renormalized.
    Raises when the top eigenvalue is degenerate (gap < 1e-10).
    """
    return _dominant(rho.entries)


def _dominant(m: np.ndarray) -> np.ndarray:
    """purify's eigh, degeneracy check and phase fix, on an array the caller vouches is Hermitian."""
    vals, vecs = np.linalg.eigh(m)
    if m.shape[0] > 1 and vals[-1] - vals[-2] < 1e-10:
        raise PurificationError(f"top eigenvalue degenerate (gap {vals[-1] - vals[-2]:.3e})")
    v = vecs[:, -1]
    lead = np.argmax(np.abs(v))
    phase = v[lead] / abs(v[lead])
    v = np.ascontiguousarray((v / phase).real)  # as np.linalg.norm makes it before its dot
    return v / math.sqrt(v @ v)
