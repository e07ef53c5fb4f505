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


def _noise_round(y: np.ndarray, eps: float, d: int) -> tuple[np.ndarray, float]:
    """Depolarize y, zero-padded to d entries, and purify it back: with rho = |y><y| and
    noisy = (1 - eps) rho + eps I/d, the dominant eigenvector of noisy (phase fixed so its largest
    component is real positive, cut to len(y), renormalized) and the fidelity tr(rho noisy) /
    sqrt(tr rho^2 tr noisy^2), each trace of two Hermitian matrices an O(d^2) Frobenius product
    Re vdot(a, b).  A degenerate top eigenvalue (gap < 1e-10, as at eps = 1 for d > 1) raises
    PurificationError; the caller vouches for y, eps in [0, 1] and d >= len(y)."""
    amps = np.zeros(d, dtype=complex)
    amps[: len(y)] = y
    rho = np.outer(amps, amps.conj())
    noisy = (1.0 - eps) * rho + eps * (np.eye(d) / d)
    fid = float(np.vdot(rho, noisy).real / math.sqrt(np.vdot(rho, rho).real * np.vdot(noisy, noisy).real))
    vals, vecs = np.linalg.eigh(noisy)
    if d > 1 and vals[-1] - vals[-2] < 1e-10:
        raise PurificationError(f"top eigenvalue degenerate (gap {vals[-1] - vals[-2]:.3e})")
    v = vecs[:, -1]
    lead = np.argmax(np.abs(v))
    phase = v[lead] / abs(v[lead])
    v = np.ascontiguousarray((v / phase).real)  # as np.linalg.norm makes it before its dot
    v = (v / math.sqrt(v @ v))[: len(y)]
    return v / math.sqrt(v @ v), fid
