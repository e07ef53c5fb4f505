"""Tensor-decomposed homogeneous polynomial objectives on the unit sphere.

An objective of even order 2p is held as

    f(x) = s * sum_a prod_{i=1..p} (x^T A_i^a x)

with every factor ``A_i^a`` unitary.  From a point x the module derives the
Rayleigh quotients b, their per-term products M, the linear-combination
weights c, and the operator D = sum_m c_m A_m whose action on x is the descent
direction used by both the classical oracle iteration and the quantum pipeline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateStepError

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_BY_LABEL = {
    "I": PAULI_I,
    "-I": -PAULI_I,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
}

_UNITARITY_TOL = 1e-10
_SYMMETRY_TOL = 1e-12
_EXPAND_GUARD = 2**20


def _is_unitary(m: np.ndarray, tol: float = _UNITARITY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return m.shape[0] == m.shape[1] and np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= tol


@dataclass(frozen=True)
class UnitaryFactor:
    """One unitary factor A_i^a of the decomposition."""

    matrix: np.ndarray
    label: str | None = None  # Pauli tag for compact I/O, None for dense factors

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("factor must be a square matrix")
        if not _is_unitary(m):
            raise ValueError("factor is not unitary within 1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def symmetric(self) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.T)) <= _SYMMETRY_TOL)

    @classmethod
    def from_pauli(cls, label: str) -> "UnitaryFactor":
        if label not in PAULI_BY_LABEL:
            raise ValueError(f"unknown Pauli label {label!r}")
        return cls(PAULI_BY_LABEL[label], label=label)


@dataclass(frozen=True)
class TensorDecomposition:
    """A = sum_a A_1^a (x) ... (x) A_p^a, stored as K terms of p factors plus a scalar prefactor."""

    dim: int
    order_p: int
    terms: tuple
    prefactor: float = 1.0

    def __post_init__(self):
        terms = tuple(tuple(t) for t in self.terms)
        if len(terms) < 1:
            raise ValueError("need at least one term")
        if self.order_p < 1:
            raise ValueError("order p must be >= 1")
        for term in terms:
            if len(term) != self.order_p:
                raise ValueError("every term must have exactly p factors")
            for f in term:
                if f.dim != self.dim:
                    raise ValueError("all factors must share the decomposition dimension")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "prefactor", float(self.prefactor))

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def flat_count(self) -> int:
        """Total flattened factor count K*p."""
        return self.num_terms * self.order_p

    def flattened_factors(self) -> list[UnitaryFactor]:
        """Factors in flattened order m = (a-1)*p + j."""
        return [f for term in self.terms for f in term]


@dataclass(frozen=True)
class Point:
    """A real unit vector, the current iterate under the spherical constraint."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1:
            raise ValueError("point must be a 1-D real vector")
        if not abs(np.linalg.norm(c) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("point must be finite with unit norm within 1e-12")
        object.__setattr__(self, "coords", c)

    @classmethod
    def normalized(cls, coords) -> "Point":
        c = np.asarray(coords, dtype=float)
        n = np.linalg.norm(c)
        if not 0 < n < math.inf:
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(c / n)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class CoefficientSet:
    """Rayleigh quotients b, per-term products M, flattened weights c, and the
    normalizer beta = 1 + sum |c_m|."""

    b: np.ndarray       # K x p
    big_m: np.ndarray   # K
    c: np.ndarray       # K*p, order m = (a-1)*p + j
    total_weight: float


def _as_vector(x) -> np.ndarray:
    return x.coords if isinstance(x, Point) else np.asarray(x, dtype=float)


def _check_dim(decomp: TensorDecomposition, x) -> np.ndarray:
    v = _as_vector(x)
    if v.shape != (decomp.dim,):
        raise ValueError(f"point dimension {v.shape} does not match decomposition dim {decomp.dim}")
    return v


def expand_coefficients(decomp: TensorDecomposition) -> np.ndarray:
    """Dense rank-2p coefficient tensor of the naive polynomial form.

    Index pairs (i_k, i_{p+k}) address factor k's row and column, so the full
    contraction against x (2p copies) reproduces evaluate_objective.  Guarded
    to N^(2p) <= 2^20 entries.
    """
    n, p = decomp.dim, decomp.order_p
    if n ** (2 * p) > _EXPAND_GUARD:
        raise CapacityError(f"dense tensor would need {n**(2*p)} entries (guard {_EXPAND_GUARD})")
    out = np.zeros((n,) * (2 * p), dtype=complex)
    for term in decomp.terms:
        t = term[0].matrix
        for f in term[1:]:
            t = np.multiply.outer(t, f.matrix)
        # axes currently ordered (i1, j1, i2, j2, ...); regroup rows then columns
        perm = list(range(0, 2 * p, 2)) + list(range(1, 2 * p, 2))
        out += np.transpose(t, perm)
    out *= decomp.prefactor
    # the imaginary part of the raw product tensor cancels in every contraction
    # with real vectors (the objective is real), so the real tensor is returned
    return out.real


def evaluate_objective(decomp: TensorDecomposition, x) -> float:
    """f(x) = s * sum_a prod_i (x^T A_i^a x).

    Accepts a Point or a raw real vector; raw vectors need not be unit norm,
    which finite-difference checks rely on.
    """
    v = _check_dim(decomp, x)
    total = 0.0
    for term in decomp.terms:
        prod = 1.0
        for f in term:
            prod *= _real_quadratic_form(f.matrix, v)
        total += prod
    return decomp.prefactor * total


def _real_quadratic_form(m: np.ndarray, v: np.ndarray) -> float:
    val = v @ m @ v
    if abs(val.imag) > 1e-12:
        raise ValueError("quadratic form has a non-negligible imaginary part")
    return float(val.real)


def rayleigh(factor: UnitaryFactor, x) -> float:
    """The expectation b = x^T A x for a real point."""
    v = _as_vector(x)
    if v.shape != (factor.dim,):
        raise ValueError("point dimension does not match factor dimension")
    return _real_quadratic_form(factor.matrix, v)


def coefficients(decomp: TensorDecomposition, x) -> CoefficientSet:
    """b, M, and the flattened weights c_m = s * prod_{i != j} b_i^a.

    The weights are built by direct product over the other factors of the
    term, never by dividing M by b_j, so zero quotients are well defined.
    """
    v = _check_dim(decomp, x)
    k, p = decomp.num_terms, decomp.order_p
    b = np.empty((k, p))
    for a, term in enumerate(decomp.terms):
        for j, f in enumerate(term):
            b[a, j] = _real_quadratic_form(f.matrix, v)
    big_m = np.prod(b, axis=1)
    c = np.empty(k * p)
    for a in range(k):
        for j in range(p):
            prod = decomp.prefactor
            for i in range(p):
                if i != j:
                    prod *= b[a, i]
            c[a * p + j] = prod
    return CoefficientSet(b=b, big_m=big_m, c=c, total_weight=1.0 + float(np.sum(np.abs(c))))


def build_d(decomp: TensorDecomposition, x) -> np.ndarray:
    """D = sum_m c_m A_m at the given point."""
    coeff = coefficients(decomp, x)
    mat = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for c_m, factor in zip(coeff.c, decomp.flattened_factors()):
        mat += c_m * factor.matrix
    return mat


def classical_gradient(decomp: TensorDecomposition, x) -> np.ndarray:
    """The linear descent direction D(x) x.

    For all-symmetric factors the true Euclidean gradient of the objective is
    twice this vector; the factor 2 is left to callers (and is covered by the
    finite-difference tests).
    """
    v = _check_dim(decomp, x)
    g = build_d(decomp, x) @ v
    if np.max(np.abs(g.imag)) > 1e-10:
        raise ValueError("descent direction is not real; factors must be real-symmetric-like")
    return g.real


def classical_iterate(decomp: TensorDecomposition, x: Point, eta: float) -> tuple[Point, float]:
    """One normalized descent step: normalize(x - eta*D*x).

    Returns the new point together with the pre-normalization step norm
    ||x - eta*D*x||, which the quantum pipeline's success probability needs.
    """
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    v = _check_dim(decomp, x)
    y = v - eta * classical_gradient(decomp, x)
    n = float(np.linalg.norm(y))
    if n < 1e-14:
        raise DegenerateStepError("descent step annihilated the point (x == eta*D*x)")
    return Point(y / n), n


def is_stationary(decomp: TensorDecomposition, x, tol: float) -> bool:
    """True iff D x is parallel to x (the constrained first-order condition)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = _check_dim(decomp, x)
    g = classical_gradient(decomp, x)
    return bool(np.linalg.norm(g - (v @ g) * v) <= tol)


def pauli_label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a multi-qubit Pauli string such as "XZ" or "IY"."""
    mats = [PAULI_BY_LABEL[ch] for ch in label]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def pauli_decompose(matrix: np.ndarray, tol: float = 1e-12) -> dict[str, float]:
    """Real coefficients of a symmetric matrix over the Pauli-string basis.

    Works on 2^q x 2^q real symmetric matrices; coefficients are
    tr(P M) / 2^q and strings with (numerically) zero weight are dropped.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    q = int(round(math.log2(n)))
    if m.shape != (n, n) or 2**q != n:
        raise ValueError("matrix must be square with power-of-two dimension")
    out: dict[str, float] = {}
    for combo in itertools.product("IXYZ", repeat=q):
        label = "".join(combo)
        coeff = np.trace(pauli_label_matrix(label) @ m) / n
        if abs(coeff.imag) > 1e-9:
            raise ValueError("matrix is not symmetric real: complex Pauli weight found")
        if abs(coeff.real) > tol:
            out[label] = float(coeff.real)
    return out


def factor_to_dict(factor: UnitaryFactor) -> dict:
    if factor.label is not None:
        return {"pauli": factor.label}
    flat = [[float(z.real), float(z.imag)] for z in factor.matrix.reshape(-1)]
    return {"dense": flat}


def factor_from_dict(d: dict, dim: int) -> UnitaryFactor:
    if "pauli" in d:
        f = UnitaryFactor.from_pauli(d["pauli"])
        if f.dim != dim:
            raise ValueError("Pauli factor is 2x2 but decomposition dim differs")
        return f
    if "dense" in d:
        flat = d["dense"]
        if len(flat) != dim * dim:
            raise ValueError(f"dense factor needs {dim*dim} [re,im] pairs, got {len(flat)}")
        vals = np.array([complex(re, im) for re, im in flat]).reshape(dim, dim)
        return UnitaryFactor(vals)
    raise ValueError("factor must carry either a 'pauli' or a 'dense' key")


def decomposition_to_dict(decomp: TensorDecomposition) -> dict:
    return {
        "dim": decomp.dim,
        "p": decomp.order_p,
        "prefactor": decomp.prefactor,
        "terms": [[factor_to_dict(f) for f in term] for term in decomp.terms],
    }


def decomposition_from_dict(d: dict) -> TensorDecomposition:
    try:
        dim = int(d["dim"])
        p = int(d["p"])
        prefactor = float(d.get("prefactor", 1.0))
        raw_terms = d["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed decomposition JSON: {exc}") from exc
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("decomposition needs a non-empty 'terms' list")
    terms = []
    for term in raw_terms:
        if not isinstance(term, list) or len(term) != p:
            raise ValueError("every term must list exactly p factors")
        terms.append([factor_from_dict(f, dim) for f in term])
    return TensorDecomposition(dim=dim, order_p=p, terms=terms, prefactor=prefactor)
