"""Tensor-decomposed homogeneous polynomial objectives on the unit sphere.

An objective of even order 2p is held as

    f(x) = s * sum_a prod_{i=1..p} (x^T A_i^a x)

with every factor ``A_i^a`` unitary.  From a point x the module derives the
Rayleigh quotients b and the linear-combination weights c, which weigh the
factor images A_m x into the descent direction D x = sum_m c_m A_m x used by
both the classical oracle iteration and the quantum pipeline.  One pass over the
factors forms every A_m x, which gives b and D x alike; D is never built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import CapacityError, DegenerateStepError

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PAULI_LETTERS = np.array(list("IXYZ"))  # digit d is letter _PAULI_LETTERS[d]
_PAULI_HALF_T = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]).T.reshape(4, 4) / 2  # [2r + c, s] = sigma_s[c, r] / 2

_EXPAND_GUARD = 2**20
_DECOMPOSE_TOL = 1e-12  # pauli_decompose drops strings whose weight is at most this


@dataclass(frozen=True)
class UnitaryFactor:
    """One dense unitary factor A_i^a, copied and checked once when built; float64 when real, else complex128."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
            raise ValueError("factor must be a non-empty square matrix")
        if not np.isfinite(m).all():  # before the matmul, which would warn on inf
            raise ValueError("factor entries must be finite")
        if not np.any(m.imag):
            m = np.ascontiguousarray(m.real)
        if not np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) <= 1e-10:
            raise ValueError("factor is not unitary within 1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _pauli_tables(labels) -> tuple[np.ndarray, np.ndarray]:
    """_digit_tables of K Pauli labels on the same qubits, a leading "-" as one negation."""
    digits, negated = [], []
    for lbl in labels:
        body = lbl.removeprefix("-") if isinstance(lbl, str) else ""
        if not body or body.strip("IXYZ"):
            raise ValueError(f"unknown Pauli string {lbl!r}")
        digits.append(["IXYZ".index(ch) for ch in body])
        negated.append(len(lbl) - len(body))
    if len(set(map(len, digits))) != 1:
        raise ValueError("need one or more Pauli strings, all on the same number of qubits")
    return _digit_tables(np.array(digits), np.array(negated))


def _digit_tables(digits: np.ndarray, negated) -> tuple[np.ndarray, np.ndarray]:
    """The (K, 2^q) column and phase tables of K strings as (K, q) base-4 digits, IXYZ = 0123, qubit 0 the
    top bit.  Row r of string k holds (-i)^#Y (-1)^popcount(r & zmask), negated negated[k] times, in column
    r ^ xmask (xmask marks X or Y, zmask Y or Z).  Phases stay complex: real ones move 6 golden outputs."""
    q = digits.shape[1]
    if q > sim.MAX_QUBITS:
        raise CapacityError(f"Pauli string needs {q} qubits (cap {sim.MAX_QUBITS})")
    is_y = digits == 2
    place = 1 << np.arange(q - 1, -1, -1)
    xmask = ((digits == 1) | is_y) @ place
    zmask = (digits >= 2) @ place
    k = (is_y.sum(axis=1) + 2 * negated) % 4  # a leading "-" is (-i)^2
    parity = np.zeros(1, dtype=np.int8)  # parity[r] = popcount(r) mod 2
    for _ in range(q):
        parity = np.concatenate([parity, parity ^ 1])
    r = np.arange(2**q)
    phase = np.array([1, -1j, -1, 1j])[k, None] * (1 - 2 * parity[r & zmask[:, None]])
    return r ^ xmask[:, None], phase


@dataclass(frozen=True)
class PauliStrings:
    """K Pauli strings such as "XZ" or "-YY" on the same qubits, as one (K, N) table: string k
    maps v to phase[k] * v[cols[k]], a phased permutation, unitary by construction, so nothing
    is checked and the K strings apply to a vector as one gather."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        cols, phase = _pauli_tables(labels)
        self.__dict__.update(labels=labels, cols=cols, phase=phase)  # frozen: past __setattr__

    @classmethod
    def from_digits(cls, digits: np.ndarray) -> "PauliStrings":
        """The unsigned strings of (K, q >= 1) digits as _digit_tables reads them; no label is parsed."""
        table, (cols, phase) = object.__new__(cls), _digit_tables(digits, 0)
        labels = tuple(_PAULI_LETTERS[digits].view(f"<U{digits.shape[1]}").ravel().tolist())
        table.__dict__.update(labels=labels, cols=cols, phase=phase)
        return table

    def __len__(self) -> int:
        return len(self.labels)


Factors = PauliStrings | tuple[UnitaryFactor, ...]


def apply_factors(factors: Factors, v: np.ndarray) -> np.ndarray:
    """The (K, N) images of the one vector v: row m is factor m times v, one gather for a table,
    one matvec per dense factor."""
    if isinstance(factors, PauliStrings):
        return factors.phase * v[factors.cols]
    return np.array([f.matrix @ v for f in factors])


def factor_matrices(factors: Factors, n: int) -> np.ndarray:
    """The (K, n, n) dense matrices of K factors on dimension n: column j is apply_factors on e_j."""
    return np.stack([apply_factors(factors, e) for e in np.eye(n)], axis=2)


@dataclass(frozen=True)
class TensorDecomposition:
    """A = sum_a A_1^a (x) ... (x) A_p^a, stored as K terms of p factors plus a scalar prefactor.

    A factor is a UnitaryFactor or a Pauli label such as "-XZ"; ``terms`` keeps them as given.
    Every label is parsed in one PauliStrings call, and ``factors`` holds the K*p factors in
    flattened order m = (a-1)*p + j: the table itself when every factor is a label, else a tuple
    of UnitaryFactor in which each label is the dense matrix of its table row.
    """

    dim: int
    order_p: int
    terms: tuple
    prefactor: float = 1.0

    def __post_init__(self):
        terms = tuple(tuple(t) for t in self.terms)
        if len(terms) < 1:
            raise ValueError("need at least one term")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.order_p < 1:
            raise ValueError("order p must be >= 1")
        if any(len(term) != self.order_p for term in terms):
            raise ValueError("every term must have exactly p factors")
        flat = [f for term in terms for f in term]
        # a label's width is checked before its 2^q tables are built
        if any((2 ** len(f.removeprefix("-")) if isinstance(f, str) else f.dim) != self.dim for f in flat):
            raise ValueError("all factors must share the decomposition dimension")
        if not math.isfinite(float(self.prefactor)):
            raise ValueError("prefactor must be finite")
        labels = [f for f in flat if isinstance(f, str)]
        table = PauliStrings(labels) if labels else None
        if len(labels) == len(flat):
            factors = table
        else:  # each label becomes the dense matrix of its table row
            dense = iter(factor_matrices(table, self.dim)) if labels else None
            factors = tuple(UnitaryFactor(next(dense)) if isinstance(f, str) else f for f in flat)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "prefactor", float(self.prefactor))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_memo", (None, None, None))  # _factor_pass's last pass, not a field

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @property
    def flat_count(self) -> int:
        """Total flattened factor count K*p."""
        return self.num_terms * self.order_p


@dataclass(frozen=True)
class Point:
    """A real unit vector, the current iterate under the spherical constraint.  It keeps a
    read-only copy of its coordinates, which no write into the caller's array can move."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1:
            raise ValueError("point must be a 1-D real vector")
        if not abs(math.sqrt(c @ c) - 1.0) <= 1e-12:  # NaN fails too; np.linalg.norm's formula
            raise ValueError("point must be finite with unit norm within 1e-12")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @classmethod
    def normalized(cls, coords) -> "Point":
        c = np.asarray(coords, dtype=float)
        with np.errstate(over="ignore"):
            n = np.linalg.norm(c)
        if n == 0 or n == math.inf:  # the squares can under- or overflow where the entries do not
            scale = np.max(np.abs(c), initial=0.0)
            if 0 < scale < math.inf:
                c = c / scale
                n = np.linalg.norm(c)
        if not 0 < n < math.inf:
            raise ValueError("cannot normalize a zero or non-finite vector")
        return cls(c / n)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class CoefficientSet:
    """Rayleigh quotients b, flattened weights c and f(x) from the same b, all formed from the
    factor images A_m x, which the circuit step takes as they are.  b and the images are the
    decomposition's kept factor pass at x, so both are read-only."""

    b: np.ndarray       # K x p
    c: np.ndarray       # K*p, order m = (a-1)*p + j
    f_value: float
    images: np.ndarray  # K*p x N, row m = A_m x (complex for a Pauli table, whose phases are)


def _check_positive(value: float, name: str) -> None:
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be positive and finite")


def _check_dim(decomp: TensorDecomposition, x) -> np.ndarray:
    v = x.coords if isinstance(x, Point) else np.asarray(x, dtype=float)
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
    for term in factor_matrices(decomp.factors, n).reshape(decomp.num_terms, p, n, n):
        t = term[0]
        for m in term[1:]:
            t = np.multiply.outer(t, m)
        # axes currently ordered (i1, j1, i2, j2, ...); regroup rows then columns
        perm = list(range(0, 2 * p, 2)) + list(range(1, 2 * p, 2))
        out += np.transpose(t, perm)
    out *= decomp.prefactor
    # the imaginary part of the raw product tensor cancels in every contraction
    # with real vectors (the objective is real), so the real tensor is returned
    return out.real


def _factor_pass(decomp: TensorDecomposition, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One pass over the factors: the rows y_m = A_m x and the K x p quotients b_m = x . y_m.

    The decomposition keeps its last pass as a one-entry memo keyed on the exact bytes of x, so
    estimate_b and coefficients at one point share it, while a signed zero or a coords array
    changed in place makes a new pass.  Both arrays are returned read-only, and one (K*p, N) array
    stays alive per live decomposition."""
    key = v.tobytes()
    if decomp._memo[0] == key:
        return decomp._memo[1:]
    ys = apply_factors(decomp.factors, v)
    # one dot per row: a stacked ys @ v rounds differently, and b sets the output bytes; x is cast
    # to the rows' dtype once, the copy matmul would make for each row
    vx = v.astype(ys.dtype, copy=False)
    b = np.array([vx @ y for y in ys])
    if np.max(np.abs(b.imag)) > 1e-12:
        raise ValueError("quadratic form has a non-negligible imaginary part")
    b = b.real.reshape(decomp.num_terms, decomp.order_p)
    b.setflags(write=False)
    ys.setflags(write=False)
    object.__setattr__(decomp, "_memo", (key, b, ys))
    return b, ys


def evaluate_objective(decomp: TensorDecomposition, x) -> float:
    """f(x) = s * sum_a prod_i (x^T A_i^a x).

    Accepts a Point or a raw real vector; raw vectors need not be unit norm,
    which finite-difference checks rely on.
    """
    b, _ = _factor_pass(decomp, _check_dim(decomp, x))
    return _objective_from_b(decomp, b)


def _objective_from_b(decomp: TensorDecomposition, b: np.ndarray) -> float:
    """s * sum_a prod_i b_i^a, multiplied and summed in a fixed order (f sets the output bytes)."""
    total = 0.0
    for row in b.tolist():
        prod = 1.0
        for b_m in row:
            prod *= b_m
        total += prod
    return decomp.prefactor * total


def coefficients(decomp: TensorDecomposition, x) -> CoefficientSet:
    """b and the flattened weights c_m = s * prod_{i != j} b_i^a.

    The weights are built by direct product over the other factors of the
    term, never by dividing the term's product by b_j, so zero quotients are well defined.
    """
    v = _check_dim(decomp, x)
    b, ys = _factor_pass(decomp, v)
    k, p = decomp.num_terms, decomp.order_p
    c = np.empty(k * p)
    for a, row in enumerate(b.tolist()):
        for j in range(p):
            prod = decomp.prefactor
            for i in range(p):
                if i != j:
                    prod *= row[i]
            c[a * p + j] = prod
    return CoefficientSet(b=b, c=c, f_value=_objective_from_b(decomp, b), images=ys)


def classical_gradient(decomp: TensorDecomposition, x) -> np.ndarray:
    """The linear descent direction D(x) x.

    For all-symmetric factors the true Euclidean gradient of the objective is
    twice this vector; the factor 2 is left to callers (and is covered by the
    finite-difference tests).
    """
    coeffs = coefficients(decomp, x)
    g = coeffs.c @ coeffs.images
    if np.max(np.abs(g.imag)) > 1e-10:
        raise ValueError("descent direction is not real; factors must be real-symmetric-like")
    return g.real


def classical_iterate(decomp: TensorDecomposition, x: Point, eta: float) -> tuple[Point, float]:
    """One normalized descent step: normalize(x - eta*D*x).

    Returns the new point together with the pre-normalization step norm
    ||x - eta*D*x||, which the quantum pipeline's success probability needs.
    """
    _check_positive(eta, "eta")
    v = _check_dim(decomp, x)
    y = v - eta * classical_gradient(decomp, x)
    n = float(np.linalg.norm(y))
    if n < 1e-14:
        raise DegenerateStepError("descent step annihilated the point (x == eta*D*x)")
    return Point(y / n), n


def pauli_decompose(matrix: np.ndarray) -> dict[str, float]:
    """Real coefficients tr(P M) / 2^q of a finite 2^q x 2^q real symmetric matrix over the Pauli
    strings P, in sorted label order; weights at most _DECOMPOSE_TOL are dropped (see _pauli_digits)."""
    digits, weights = _pauli_digits(matrix)
    return dict(zip(map("".join, _PAULI_LETTERS[digits].tolist()), weights.tolist()))


def _pauli_digits(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kept strings as (K, q) base-4 digits (see _digit_tables) and weights, in sorted label order, in
    O(q 4^q) (arXiv:2310.13421): per qubit, one np.dot of the C-contiguous operand np.tensordot would form
    with sigma^T / 2 contracts a (row, column) pair and appends a Pauli index, rounding as tensordot."""
    m = np.asarray(matrix, dtype=complex)
    n = len(m) if m.ndim else 0
    if m.shape != (n, n) or n & (n - 1) or not n:
        raise ValueError(f"matrix must be non-empty and square with power-of-two dimension, not {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    q = n.bit_length() - 1
    t = m.reshape((2,) * (2 * q)).transpose(np.arange(2 * q).reshape(2, q).T.ravel())  # r0, c0, r1, ...
    for _ in range(q):
        t = np.dot(np.ascontiguousarray(t.reshape(4, -1).T), _PAULI_HALF_T)
    coeffs = t.reshape(-1)  # in itertools.product("IXYZ") order
    if np.max(np.abs(coeffs.imag)) > 1e-9:
        raise ValueError("matrix is not symmetric real: complex Pauli weight found")
    kept = np.flatnonzero(np.abs(coeffs.real) > _DECOMPOSE_TOL)
    return kept[:, None] >> 2 * np.arange(q - 1, -1, -1) & 3, coeffs.real[kept]


def _json_number(value, field: str):
    """A JSON number as read; a JSON boolean or string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{field}' must be a number, not {value!r}")
    return value


def _json_count(value, field: str) -> int:
    if isinstance(_json_number(value, field), float) and not value.is_integer():
        raise ValueError(f"'{field}' must be a whole number, not {value!r}")
    if value < 1:
        raise ValueError(f"'{field}' must be a positive whole number, not {value!r}")
    return int(value)


def factor_from_dict(d: dict, dim: int) -> UnitaryFactor | str:
    if isinstance(d, dict) and "pauli" in d:
        label = d["pauli"]
        if not isinstance(label, str) or 2 ** len(label.removeprefix("-")) != dim:  # before 2^len entries
            raise ValueError(f"Pauli factor {label!r} is not a string acting on dimension {dim}")
        return label
    if isinstance(d, dict) and "dense" in d:
        try:
            vals = np.array([complex(_json_number(re, "re"), _json_number(im, "im")) for re, im in d["dense"]])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"dense factor {d['dense']!r:.60} is not a list of [re, im] number pairs") from exc
        if len(vals) != dim * dim:
            raise ValueError(f"dense factor needs {dim*dim} [re,im] pairs, got {len(vals)}")
        return UnitaryFactor(vals.reshape(dim, dim))
    raise ValueError(f"factor {d!r:.60} is not a JSON object with either a 'pauli' or a 'dense' key")


def decomposition_from_dict(d: dict) -> TensorDecomposition:
    try:
        dim = _json_count(d["dim"], "dim")
        p = _json_count(d["p"], "p")
        prefactor = float(_json_number(d.get("prefactor", 1.0), "prefactor"))
        raw_terms = d["terms"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed decomposition JSON: {exc}") from exc
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValueError("decomposition needs a non-empty 'terms' list")
    terms = []
    for term in raw_terms:
        if not isinstance(term, list) or len(term) != p:
            raise ValueError("every term must list exactly p factors")
        terms.append([factor_from_dict(f, dim) for f in term])
    return TensorDecomposition(dim=dim, order_p=p, terms=terms, prefactor=prefactor)
