"""One descent iteration as a linear-combination-of-unitaries circuit.

Registers are laid out flag (1 qubit), select (t1 qubits), working
(ceil(log2 N) qubits), most significant first.  A step runs prepare,
select-controlled factor application, un-prepare, and post-selection of the
all-zero ancillas; the surviving working state is (x - eta*D*x) normalized,
which the classical oracle in :mod:`qdescent.poly` reproduces exactly.
Prepare touches only the flag and select registers, so controlled-A_m acts
on x itself: the step takes the images A_m x that the coefficient pass at x
has formed, and a descent step applies each factor once.  estimate_b at x
reads the same pass, which the decomposition keeps (see poly._factor_pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly, sim
from .errors import CapacityError, DegenerateStepError, PostselectionError
from .poly import Point, TensorDecomposition


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit budget for a problem: select width t1 and working width n_work,
    checked against the simulator's qubit cap before anything is allocated."""

    t1: int
    n_work: int

    def __post_init__(self):
        if self.total_qubits > sim.MAX_QUBITS:
            raise CapacityError(f"layout needs {self.total_qubits} qubits (cap {sim.MAX_QUBITS})")

    @property
    def total_qubits(self) -> int:
        return 1 + self.t1 + self.n_work

    @classmethod
    def for_problem(cls, flat_count: int, dim: int) -> "RegisterLayout":
        return cls(t1=_width(flat_count), n_work=_width(dim))


def _width(count: int) -> int:
    """Qubits that index count basis states."""
    return math.ceil(math.log2(count)) if count > 1 else 0


@dataclass(frozen=True)
class PrepareSpec:
    """The prepare stage: beta, the first columns of the flag rotation v0 and of the select
    unitary V (v0 = complete_from_first_column(v0_column), likewise V from column), and the
    signs absorbed into the factors."""

    beta: float
    v0_column: np.ndarray
    column: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class IterationOutcome:
    """Result of one circuit iteration."""

    next_point: Point
    success_prob: float


@dataclass(frozen=True)
class IterationRecord:
    """One optimizer step: the accepted point plus its diagnostics.

    Iteration 0 stands for a starting point: no circuit ran, so it has no
    success probability, and its label is "start" instead of "continue" or
    "converged".
    """

    iteration: int
    point: Point
    f_value: float
    success_prob: float | None
    overlap: float | None
    fidelity: float | None
    label: str


def _unit(col: np.ndarray) -> np.ndarray:
    """col / ||col||: the first column of complete_from_first_column(col)."""
    u = np.asarray(col, dtype=float)
    return u / math.sqrt(u @ u)


def complete_from_first_column(col: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is u = col / ||col||: the reflection
    H = I - 2 w w^T / (w.w) with w = u + sign(u0) e0 (the sign keeps w away from
    cancellation) maps e0 onto -sign(u0) * u, and its first column overwritten by u keeps
    the columns orthonormal."""
    u = _unit(col)
    w = u.copy()
    w[0] += 1.0 if u[0] >= 0 else -1.0
    out = np.eye(u.shape[0]) - (2.0 / (w @ w)) * np.outer(w, w)
    out[:, 0] = u
    return out


def build_prepare(c: np.ndarray, eta: float) -> PrepareSpec:
    """v0's and V's columns, signs, and beta for the prepare stage of the weights c at step size eta."""
    poly._check_positive(eta, "eta")
    c = np.asarray(c, dtype=float)
    with np.errstate(over="ignore"):  # an overflow ends in an infinite beta, refused here
        weights = eta * np.abs(c)
        total = float(weights.sum())
    beta = 1.0 + total
    if not math.isfinite(beta):
        raise ValueError(f"beta = 1 + eta*sum|c| is not finite at eta={eta!r}")
    v0_column = np.array([1.0 / math.sqrt(beta), math.sqrt((beta - 1.0) / beta)])
    column = np.zeros(2 ** _width(len(c)))
    if total == 0.0:
        column[0] = 1.0  # V = I
    else:
        column[: len(c)] = np.sqrt(weights / total)
    signs = np.where(eta * c > 0, -1.0, 1.0)
    return PrepareSpec(beta=beta, v0_column=v0_column, column=column, signs=signs)


def _first_row(u: np.ndarray) -> np.ndarray:
    """[u; 0], u over a row of zeros: row 0 of its product with a matrix rounds as the completed
    unitary's transpose does, since gemm forms each entry from its own row and column; u @ m, a
    matvec, rounds otherwise."""
    out = np.zeros((2, u.shape[0]))
    out[0] = u
    return out


def run_lcu_step(images: np.ndarray, c: np.ndarray, x_vec: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """Execute one circuit step from the (K, N) factor images A_m x and the weights c.

    Only the row that post-selection keeps is formed, in the images' dtype.  Prepare leaves
    the flag=1 slice in the product state (V e0) (x) v0[1,0] x, so select turns its row m
    into sign_m V[m,0] v0[1,0] A_m x, formed from the images in that order; no factor is
    applied and no gate checked here.  Row 0 of V^T and of v0^T is the first column of V and
    of v0, the PrepareSpec column normalized, so neither unitary is completed: un-prepare is
    row 0 of [u; 0] times the K select rows, then of [v0 column; 0] times the flag's two rows,
    the completed products' rounding, which 3 and 4 golden outputs pin.

    Returns (post-selected working vector of len(x_vec), success probability).
    The weights c may come from a CoefficientSet or any other real linear
    combination of the factors; a non-finite image or x_vec raises ValueError.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    n, k = x_vec.shape[0], len(images)
    RegisterLayout.for_problem(k, n)  # the qubit cap
    prep = build_prepare(c, eta)
    flag_u, u = _unit(prep.v0_column), _unit(prep.column)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite input ends in a non-finite prob
        rows = np.multiply(flag_u[1], images)  # v0's flag=1 amplitude is scaled into the images
        rows *= (prep.signs * u[:k])[:, None]
        flag_rows = np.array([flag_u[0] * x_vec, (_first_row(u[:k]) @ rows)[0]])
        kept = (_first_row(flag_u) @ flag_rows)[0]
        prob = float((np.abs(kept) ** 2).sum())
    if not math.isfinite(prob):
        raise ValueError(f"success probability is {prob}: images and x_vec must be finite")
    if prep.beta * math.sqrt(prob) < 1e-14:
        raise DegenerateStepError("descent step annihilated the point (x == eta*D*x)")
    if prob <= 1e-14:
        raise PostselectionError(f"all-zero ancilla outcome has probability {prob:.3e}")
    amps = kept / math.sqrt(prob)
    prob = min(prob, 1.0)  # rounding can leave the subspace weight a few ulp above 1
    if np.abs(amps.imag).max() > 1e-10:
        raise ValueError("post-selected state is not real; factors must be real-valued")
    vec = np.ascontiguousarray(amps.real)  # as np.linalg.norm makes it before its dot
    vec = vec / math.sqrt(vec @ vec)
    return vec, prob


def _check_sampling(shots: int | None, seed: int | None) -> None:
    if shots is not None and not (isinstance(shots, (int, np.integer)) and 1 <= shots < 2**63):  # binomial n is int64
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots!r}")
    if seed is not None and not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def run_iteration(decomp: TensorDecomposition, x: Point, eta: float = 1.0) -> IterationOutcome:
    """One exact circuit iteration from x: the coefficients at x, then one LCU step with
    analytic post-selection.  Sampled stepping runs inside ``optimize``."""
    coeffs = poly.coefficients(decomp, x)
    vec, prob = run_lcu_step(coeffs.images, coeffs.c, x.coords, eta)
    return IterationOutcome(next_point=Point(vec), success_prob=prob)


def estimate_b(decomp: TensorDecomposition, x: Point, shots: int | None = None,
               seed: int | None = None) -> np.ndarray:
    """Estimate every b_j^a = <x|A_m|x> through the expectation circuit.

    Hadamards put the select register in uniform superposition, each branch
    applies its factor to |x>, and the working register is read against the
    |x><x| projector per select outcome.  Branch m is A_m x scaled by one
    Hadamard entry per select qubit, in sequence; the images A_m x are the
    factor pass at x, which the decomposition keeps, so a descent step from
    the same point applies no factor again.  A shot count draws projector
    frequencies at that count and takes each sign from the exact overlap,
    which the magnitude-only projector cannot provide; shots None is exact.
    """
    _check_sampling(shots, seed)
    layout = RegisterLayout.for_problem(decomp.flat_count, decomp.dim)
    _, branches = poly._factor_pass(decomp, poly._check_dim(decomp, x))
    for _ in range(layout.t1):
        branches = sim.HADAMARD[0, 0].real * branches

    norms = np.sqrt(np.sum(np.abs(branches) ** 2, axis=1))  # rounds each row as a sum of that row alone
    # post-selecting select outcome m renormalizes its branch; the factor pass has checked that b_m,
    # and so this overlap, has no imaginary part above 1e-12
    b = np.array([complex(x.coords @ (branch / norm)).real for branch, norm in zip(branches, norms)])
    if shots is not None:
        hits = np.random.default_rng(seed).binomial(shots, np.clip(b * b, 0.0, 1.0)).tolist()
        # the hits are Python ints, so k / shots rounds once where float64 operands round above 2**53
        b = np.array([math.copysign(math.sqrt(k / shots), exact) for k, exact in zip(hits, b)])
    return b.reshape(decomp.num_terms, decomp.order_p)


def optimize(decomp: TensorDecomposition, x0: Point, eta: float = 1.0,
             threshold: float = 1e-3, max_iters: int = 100, shots: int | None = None,
             seed: int | None = None, noise_eps: float = 0.0,
             reference: Point | None = None) -> list[IterationRecord]:
    """Iterate the circuit until the sign-aligned step falls below threshold.

    One record per executed iteration; each runs run_lcu_step on the coefficients that the
    previous record formed.  shots None post-selects exactly; a shot count draws the number
    of post-selection successes among that many Bernoulli repetitions, every step from one
    generator seeded with seed, and fails when none occur, while the collapsed state itself
    is exact either way.  With noise_eps > 0 the post-selected working state is depolarized,
    purified back to a pure point, and the purified point carries the iteration; its
    fidelity against the exact state is recorded.
    That round runs unchecked on the arrays the loop has made, through sim's kernels and in
    the order of the checked chain QState, to_density, depolarize, fidelity, purify, whose
    bytes it gives.  Overlap columns are filled when a reference point is given.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    poly._check_positive(threshold, "threshold")
    if not 0 <= noise_eps <= 1:  # NaN fails too
        raise ValueError("noise strength must lie in [0, 1]")
    _check_sampling(shots, seed)
    poly._check_positive(eta, "eta")
    records: list[IterationRecord] = []
    x = x0
    d = 2 ** RegisterLayout.for_problem(decomp.flat_count, decomp.dim).n_work
    mixed = np.eye(d) / d if noise_eps > 0 else None  # I/d, which the noise blends in
    rng = None if shots is None else np.random.default_rng(seed)
    coeffs = poly.coefficients(decomp, x)
    for t in range(1, max_iters + 1):
        y, prob = run_lcu_step(coeffs.images, coeffs.c, x.coords, eta)
        if rng is not None and rng.binomial(shots, prob) == 0:
            raise PostselectionError(f"no post-selection success in {shots} shots (p={prob:.3e})")
        fid = None
        if noise_eps > 0:  # the density matrix, and so the purified point, is the same for +-y
            amps = np.zeros(d, dtype=complex)
            amps[: decomp.dim] = y
            rho = np.outer(amps, amps.conj())
            noisy = (1.0 - noise_eps) * rho + noise_eps * mixed
            fid = sim._fidelity(rho, noisy)
            recovered = sim._dominant(noisy)[: decomp.dim]
            y = recovered / math.sqrt(recovered @ recovered)
        if float(y @ x.coords) < 0:
            y = -y
        step = y - x.coords
        moved = math.sqrt(step @ step)
        point = Point(y)
        converged = moved <= threshold
        coeffs = poly.coefficients(decomp, point)  # this record's f and the next step's weights
        records.append(IterationRecord(
            iteration=t,
            point=point,
            f_value=coeffs.f_value,
            success_prob=prob,
            overlap=None if reference is None else float(y @ reference.coords),
            fidelity=fid,
            label="converged" if converged else "continue",
        ))
        x = point
        if converged:
            break
    return records
