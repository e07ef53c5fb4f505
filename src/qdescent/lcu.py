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
        t1 = max(0, math.ceil(math.log2(flat_count))) if flat_count > 1 else 0
        n_work = max(0, math.ceil(math.log2(dim))) if dim > 1 else 0
        return cls(t1=t1, n_work=n_work)


@dataclass(frozen=True)
class PrepareSpec:
    """The prepare stage: beta, the flag rotation v0, the select unitary's first column
    (V = complete_from_first_column(column)), and the signs absorbed into the factors."""

    beta: float
    v0: np.ndarray
    column: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class IterationOutcome:
    """Result of one circuit iteration."""

    next_point: Point
    success_prob: float
    expected_bernoulli_reps: float
    aa_reps_estimate: int


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


def _reflector(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = col / ||col|| and w = u + sign(u0) e0: H = I - 2 w w^T / (w.w) maps e0 onto
    -sign(u0) * u (the sign keeps w away from cancellation)."""
    u = np.asarray(col, dtype=float)
    u = u / np.linalg.norm(u)
    w = u.copy()
    w[0] += 1.0 if u[0] >= 0 else -1.0
    return u, w


def complete_from_first_column(col: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is col / ||col||: the reflection H of
    _reflector with its first column overwritten by u, which keeps the columns orthonormal."""
    u, w = _reflector(col)
    out = np.eye(u.shape[0]) - (2.0 / (w @ w)) * np.outer(w, w)
    out[:, 0] = u
    return out


def build_prepare(c: np.ndarray, eta: float) -> PrepareSpec:
    """v0, V's column, signs, and beta for the prepare stage of the weights c at step size eta."""
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    c = np.asarray(c, dtype=float)
    weights = eta * np.abs(c)
    total = float(weights.sum())
    beta = 1.0 + total
    a = 1.0 / math.sqrt(beta)
    v0 = complete_from_first_column(np.array([a, math.sqrt((beta - 1.0) / beta)]))
    column = np.zeros(2 ** RegisterLayout.for_problem(len(c), 1).t1)
    if total == 0.0:
        column[0] = 1.0  # V = I
    else:
        column[: len(c)] = np.sqrt(weights / total)
    signs = np.where(eta * c > 0, -1.0, 1.0)
    return PrepareSpec(beta=beta, v0=v0, column=column, signs=signs)


def run_lcu_step(images: np.ndarray, c: np.ndarray, x_vec: np.ndarray, eta: float) -> tuple[np.ndarray, float]:
    """Execute one circuit step from the (K, N) factor images A_m x and the weights c.

    The state is a (flag, select, work) array of shape (2, 2^t1, 2^n_work), of the images'
    dtype.  Prepare leaves the flag=1 slice in the product state (V e0) (x) v0[1,0] x, so
    select turns its row m into sign_m V[m,0] v0[1,0] A_m x, formed from the images in that
    order; no factor is applied and no gate checked here.  Un-prepare forms only row 0, which
    post-selection reads: with the dense V^T up to t1 = 2, whose rounding 3 golden outputs pin,
    and else as u = V e0 times the slice (V is then the reflection H of _reflector, whose first
    column is -u, a sign that prepare and un-prepare cancel).

    Returns (post-selected working vector of len(x_vec), success probability).
    The weights c may come from a CoefficientSet or any other real linear
    combination of the factors.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    n, k = x_vec.shape[0], len(images)
    layout = RegisterLayout.for_problem(k, n)
    prep = build_prepare(c, eta)

    state = np.zeros((2, 2**layout.t1, 2**layout.n_work), dtype=images.dtype)
    state[0, 0, :n] = prep.v0[0, 0] * x_vec  # v0's flag=1 amplitude is scaled into the images
    v = complete_from_first_column(prep.column) if layout.t1 <= 2 else None
    u = _reflector(prep.column)[0] if v is None else v[:, 0]  # V's first column is u itself
    select = state[1, :k, :n]
    np.multiply(prep.v0[1, 0], images, out=select)
    select *= (prep.signs * u[:k])[:, None]
    state[1, 0] = (v.T @ state[1])[0] if v is not None else u[:k] @ state[1, :k]

    kept = (prep.v0.T @ state[:, 0])[0]  # after un-prepare only the kept row is read
    prob = float(np.sum(np.abs(kept) ** 2))
    if prep.beta * math.sqrt(prob) < 1e-14:
        raise DegenerateStepError("descent step annihilated the point (x == eta*D*x)")
    if prob <= 1e-14:
        raise PostselectionError(f"all-zero ancilla outcome has probability {prob:.3e}")
    amps = kept / np.sqrt(prob)
    prob = min(prob, 1.0)  # rounding can leave the subspace weight a few ulp above 1
    if np.max(np.abs(amps.imag)) > 1e-10:
        raise ValueError("post-selected state is not real; factors must be real-valued")
    vec = amps.real[:n]
    vec = vec / np.linalg.norm(vec)
    return vec, prob


def _check_mode(mode: str, shots: int | None, seed: int | None) -> None:
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (shots is None or shots < 1):
        raise ValueError("sampled mode needs shots >= 1")
    if seed is not None and seed < 0:  # optimize seeds step t with seed + t
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def run_iteration(decomp: TensorDecomposition, x: Point, eta: float = 1.0) -> IterationOutcome:
    """One exact circuit iteration from x: the coefficients at x, then one LCU step with
    analytic post-selection.  Sampled stepping runs inside ``optimize``."""
    coeffs = poly.coefficients(decomp, x)
    vec, prob = run_lcu_step(coeffs.images, coeffs.c, x.coords, eta)
    return IterationOutcome(next_point=Point(vec), success_prob=prob, expected_bernoulli_reps=1.0 / prob,
                            aa_reps_estimate=math.ceil(math.pi / (4.0 * math.asin(math.sqrt(prob)))))


def estimate_b(decomp: TensorDecomposition, x: Point, mode: str = "exact",
               shots: int | None = None, seed: int | None = None) -> np.ndarray:
    """Estimate every b_j^a = <x|A_m|x> through the expectation circuit.

    Hadamards put the select register in uniform superposition, each branch
    applies its factor to |x>, and the working register is read against the
    |x><x| projector per select outcome.  Branch m is A_m x scaled by one
    Hadamard entry per select qubit, in sequence; the images A_m x are the
    factor pass at x, which the decomposition keeps, so a descent step from
    the same point applies no factor again.  Sampled mode draws projector
    frequencies at the given shot count and takes each sign from the exact
    overlap, which the magnitude-only projector cannot provide.
    """
    _check_mode(mode, shots, seed)
    layout = RegisterLayout.for_problem(decomp.flat_count, decomp.dim)
    _, branches = poly._factor_pass(decomp, poly._check_dim(decomp, x))
    for _ in range(layout.t1):
        branches = sim.HADAMARD[0, 0].real * branches

    rng = np.random.default_rng(seed) if mode == "sampled" else None
    out = np.empty(decomp.flat_count)
    norms = np.sqrt(np.sum(np.abs(branches) ** 2, axis=1))  # rounds each row as a sum of that row alone
    for m, branch in enumerate(branches):
        # post-selecting select outcome m renormalizes its branch; the factor pass has checked
        # that b_m, and so this overlap, has no imaginary part above 1e-12
        exact = complex(x.coords @ (branch / norms[m])).real
        if mode == "exact":
            out[m] = exact
        else:
            p = min(max(exact * exact, 0.0), 1.0)
            k = rng.binomial(shots, p)
            out[m] = math.copysign(math.sqrt(k / shots), exact)
    return out.reshape(decomp.num_terms, decomp.order_p)


def optimize(decomp: TensorDecomposition, x0: Point, eta: float = 1.0,
             threshold: float = 1e-3, max_iters: int = 100, mode: str = "exact",
             shots: int | None = None, seed: int | None = None,
             noise_eps: float = 0.0, reference: Point | None = None) -> list[IterationRecord]:
    """Iterate the circuit until the sign-aligned step falls below threshold.

    One record per executed iteration; each runs run_lcu_step on the coefficients that the
    previous record formed.  Sampled mode draws the number of post-selection successes among
    ``shots`` Bernoulli repetitions and fails when none occur; the collapsed state itself is
    exact either way.  With noise_eps > 0 the post-selected working state is depolarized,
    purified back to a pure point, and the purified point carries the iteration; its fidelity
    against the exact state is recorded.  Overlap columns are filled when a reference point
    is given.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    if not 0 <= noise_eps <= 1:  # NaN fails too
        raise ValueError("noise strength must lie in [0, 1]")
    _check_mode(mode, shots, seed)
    records: list[IterationRecord] = []
    x = x0
    layout = RegisterLayout.for_problem(decomp.flat_count, decomp.dim)
    pad = 2**layout.n_work - decomp.dim
    coeffs = poly.coefficients(decomp, x)
    for t in range(1, max_iters + 1):
        y, prob = run_lcu_step(coeffs.images, coeffs.c, x.coords, eta)
        # step t draws its shots with seed + t
        if mode == "sampled" and np.random.default_rng(None if seed is None else seed + t).binomial(shots, prob) == 0:
            raise PostselectionError(f"no post-selection success in {shots} shots (p={prob:.3e})")
        fid = None
        if noise_eps > 0:  # the density matrix, and so the purified point, is the same for +-y
            pure = sim.QState(layout.n_work, np.pad(y, (0, pad)) if pad else y)
            rho = sim.to_density(pure)
            noisy = sim.depolarize(rho, noise_eps)
            fid = sim.fidelity(rho, noisy)
            recovered = sim.purify(noisy)[: decomp.dim]
            y = recovered / np.linalg.norm(recovered)
        if float(y @ x.coords) < 0:
            y = -y
        moved = float(np.linalg.norm(y - x.coords))
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
