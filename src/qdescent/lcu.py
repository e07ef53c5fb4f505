"""One descent iteration as a linear-combination-of-unitaries circuit.

Registers are laid out flag (1 qubit), select (t1 qubits), working
(ceil(log2 N) qubits), most significant first.  A step runs prepare,
select-controlled factor application, un-prepare, and post-selection of the
all-zero ancillas; the surviving working state is (x - eta*D*x) normalized,
which the classical oracle in :mod:`qdescent.poly` reproduces exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly, sim
from .errors import DegenerateStepError, PostselectionError
from .poly import Point, TensorDecomposition, UnitaryFactor


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit budget for a problem: select width t1 and working width n_work."""

    t1: int
    n_work: int

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
    """The prepare stage: beta, the flag rotation v0, the select unitary v,
    and the per-branch signs absorbed into the selected unitaries."""

    beta: float
    v0: np.ndarray
    v: np.ndarray
    signs: np.ndarray


@dataclass(frozen=True)
class IterationOutcome:
    """Result of one circuit iteration."""

    next_point: Point
    success_prob: float
    expected_bernoulli_reps: float
    aa_reps_estimate: int
    raw_state: sim.QState


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


def complete_from_first_column(col: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is col / ||col||.

    One Householder reflection maps e0 onto -sign(u0) * u (the sign keeps
    w = u + sign(u0) e0 away from cancellation); its first column is then
    overwritten with u itself, which keeps the columns orthonormal.
    """
    u = np.asarray(col, dtype=float)
    u = u / np.linalg.norm(u)
    w = u.copy()
    w[0] += 1.0 if u[0] >= 0 else -1.0
    out = np.eye(u.shape[0]) - (2.0 / (w @ w)) * np.outer(w, w)
    out[:, 0] = u
    return out


def build_prepare(c: np.ndarray, eta: float) -> PrepareSpec:
    """v0, v, signs, and beta for the prepare stage of the weights c at step size eta."""
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    c = np.asarray(c, dtype=float)
    weights = eta * np.abs(c)
    total = float(weights.sum())
    beta = 1.0 + total
    a = 1.0 / math.sqrt(beta)
    v0 = complete_from_first_column(np.array([a, math.sqrt((beta - 1.0) / beta)]))
    t1 = RegisterLayout.for_problem(len(c), 1).t1
    dim = 2**t1
    if total == 0.0:
        v = np.eye(dim)
    else:
        first = np.zeros(dim)
        first[: len(c)] = np.sqrt(weights / total)
        v = complete_from_first_column(first)
    signs = np.where(eta * c > 0, -1.0, 1.0)
    return PrepareSpec(beta=beta, v0=v0, v=v, signs=signs)


def _pad_vector(x: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[: x.shape[0]] = x
    return out


def _on_flag(u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply a 2 x 2 unitary on the flag axis of a (2, 2^t1, 2^n_work) state."""
    return (np.asarray(u, dtype=complex) @ state.reshape(2, -1)).reshape(state.shape)


def run_lcu_step(factors: list[UnitaryFactor], c: np.ndarray, x_vec: np.ndarray,
                 eta: float) -> tuple[np.ndarray, float, sim.QState, PrepareSpec]:
    """Execute one circuit step for explicit factors and weights.

    The state is held as a (flag, select, work) array of shape
    (2, 2^t1, 2^n_work): v0 acts on the flag axis, v on the flag=1 slice,
    and factor m on select row m of that slice, so each gate costs one
    matmul and unitarity is left to the UnitaryFactor constructor.

    Returns (post-selected working vector of len(x_vec), success probability,
    pre-post-selection state, prepare spec).  The weights c may come from a
    CoefficientSet or any other real linear combination of the factors.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    n = x_vec.shape[0]
    layout = RegisterLayout.for_problem(len(factors), n)
    prep = build_prepare(c, eta)

    state = np.zeros((2, 2**layout.t1, 2**layout.n_work), dtype=complex)
    state[0, 0, :n] = x_vec
    state = _on_flag(prep.v0, state)
    state[1] = np.asarray(prep.v, dtype=complex) @ state[1]
    for m, factor in enumerate(factors):
        state[1, m, :n] = prep.signs[m] * (factor.matrix @ state[1, m, :n])
    state[1] = np.asarray(prep.v.T, dtype=complex) @ state[1]
    state = _on_flag(prep.v0.T, state)
    raw = sim.QState(layout.total_qubits, state.reshape(-1))

    kept = state[0, 0]
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
    return vec, prob, raw, prep


def _aa_estimate(prob: float) -> int:
    return math.ceil(math.pi / (4.0 * math.asin(math.sqrt(prob))))


def run_iteration(decomp: TensorDecomposition, x: Point, eta: float = 1.0,
                  mode: str = "exact", shots: int | None = None,
                  seed: int | None = None) -> IterationOutcome:
    """One full circuit iteration from x.

    Exact mode post-selects analytically.  Sampled mode draws the number of
    post-selection successes among ``shots`` Bernoulli repetitions and fails
    when none occur; the collapsed state itself is exact either way.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (shots is None or shots < 1):
        raise ValueError("sampled mode needs shots >= 1")
    coeffs = poly.coefficients(decomp, x)
    vec, prob, raw, _ = run_lcu_step(decomp.flattened_factors(), coeffs.c, x.coords, eta)
    if mode == "sampled":
        rng = np.random.default_rng(seed)
        successes = rng.binomial(shots, prob)
        if successes == 0:
            raise PostselectionError(f"no post-selection success in {shots} shots (p={prob:.3e})")
    return IterationOutcome(
        next_point=Point(vec),
        success_prob=prob,
        expected_bernoulli_reps=1.0 / prob,
        aa_reps_estimate=_aa_estimate(prob),
        raw_state=raw,
    )


def estimate_b(decomp: TensorDecomposition, x: Point, mode: str = "exact",
               shots: int | None = None, seed: int | None = None) -> np.ndarray:
    """Estimate every b_j^a = <x|A_m|x> through the expectation circuit.

    Hadamards put the select register in uniform superposition, each branch
    applies its factor to |x>, and the working register is read against the
    |x><x| projector per select outcome.  Every branch starts as |x> scaled
    by one Hadamard entry per select qubit, so branch m is that vector with
    A_m applied.  Sampled mode draws projector frequencies at the given shot
    count and takes each sign from the exact overlap, which the
    magnitude-only projector cannot provide.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and (shots is None or shots < 1):
        raise ValueError("sampled mode needs shots >= 1")
    layout = RegisterLayout.for_problem(decomp.flat_count, decomp.dim)
    xp = x.coords.astype(complex)
    start = xp
    for _ in range(layout.t1):
        start = sim.HADAMARD[0, 0] * start

    rng = np.random.default_rng(seed) if mode == "sampled" else None
    out = np.empty(decomp.flat_count)
    for m, factor in enumerate(decomp.flattened_factors()):
        branch = factor.matrix @ start
        # post-selecting select outcome m renormalizes its branch
        branch = branch / np.sqrt(float(np.sum(np.abs(branch) ** 2)))
        overlap = complex(xp.conj() @ branch)
        if abs(overlap.imag) > 1e-10:
            raise ValueError("expectation has a non-negligible imaginary part")
        exact = overlap.real
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

    One record per executed iteration.  With noise_eps > 0 the post-selected
    working state is depolarized, purified back to a pure point, and the
    purified point carries the iteration; its fidelity against the exact state
    is recorded.  Overlap columns are filled when a reference point is given.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0 < threshold < math.inf:
        raise ValueError("threshold must be positive and finite")
    records: list[IterationRecord] = []
    x = x0
    layout = RegisterLayout.for_problem(decomp.flat_count, decomp.dim)
    for t in range(1, max_iters + 1):
        step_seed = None if seed is None else seed + t
        outcome = run_iteration(decomp, x, eta, mode, shots, step_seed)
        y = outcome.next_point.coords
        if float(y @ x.coords) < 0:
            y = -y
        fid = None
        if noise_eps > 0:
            pure = sim.QState(layout.n_work, _pad_vector(y, 2**layout.n_work))
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
        records.append(IterationRecord(
            iteration=t,
            point=point,
            f_value=poly.evaluate_objective(decomp, point),
            success_prob=outcome.success_prob,
            overlap=None if reference is None else float(y @ reference.coords),
            fidelity=fid,
            label="converged" if converged else "continue",
        ))
        x = point
        if converged:
            break
    return records
