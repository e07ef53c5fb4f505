"""Multidimensional scaling as a descent application.

The stress ½ΣΣ w_ij (d_ij - δ_ij)² decomposes as const - 2g(X) + h²(X) with
g = tr(XᵀB(X)X) and h² = tr(XᵀCX), where B and C are weighted graph
Laplacians built from A_ij = (e_i - e_j)(e_i - e_j)ᵀ.  The operator
D(X) = C - 2B collects the non-constant part as f' = tr(XᵀD(X)X).

The desk optimizer steps against the actual stress slope, X - η(C - B(X))X:
treating B as frozen (stepping with D) stalls at rescaled configurations with
nonzero stress, so D is kept for the trace identities and the circuit demo
while the optimizer uses the corrected operator.

Each public function takes δ, w and X as their types or as raw arrays, built
into their types, so all meet one boundary: δ and w need finite row sums, and a
pair a finite stress at the origin, ½Σ w·δ², so that w·δ² and w·δ are finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lcu
from .poly import PauliStrings, Point, _check_positive, _pauli_digits, apply_factors

_DEMO_ETA = 0.05  # the column demo's step


def _square_checked(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{name} must be a non-empty square matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN, an inf or an overflow ends in a row sum refused here
        if not np.isfinite(a.sum(axis=1)).all():  # for weights, C's diagonal
            raise ValueError(f"{name} entries must be finite, and so must their row sums")
    if np.min(a) < 0:  # first, so that a - a.T below cannot overflow
        raise ValueError(f"{name} entries must be nonnegative")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    if np.max(np.abs(np.diag(a))) > 1e-12:
        raise ValueError(f"{name} must have a zero diagonal")
    return a


@dataclass(frozen=True)
class Dissimilarities:
    """Target distances: symmetric, nonnegative, zero diagonal."""

    delta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta", _square_checked(self.delta, "delta"))

    @property
    def n(self) -> int:
        return self.delta.shape[0]


@dataclass(frozen=True)
class Weights:
    """Pair weights: symmetric, nonnegative, zero diagonal."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", _square_checked(self.w, "weights"))

    @classmethod
    def uniform(cls, n: int) -> "Weights":
        return cls(np.ones((n, n)) - np.eye(n))


@dataclass(frozen=True)
class Configuration:
    """n points in m dimensions, rows are points."""

    coords: np.ndarray

    def __post_init__(self):
        a = np.array(self.coords, dtype=float)
        if a.ndim != 2:
            raise ValueError("configuration must be an n x m matrix")
        if a.shape[1] < 1:
            raise ValueError("configuration needs at least one column (embedding dimension)")
        if not np.all(np.isfinite(a)):
            raise ValueError("configuration entries must be finite")
        object.__setattr__(self, "coords", a)


@dataclass(frozen=True)
class StressBreakdown:
    """Stress value with its const - 2g + h² decomposition."""

    total: float
    const: float
    g: float
    h_squared: float


def distances(x) -> np.ndarray:
    """Euclidean distance matrix of a configuration.

    The column differences are squared in place and added in a left fold, ``np.sum(diff**2, axis=2)``
    bit for bit below 8 columns; from 8 numpy sums pairwise, and the two can differ in the last place.
    """
    return _distances(x.coords if isinstance(x, Configuration) else Configuration(x).coords)


def _distances(pts: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # a distance past the float range reads inf, as in mds_optimize's trace
        diff = pts.T[:, :, None] - pts.T[:, None, :]
        np.square(diff, out=diff)
        d = diff[0]
        for sq in diff[1:]:
            d += sq
    return np.sqrt(d, out=d)


def _same_points(delta, w, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked arrays of delta, weights and configuration.  Their shapes are compared before
    the per-type checks, so a configuration that is not n x m reads as a disagreement too."""
    inputs = (delta, Dissimilarities, "delta"), (w, Weights, "w"), (x, Configuration, "coords")
    dl, wt, pts = (np.shape(getattr(v, attr) if isinstance(v, kind) else v) for v, kind, attr in inputs)
    if len(pts) != 2 or not dl == wt == (pts[0], pts[0]):
        raise ValueError(f"delta {dl}, weights {wt} and configuration {pts} disagree")
    dl, wt, pts = (getattr(v if isinstance(v, kind) else kind(v), attr) for v, kind, attr in inputs)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or 0·inf ends in a sum refused here
        if not np.isfinite(np.sum(wt * dl**2)):
            raise ValueError("the stress at the origin, sum(weights * delta**2) / 2, must be finite")
    return dl, wt, pts


def stress(delta, w, x) -> StressBreakdown:
    """½ΣΣ w (d - δ)² together with its decomposition parts."""
    dl, wt, pts = _same_points(delta, w, x)
    d = _distances(pts)
    const = 0.5 * float(np.sum(wt * dl**2))
    g = 0.5 * float(np.sum(wt * dl * d))
    h2 = 0.5 * float(np.sum(wt * d**2))
    total = 0.5 * float(np.sum((d - dl) ** 2 * wt))  # mds_optimize's residual order
    return StressBreakdown(total=total, const=const, g=g, h_squared=h2)


def _laplacian(coef: np.ndarray) -> np.ndarray:
    """½ ΣΣ coef_ij A_ij for a symmetric zero-diagonal coefficient matrix."""
    lap = -coef.copy()
    np.fill_diagonal(lap, coef.sum(axis=1))
    return lap


def _b(dl: np.ndarray, wt: np.ndarray, pts: np.ndarray) -> np.ndarray:
    k = _distances(pts)
    np.divide(1.0, k, out=k, where=k > 0)  # 1/d where d > 0; elsewhere d is 0, as a checked x has no NaN d
    return _laplacian(wt * dl * k)


def b_matrix(delta, w, x) -> np.ndarray:
    """B(X) = ½ΣΣ w δ k A_ij with k = 1/d where d > 0, else 0."""
    return _b(*_same_points(delta, w, x))


def c_matrix(w) -> np.ndarray:
    """C = ½ΣΣ w A_ij, the weight Laplacian."""
    return _laplacian(w.w if isinstance(w, Weights) else Weights(w).w)


def d_matrix(delta, w, x) -> np.ndarray:
    """D(X) = C - 2B(X)."""
    dl, wt, pts = _same_points(delta, w, x)
    return _laplacian(wt) - 2.0 * _b(dl, wt, pts)


def descent_operator(delta, w, x) -> np.ndarray:
    """C - B(X): the operator whose application steps X down the stress slope."""
    dl, wt, pts = _same_points(delta, w, x)
    return _laplacian(wt) - _b(dl, wt, pts)


def mds_optimize(delta, w, x0, eta: float = 0.05, max_iters: int = 200,
                 tol: float = 1e-9) -> list[tuple[np.ndarray, float]]:
    """Fixed-step descent on the stress; returns the (configuration, stress) trace.

    Stops when the per-step stress improvement drops below tol (a stress
    increase, possible with an oversized step, therefore also stops the loop
    and stays visible in the returned trace, as does a stress that overflows
    to inf or NaN, without a numpy warning) or when max_iters is exhausted.
    A step η below 2/λ_max(C) cannot raise the stress (de Leeuw 1977); with
    uniform weights λ_max(C) = n, so the default 0.05 loses that guarantee
    from 40 points on.

    Each step turns one scratch matrix into η(C - B(X)) in place: 1/d with 0
    on the diagonal, times w·δ, plus C, the row sum taken off the diagonal
    (0 + C_ii is C_ii), times η: the arithmetic of ``eta * descent_operator``
    (1/d where d > 0, else 0) in the same order, unless two points coincide.
    Their 1/d = inf makes the new stress NaN, and a step whose stress is not
    finite is redone from the previous X with the masked 1/d, so the trace
    equals the public operators' bit for bit, diverging runs included.  The
    stress is one residual (d - δ)²·w, in scratch allocated once per call.
    From 8 columns on, ``distances`` may differ from a broadcast sum in the
    last place, and the trace with it.
    """
    _check_positive(eta, "eta")
    _check_positive(tol, "tol")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    dl, wt, x = _same_points(delta, w, x0)
    c, wdl = _laplacian(wt), wt * dl
    step, resid, diff, xt = np.empty_like(c), np.empty_like(c), np.empty((x.shape[1],) + c.shape), np.empty(x.T.shape)
    left, right, d, step_diag = xt[:, :, None], xt[:, None, :], diff[0], step.reshape(-1)[:: len(step) + 1]  # views

    # a step is some 20 ufunc calls on n x n arrays, so lookups and keyword parsing show: local names, out positional
    add, sub, mul, square, reduce = np.add, np.subtract, np.multiply, np.square, np.add.reduce

    def stress_at(x: np.ndarray) -> float:  # x's distances into d, its stress returned
        xt[...] = x.T
        square(sub(left, right, diff), diff)
        for sq in diff[1:]:
            add(d, sq, d)
        np.sqrt(d, d)
        square(sub(d, dl, resid), resid)
        return 0.5 * float(reduce(mul(resid, wt, resid), None))

    def stepped(x: np.ndarray, masked: bool) -> np.ndarray:  # x - η(C - B(X))x, B(X) from d
        if masked:
            step.fill(0.0)
            np.divide(1.0, d, out=step, where=d > 0)
        else:
            np.reciprocal(d, step)
            step_diag.fill(0.0)  # the reference's k_ii = 0, so w_ii·δ_ii·k_ii rounds alike
        rowsum = reduce(mul(step, wdl, step), 1)
        add(step, c, step)
        sub(step_diag, rowsum, step_diag)
        new = np.dot(mul(step, eta, step), x)
        return sub(x, new, new)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        trace = [(x.copy(), stress_at(x))]
        for _ in range(max_iters):
            new = stepped(x, False)
            value = stress_at(new)
            if not math.isfinite(value):  # also every step where points coincide: redo it with the mask
                stress_at(x)  # the previous x's distances back into d
                new = stepped(x, True)
                value = stress_at(new)
            x = new
            trace.append((x, value))
            if not trace[-2][1] - value >= tol:  # a NaN stress stops the loop too
                break
    return trace


@functools.lru_cache(maxsize=4)
def _pauli_table(shape: tuple[int, int], digits: bytes) -> PauliStrings:
    """PauliStrings.from_digits of _pauli_digits' intp digits, read-only and kept: MDS instances of one
    size mostly keep one string set."""
    table = PauliStrings.from_digits(np.frombuffer(digits, dtype=np.intp).reshape(shape))
    table.cols.flags.writeable = table.phase.flags.writeable = False
    return table


@dataclass(frozen=True)
class ColumnDemoResult:
    """The circuit pipeline applied to one configuration column."""

    labels: list[str]
    weights: np.ndarray
    quantum_point: np.ndarray
    classical_point: np.ndarray
    success_prob: float
    max_abs_diff: float


def lcu_column_demo(delta, w, x) -> ColumnDemoResult:
    """Run one circuit step of D(X), with step _DEMO_ETA, on the first column of X, normalized.

    Needs the point count to be a power of two so D decomposes over Pauli
    strings (p = 1, one term per nonzero component).  This demonstrates
    circuit/oracle agreement on the D operator itself; the production
    optimizer steps with the corrected operator and stays classical.
    """
    dl, wt, pts = _same_points(delta, w, x)
    n = pts.shape[0]
    if n < 2 or n & (n - 1) != 0:
        raise ValueError("column demo needs a power-of-two point count of at least 2")
    # a real symmetric D spans at most the n(n+1)/2 real symmetric Pauli
    # strings; a layout past the qubit cap fails before any string is built
    lcu.RegisterLayout.for_problem(n * (n + 1) // 2, n)
    dmat = _laplacian(wt) - 2.0 * _b(dl, wt, pts)
    digits, weights = _pauli_digits(dmat)  # kept in sorted label order
    if not len(weights):
        raise ValueError("D(X) is zero; nothing to demonstrate")
    unit = Point.normalized(pts[:, 0]).coords
    table = _pauli_table(digits.shape, digits.tobytes())
    images = apply_factors(table, unit)
    vec, prob = lcu.run_lcu_step(images, weights, unit, _DEMO_ETA)
    classical = Point.normalized(unit - _DEMO_ETA * dmat @ unit).coords
    return ColumnDemoResult(labels=list(table.labels), weights=weights, quantum_point=vec, classical_point=classical,
                            success_prob=prob, max_abs_diff=float(np.max(np.abs(vec - classical))))
