"""Multidimensional scaling as a descent application.

The stress ½ΣΣ w_ij (d_ij - δ_ij)² decomposes as const - 2g(X) + h²(X) with
g = tr(XᵀB(X)X) and h² = tr(XᵀCX), where B and C are weighted graph
Laplacians built from A_ij = (e_i - e_j)(e_i - e_j)ᵀ.  The operator
D(X) = C - 2B collects the non-constant part as f' = tr(XᵀD(X)X).

The desk optimizer steps against the actual stress slope, X - η(C - B(X))X:
treating B as frozen (stepping with D) stalls at rescaled configurations with
nonzero stress, so D is kept for the trace identities and the circuit demo
while the optimizer uses the corrected operator.

Each public function takes δ, w and X as their types or as raw arrays: an
instance passes through, a raw array is built into its type and so meets the
same checks and messages.  The work inside runs on the checked arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lcu
from .poly import PauliStrings, _pauli_digits, apply_factors

_DEMO_ETA = 0.05  # the column demo's step


def _square_checked(m, name: str) -> np.ndarray:
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} entries must be finite")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError(f"{name} must be symmetric")
    if np.max(np.abs(np.diag(a))) > 1e-12:
        raise ValueError(f"{name} must have a zero diagonal")
    if np.min(a) < 0:
        raise ValueError(f"{name} entries must be nonnegative")
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


def _distances(pts: np.ndarray, diff: np.ndarray | None = None) -> np.ndarray:
    diff = np.subtract(pts.T[:, :, None], pts.T[:, None, :], out=diff)
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
    return tuple(getattr(v if isinstance(v, kind) else kind(v), attr) for v, kind, attr in inputs)


def stress(delta, w, x) -> StressBreakdown:
    """½ΣΣ w (d - δ)² together with its decomposition parts."""
    dl, wt, pts = _same_points(delta, w, x)
    d = _distances(pts)
    const = 0.5 * float(np.sum(wt * dl**2))
    g = 0.5 * float(np.sum(wt * dl * d))
    h2 = 0.5 * float(np.sum(wt * d**2))
    return StressBreakdown(total=_stress_total(dl, wt, d), const=const, g=g, h_squared=h2)


def _stress_total(dl: np.ndarray, wt: np.ndarray, d: np.ndarray, resid: np.ndarray | None = None) -> float:
    """½ΣΣ w (d - δ)², from one residual (in the scratch resid when given) squared and weighted in place."""
    resid = np.subtract(d, dl, out=resid)
    resid *= resid
    resid *= wt
    return 0.5 * float(resid.sum())


def _laplacian(coef: np.ndarray) -> np.ndarray:
    """½ ΣΣ coef_ij A_ij for a symmetric zero-diagonal coefficient matrix."""
    lap = -coef.copy()
    np.fill_diagonal(lap, coef.sum(axis=1))
    return lap


def _b(dl: np.ndarray, wt: np.ndarray, pts: np.ndarray) -> np.ndarray:
    d = _distances(pts)
    k = np.zeros_like(d)
    np.divide(1.0, d, out=k, where=d > 0)
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

    Each step turns one scratch matrix into η(C - B(X)) in place: 1/d where
    d > 0 (else 0), times w·δ, plus C off the diagonal, C_ii minus the row sum
    on it, times η.  That is the arithmetic of ``eta * descent_operator`` in
    the same order, so the trace equals the public operators' bit for bit;
    the stress comes from one residual (d - δ)²·w, all in scratch allocated once
    per call.  From 8 columns on, ``distances`` may differ from a broadcast sum
    in the last place, and the trace with it.
    """
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    dl, wt, x = _same_points(delta, w, x0)
    c, wdl = _laplacian(wt), wt * dl
    c_diag = c.diagonal()
    step, resid, diff = np.empty_like(c), np.empty_like(c), np.empty((x.shape[1],) + c.shape)
    step_diag = step.reshape(-1)[:: len(step) + 1]  # a writable view
    with np.errstate(over="ignore", invalid="ignore"):
        d = _distances(x, diff)  # diff[0], summed in the (m, n, n) scratch, so each step rewrites d
        trace = [(x.copy(), _stress_total(dl, wt, d, resid))]
        for _ in range(max_iters):
            step.fill(0.0)
            np.divide(1.0, d, out=step, where=d > 0)
            step *= wdl
            rowsum = step.sum(axis=1)
            step += c
            np.subtract(c_diag, rowsum, out=step_diag)
            step *= eta
            x = x - np.dot(step, x)
            _distances(x, diff)  # d now gives this step's stress and the next step's B(X)
            value = _stress_total(dl, wt, d, resid)
            trace.append((x, value))
            if not trace[-2][1] - value >= tol:  # a NaN stress stops the loop too
                break
    return trace


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
        raise ValueError("column demo needs a power-of-two point count")
    # a real symmetric D spans at most the n(n+1)/2 real symmetric Pauli
    # strings; a layout past the qubit cap fails before any string is built
    lcu.RegisterLayout.for_problem(n * (n + 1) // 2, n)
    dmat = _laplacian(wt) - 2.0 * _b(dl, wt, pts)
    digits, weights = _pauli_digits(dmat)  # kept in sorted label order
    if not len(weights):
        raise ValueError("D(X) is zero; nothing to demonstrate")
    col = pts[:, 0]
    norm = np.linalg.norm(col)
    if norm < 1e-12:
        raise ValueError("first column has zero norm")
    unit = col / norm
    table = PauliStrings.from_digits(digits)
    images = apply_factors(table, unit[None].repeat(len(weights), 0))
    vec, prob = lcu.run_lcu_step(images, weights, unit, _DEMO_ETA)
    classical = unit - _DEMO_ETA * dmat @ unit
    classical = classical / np.linalg.norm(classical)
    return ColumnDemoResult(labels=list(table.labels), weights=weights, quantum_point=vec, classical_point=classical,
                            success_prob=prob, max_abs_diff=float(np.max(np.abs(vec - classical))))
