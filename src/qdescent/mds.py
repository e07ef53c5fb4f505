"""Multidimensional scaling as a descent application.

The stress ½ΣΣ w_ij (d_ij - δ_ij)² decomposes as const - 2g(X) + h²(X) with
g = tr(XᵀB(X)X) and h² = tr(XᵀCX), where B and C are weighted graph
Laplacians built from A_ij = (e_i - e_j)(e_i - e_j)ᵀ.  The operator
D(X) = C - 2B collects the non-constant part as f' = tr(XᵀD(X)X).

The desk optimizer steps against the actual stress slope, X - η(C - B(X))X:
treating B as frozen (stepping with D) stalls at rescaled configurations with
nonzero stress, so D is kept for the trace identities and the circuit demo
while the optimizer uses the corrected operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lcu
from .poly import UnitaryFactor, pauli_decompose, pauli_label_matrix


def _square_checked(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
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
        a = np.asarray(self.coords, dtype=float)
        if a.ndim != 2:
            raise ValueError("configuration must be an n x m matrix")
        if not np.all(np.isfinite(a)):
            raise ValueError("configuration entries must be finite")
        object.__setattr__(self, "coords", a)


def _as_array(x, attr: str) -> np.ndarray:
    return getattr(x, attr) if hasattr(x, attr) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class StressBreakdown:
    """Stress value with its const - 2g + h² decomposition."""

    total: float
    const: float
    g: float
    h_squared: float


def distances(x) -> np.ndarray:
    """Euclidean distance matrix of a configuration."""
    pts = _as_array(x, "coords")
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def stress(delta, w, x) -> StressBreakdown:
    """½ΣΣ w (d - δ)² together with its decomposition parts."""
    dl = _as_array(delta, "delta")
    wt = _as_array(w, "w")
    if dl.shape != wt.shape:
        raise ValueError("delta and weights must share a shape")
    d = distances(x)
    if d.shape != dl.shape:
        raise ValueError("configuration size does not match delta")
    total = 0.5 * float(np.sum(wt * (d - dl) ** 2))
    const = 0.5 * float(np.sum(wt * dl**2))
    g = 0.5 * float(np.sum(wt * dl * d))
    h2 = 0.5 * float(np.sum(wt * d**2))
    return StressBreakdown(total=total, const=const, g=g, h_squared=h2)


def _laplacian(coef: np.ndarray) -> np.ndarray:
    """½ ΣΣ coef_ij A_ij for a symmetric zero-diagonal coefficient matrix."""
    lap = -coef.copy()
    np.fill_diagonal(lap, coef.sum(axis=1))
    return lap


def b_matrix(delta, w, x) -> np.ndarray:
    """B(X) = ½ΣΣ w δ k A_ij with k = 1/d where d > 0, else 0."""
    dl = _as_array(delta, "delta")
    wt = _as_array(w, "w")
    d = distances(x)
    k = np.zeros_like(d)
    np.divide(1.0, d, out=k, where=d > 0)
    return _laplacian(wt * dl * k)


def c_matrix(w) -> np.ndarray:
    """C = ½ΣΣ w A_ij, the weight Laplacian."""
    return _laplacian(_as_array(w, "w"))


def d_matrix(delta, w, x) -> np.ndarray:
    """D(X) = C - 2B(X)."""
    return c_matrix(w) - 2.0 * b_matrix(delta, w, x)


def f_prime(delta, w, x) -> float:
    """tr(Xᵀ D(X) X), the non-constant stress part -2g + h²."""
    pts = _as_array(x, "coords")
    return float(np.trace(pts.T @ d_matrix(delta, w, x) @ pts))


def descent_operator(delta, w, x) -> np.ndarray:
    """C - B(X): the operator whose application steps X down the stress slope."""
    return c_matrix(w) - b_matrix(delta, w, x)


def stress_gradient(delta, w, x) -> np.ndarray:
    """Exact stress derivative 2 (C - B(X)) X (checks out against finite differences)."""
    pts = _as_array(x, "coords")
    return 2.0 * descent_operator(delta, w, x) @ pts


def mds_optimize(delta, w, x0, eta: float = 0.05, max_iters: int = 200,
                 tol: float = 1e-9) -> list[tuple[np.ndarray, float]]:
    """Fixed-step descent on the stress; returns the (configuration, stress) trace.

    Stops when the per-step stress improvement drops below tol (a stress
    increase, possible with an oversized step, therefore also stops the loop
    and stays visible in the returned trace) or when max_iters is exhausted.
    """
    if not 0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    x = _as_array(x0, "coords").copy()
    trace = [(x.copy(), stress(delta, w, x).total)]
    for _ in range(max_iters):
        x = x - eta * descent_operator(delta, w, x) @ x
        value = stress(delta, w, x).total
        trace.append((x.copy(), value))
        if trace[-2][1] - value < tol:
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


def lcu_column_demo(delta, w, x, column: int = 0, eta: float = 0.05) -> ColumnDemoResult:
    """Run one circuit step of D(X) on a single normalized column of X.

    Needs the point count to be a power of two so D decomposes over Pauli
    strings (p = 1, one term per nonzero component).  This demonstrates
    circuit/oracle agreement on the D operator itself; the production
    optimizer steps with the corrected operator and stays classical.
    """
    pts = _as_array(x, "coords")
    n = pts.shape[0]
    if n < 2 or n & (n - 1) != 0:
        raise ValueError("column demo needs a power-of-two point count")
    if not 0 <= column < pts.shape[1]:
        raise ValueError("column index out of range")
    dmat = d_matrix(delta, w, pts)
    comps = pauli_decompose(dmat)
    if not comps:
        raise ValueError("D(X) is zero; nothing to demonstrate")
    labels = sorted(comps)
    weights = np.array([comps[lbl] for lbl in labels])
    col = pts[:, column]
    norm = np.linalg.norm(col)
    if norm < 1e-12:
        raise ValueError("selected column has zero norm")
    unit = col / norm
    factors = [UnitaryFactor(pauli_label_matrix(lbl)) for lbl in labels]
    vec, prob, _, _ = lcu.run_lcu_step(factors, weights, unit, eta)
    classical = unit - eta * dmat @ unit
    classical = classical / np.linalg.norm(classical)
    return ColumnDemoResult(
        labels=labels,
        weights=weights,
        quantum_point=vec,
        classical_point=classical,
        success_prob=prob,
        max_abs_diff=float(np.max(np.abs(vec - classical))),
    )
