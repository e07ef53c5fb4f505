"""Reproduction of the 2-qubit benchmark: a quartic objective on the circle.

The operator is A = -(I (x) X) + (X (x) Z) with a global prefactor of 1/2,
which on the unit circle reads f(cos t, sin t) = -2 sin^3 t cos t.  Two
starting points are tracked to the stable minimum at t = pi/3, with overlap
against the optimum recorded per iteration, plus an optional
depolarize-then-purify noise loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lcu
from .poly import Point, TensorDecomposition, evaluate_objective


def benchmark_decomposition() -> TensorDecomposition:
    """A = -(I (x) X) + (X (x) Z), prefactor 1/2 (dim 2, p = 2, K = 2)."""
    return TensorDecomposition(
        dim=2,
        order_p=2,
        terms=[["-I", "X"], ["X", "Z"]],
        prefactor=0.5,
    )


# the fixed experiment: its operator, the two published starts and the t = pi/3 optimum
DECOMP = benchmark_decomposition()
STARTS = {"s1": Point.normalized([-0.38, 0.92]), "s2": Point.normalized([0.86, 0.50])}
X_OPT = Point(np.array([0.5, math.sqrt(3) / 2]))


@dataclass(frozen=True)
class ExperimentConfig:
    """The defaults of the fixed experiment's run settings: run_case's keywords, which ``repro`` shows.

    The step size is 0.5: both published starting points then descend inside
    the basin of the t = pi/3 minimum.  A full step of 1.0 overshoots from the
    first start onto the unstable axis point (1, 0) and never recovers, so the
    smaller step is the reproducing choice; the CLI exposes --eta for
    sensitivity checks either way.
    """

    eta: float = 0.5
    threshold: float = 1e-3
    max_iters: int = 8


def objective_theta(theta: float) -> float:
    """The circle-reduced objective -2 sin^3 t cos t."""
    return -2.0 * math.sin(theta) ** 3 * math.cos(theta)


def overlap(a: Point, b: Point) -> float:
    """Inner product of two points."""
    if a.dim != b.dim:
        raise ValueError("points must share a dimension")
    return float(a.coords @ b.coords)


def run_case(case: str, shots: int | None = None, noise_eps: float = 0.0, seed: int | None = None, *,
             eta: float = ExperimentConfig.eta, threshold: float = ExperimentConfig.threshold,
             max_iters: int = ExperimentConfig.max_iters) -> list[lcu.IterationRecord]:
    """Full trajectory for case "s1" or "s2": the starting point as iteration 0, then every step
    (shots None post-selects exactly, a count samples each step at that many shots)."""
    x0 = STARTS.get(case.lower())
    if x0 is None:
        raise ValueError(f"unknown case {case!r}: expected 's1' or 's2'")
    start = lcu.IterationRecord(
        iteration=0, point=x0, f_value=evaluate_objective(DECOMP, x0), success_prob=None,
        overlap=overlap(x0, X_OPT), fidelity=None, label="start",
    )
    return [start] + lcu.optimize(
        DECOMP, x0, eta=eta, threshold=threshold, max_iters=max_iters, shots=shots, seed=seed,
        noise_eps=noise_eps, reference=X_OPT,
    )


def overlap_table_csv(rows_by_case: dict[str, list[lcu.IterationRecord]]) -> str:
    """CSV table (iter, case, x1, x2, f, overlap, success_prob) for plotting."""
    lines = ["iter,case,x1,x2,f,overlap,success_prob"]
    for case in sorted(rows_by_case):
        for r in rows_by_case[case]:
            sp = "" if r.success_prob is None else repr(float(r.success_prob))
            x1, x2 = map(repr, r.point.coords.tolist())
            lines.append(f"{r.iteration},{case},{x1},{x2},{repr(float(r.f_value))},{repr(float(r.overlap))},{sp}")
    return "\n".join(lines) + "\n"
