"""Acceptance gate: ten pipeline-level checks, one printed line each.

Run with -s (or read past the capture) to see the per-criterion lines.
"""

import math
import time

import numpy as np

from conftest import aligned, random_decomposition, random_point
from qdescent import sim
from qdescent.errors import DegenerateStepError
from qdescent.experiment import benchmark_decomposition, objective_theta, run_case
from qdescent.lcu import estimate_b, run_iteration
from qdescent.mds import Weights, b_matrix, c_matrix, distances, mds_optimize, stress
from qdescent.poly import (
    Point,
    classical_gradient,
    classical_iterate,
    coefficients,
    evaluate_objective,
    expand_coefficients,
)

SQ3 = math.sqrt(3.0)


def criterion(num):
    """Print one [acceptance] line per criterion, pass or fail."""
    def wrap(fn):
        def run(capsys):
            try:
                detail = fn()
            except AssertionError as exc:
                with capsys.disabled():
                    print(f"\n[acceptance] criterion {num}: FAIL ({exc})")
                raise
            with capsys.disabled():
                print(f"\n[acceptance] criterion {num}: PASS ({detail})")
        # keep the collected test name; the wrapper signature must stay
        # visible so pytest injects capsys
        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        return run
    return wrap


def circle_point(theta):
    return Point(np.array([math.cos(theta), math.sin(theta)]))


@criterion(1)
def test_criterion_1_experiment_convergence():
    details = []
    for case in ("s1", "s2"):
        start = time.perf_counter()
        rows = run_case(case)
        elapsed = time.perf_counter() - start
        iters = len(rows) - 1
        assert iters <= 8, f"{case} took {iters} iterations"
        assert abs(rows[-1].overlap) >= 0.999, f"{case} overlap {rows[-1].overlap}"
        per_iter = elapsed / iters
        assert per_iter < 1.0, f"{case} {per_iter:.3f} s per iteration"
        details.append(f"{case}: {iters} iters, overlap {rows[-1].overlap:.6f}, "
                       f"{per_iter * 1000:.1f} ms/iter")
    return "; ".join(details)


@criterion(2)
def test_criterion_2_analytic_objective():
    d = benchmark_decomposition()
    worst = 0.0
    for theta in np.linspace(0.0, 2 * math.pi, 1000):
        diff = abs(evaluate_objective(d, circle_point(theta)) - objective_theta(theta))
        worst = max(worst, diff)
    assert worst <= 1e-12, f"grid max diff {worst:.3e}"
    at_min = evaluate_objective(d, circle_point(math.pi / 3))
    assert abs(at_min - (-3 * SQ3 / 8)) <= 1e-12, f"minimum value {at_min}"
    return f"grid max diff {worst:.2e}, f(pi/3) = {at_min:.15f}"


@criterion(3)
def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 200:
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        eta = float(1.0 - rng.uniform())  # (0, 1]
        try:
            expect, _ = classical_iterate(d, x, eta)
        except DegenerateStepError:
            continue
        out = run_iteration(d, x, eta)
        got = aligned(out.next_point.coords, expect.coords)
        worst = max(worst, float(np.max(np.abs(got - expect.coords))))
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"max componentwise diff {worst:.3e}"
    assert elapsed < 60.0, f"suite took {elapsed:.1f} s"
    return f"200 instances, max diff {worst:.2e}, {elapsed:.1f} s"


@criterion(4)
def test_criterion_4_success_probability_law():
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    while checked < 200:
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        eta = float(1.0 - rng.uniform())
        try:
            out = run_iteration(d, x, eta)
        except DegenerateStepError:
            continue
        c = coefficients(d, x).c
        beta = 1.0 + eta * float(np.sum(np.abs(c)))
        step = x.coords - eta * classical_gradient(d, x)
        law = float(step @ step) / beta**2
        worst = max(worst, abs(out.success_prob - law))
        checked += 1
    assert worst <= 1e-12, f"max law deviation {worst:.3e}"
    frozen = run_iteration(benchmark_decomposition(), Point.normalized([1.0, 1.0]), eta=1.0)
    assert abs(frozen.success_prob - 0.680) <= 1e-12, f"benchmark P {frozen.success_prob}"
    return f"max law deviation {worst:.2e}, benchmark P = {frozen.success_prob:.12f}"


@criterion(5)
def test_criterion_5_finite_difference_gradient():
    rng = np.random.default_rng(102)
    h = 1e-6
    worst = 0.0
    for _ in range(25):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        g = 2.0 * classical_gradient(d, x)
        for i in range(d.dim):
            xp = x.coords.copy()
            xp[i] += h
            xm = x.coords.copy()
            xm[i] -= h
            fd = (evaluate_objective(d, xp) - evaluate_objective(d, xm)) / (2 * h)
            rel = abs(fd - g[i]) / max(1.0, abs(g[i]))
            worst = max(worst, rel)
    assert worst <= 1e-5, f"max relative FD error {worst:.3e}"
    return f"25 instances, max relative FD error {worst:.2e}"


@criterion(6)
def test_criterion_6_dense_matches_decomposed():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        tensor = expand_coefficients(d)
        dense = tensor
        for _ in range(2 * d.order_p):
            dense = np.tensordot(dense, x.coords, axes=([dense.ndim - 1], [0]))
        worst = max(worst, abs(float(dense) - evaluate_objective(d, x)))
    assert worst <= 1e-9, f"max dense/decomposed diff {worst:.3e}"
    return f"100 instances, max diff {worst:.2e}"


@criterion(7)
def test_criterion_7_fixed_points_match_derivative_zeros():
    d = benchmark_decomposition()
    fixed, moving = 0, 0
    for theta in np.linspace(0.0, 2 * math.pi, 1000):
        s, c = math.sin(theta), math.cos(theta)
        df = -2.0 * s * s * (3 * c * c - s * s)
        x = circle_point(theta)
        out = run_iteration(d, x, eta=1.0)
        disp = float(np.linalg.norm(aligned(out.next_point.coords, x.coords) - x.coords))
        if abs(df) <= 1e-8:
            assert disp <= 1e-9, f"theta {theta:.6f}: derivative zero but moved {disp:.3e}"
            fixed += 1
        else:
            assert disp > 1e-9, f"theta {theta:.6f}: stuck with |df| {abs(df):.3e}"
            moving += 1
    return f"{fixed} stationary and {moving} moving grid points classified consistently"


@criterion(8)
def test_criterion_8_sampled_statistics():
    d = benchmark_decomposition()
    x = Point.normalized([0.6, 0.8])
    shots = 100_000
    exact = estimate_b(d, x).reshape(-1)
    probs = np.clip(exact**2, 0.0, 1.0)
    bounds = 4.0 * np.sqrt(probs * (1.0 - probs) / shots) + 1e-12
    hits = 0
    for trial in range(100):
        got = estimate_b(d, x, shots=shots, seed=trial).reshape(-1)
        if np.all(np.abs(got**2 - probs) <= bounds):
            hits += 1
    assert hits >= 99, f"only {hits}/100 trials inside 4 sigma"
    return f"{hits}/100 trials inside 4 sigma at {shots} shots"


@criterion(9)
def test_criterion_9_noise_workflow():
    details = []
    for case in ("s1", "s2"):
        rows = run_case(case, noise_eps=0.05, max_iters=12)
        iters = len(rows) - 1
        assert iters <= 12, f"{case} took {iters} iterations"
        assert abs(rows[-1].overlap) >= 0.99, f"{case} overlap {rows[-1].overlap}"
        details.append(f"{case}: {iters} iters, overlap {rows[-1].overlap:.4f}")
    final = run_case("s2")[-1].point.coords
    _, self_f = sim._noise_round(final, 0.0, 2)
    assert abs(self_f - 1.0) <= 1e-12, f"F(exact, exact) = {self_f}"
    fids = []
    for eps in (0.02, 0.05, 0.1, 0.2):
        noisy = run_case("s2", noise_eps=eps, max_iters=3)
        fids.append(noisy[1].fidelity)
    assert all(b < a for a, b in zip(fids, fids[1:])), f"fidelities not decreasing: {fids}"
    details.append("F(exact, exact) = 1 and fidelity decreases over eps grid")
    return "; ".join(details)


@criterion(10)
def test_criterion_10_mds_identities_and_recovery():
    rng = np.random.default_rng(104)
    worst = 0.0
    cases = []
    for _ in range(20):
        n = int(rng.integers(3, 7))
        cases.append((distances(rng.standard_normal((n, 2))), rng.standard_normal((n, 2))))
    # coincident configurations: duplicated rows and a fully collapsed one
    dup = rng.standard_normal((4, 2))
    dup[1] = dup[0]
    cases.append((distances(rng.standard_normal((4, 2))), dup))
    cases.append((distances(rng.standard_normal((4, 2))), np.ones((4, 2))))
    for delta, x in cases:
        n = delta.shape[0]
        w = Weights.uniform(n)
        s = stress(delta, w, x)
        worst = max(worst, abs(s.total - (s.const - 2 * s.g + s.h_squared)))
        worst = max(worst, abs(float(np.trace(x.T @ b_matrix(delta, w, x) @ x)) - s.g))
        worst = max(worst, abs(float(np.trace(x.T @ c_matrix(w) @ x)) - s.h_squared))
    assert worst <= 1e-10, f"max identity deviation {worst:.3e}"
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    delta = distances(square)
    x0 = square + 0.1 * np.random.default_rng(0).standard_normal(square.shape)
    trace = mds_optimize(delta, Weights.uniform(4), x0, eta=0.05, max_iters=200)
    final = trace[-1][1]
    assert final <= 1e-3, f"square recovery stress {final:.3e}"
    assert len(trace) - 1 <= 200
    return (f"max identity deviation {worst:.2e}; square recovered to "
            f"stress {final:.2e} in {len(trace) - 1} iterations")
