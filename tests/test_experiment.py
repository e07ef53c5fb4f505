import math
from dataclasses import replace

import numpy as np
import pytest

from qdescent.experiment import (
    DECOMP,
    STARTS,
    X_OPT,
    ExperimentConfig,
    benchmark_decomposition,
    objective_theta,
    overlap,
    overlap_table_csv,
    run_case,
)
from qdescent.poly import Point, classical_gradient, evaluate_objective

SQ3 = math.sqrt(3.0)


def circle_point(theta):
    return Point(np.array([math.cos(theta), math.sin(theta)]))


def test_objective_theta_reference_values():
    assert objective_theta(0.0) == 0.0
    assert np.isclose(objective_theta(math.pi / 3), -3 * SQ3 / 8, atol=1e-15)
    assert np.isclose(objective_theta(math.pi / 4), -0.5, atol=1e-15)
    assert np.isclose(objective_theta(math.pi / 2), 0.0, atol=1e-15)


def test_objective_matches_circle_form_on_grid():
    d = benchmark_decomposition()
    for theta in np.linspace(0.0, 2 * math.pi, 1000):
        got = evaluate_objective(d, circle_point(theta))
        assert abs(got - objective_theta(theta)) <= 1e-12


def test_minimum_at_pi_over_three():
    grid = np.linspace(0.0, 2 * math.pi, 100000)
    vals = [objective_theta(t) for t in grid]
    best = grid[int(np.argmin(vals))]
    # the symmetric minimum at pi + pi/3 has the same value; fold it back
    assert min(abs(best - math.pi / 3), abs(best - math.pi - math.pi / 3)) <= 1e-4
    assert min(vals) >= -3 * SQ3 / 8 - 1e-9


def test_stationary_detector_agrees_with_circle_derivative():
    d = benchmark_decomposition()
    for theta in np.linspace(0.0, math.pi, 1000):
        s, c = math.sin(theta), math.cos(theta)
        df = -2.0 * s * s * (3 * c * c - s * s)
        # the tangential residual of Dx is |df/dtheta| / 2
        x = circle_point(theta).coords
        g = classical_gradient(d, x)
        residual = np.linalg.norm(g - (x @ g) * x)
        assert (residual <= 1e-8) == (abs(df) / 2 <= 1e-8)


def test_config_points_are_unit_norm():
    for p in (STARTS["s1"], STARTS["s2"], X_OPT):
        assert np.isclose(np.linalg.norm(p.coords), 1.0, atol=1e-12)
    assert np.isclose(evaluate_objective(DECOMP, X_OPT), -3 * SQ3 / 8, atol=1e-12)


def test_overlap_values():
    assert np.isclose(overlap(X_OPT, X_OPT), 1.0, atol=1e-14)
    e0, e1 = Point(np.array([1.0, 0.0])), Point(np.array([0.0, 1.0]))
    assert overlap(e0, e1) == 0.0
    assert np.isclose(overlap(STARTS["s2"], X_OPT), 0.8675356778901935, atol=1e-12)


def test_overlap_dimension_check():
    a = Point(np.array([1.0, 0.0]))
    b = Point(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        overlap(a, b)


def test_both_cases_converge_within_budget():
    for case in ("s1", "s2"):
        rows = run_case(case)
        assert rows[-1].label == "converged"
        assert len(rows) - 1 <= 8  # row 0 is the start, not an iteration
        assert rows[-1].overlap >= 0.999


def test_case_name_is_case_insensitive():
    assert len(run_case("S1")) == len(run_case("s1"))


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        run_case("s3")


def test_s1_lands_on_the_minimum():
    rows = run_case("s1")
    final = rows[-1].point.coords
    target = np.array([0.5, SQ3 / 2])
    assert min(np.linalg.norm(final - target), np.linalg.norm(final + target)) <= 0.02


def test_s1_frozen_overlap_sequence():
    rows = run_case("s1")
    got = [r.overlap for r in rows]
    assert np.allclose(got, [0.6095537979, 0.8805931979, 0.9985117012,
                             0.9999467543, 0.9999977000, 0.9999998971,
                             0.9999999954], atol=1e-8)


def test_row_invariants():
    for case in ("s1", "s2"):
        rows = run_case(case)
        assert [r.iteration for r in rows] == list(range(len(rows)))
        assert rows[0].success_prob is None
        for r in rows:
            assert -1.0 - 1e-12 <= r.overlap <= 1.0 + 1e-12
            assert r.f_value >= -2.0  # |f| <= |s| * prod of operator norms
            assert np.isclose(np.linalg.norm(r.point.coords), 1.0, atol=1e-12)
        for r in rows[1:]:
            assert 0.0 < r.success_prob <= 1.0


def test_objective_never_increases_along_either_trajectory():
    for case in ("s1", "s2"):
        fs = [r.f_value for r in run_case(case)]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))


def test_noise_run_still_converges():
    rows = run_case("s2", noise_eps=0.1, config=replace(ExperimentConfig(), max_iters=12))
    assert rows[-1].label == "converged"
    assert rows[-1].overlap >= 0.99
    for r in rows[1:]:
        assert r.fidelity is not None
        assert 0.0 < r.fidelity < 1.0


def test_overlap_table_csv_shape():
    tables = {case: run_case(case) for case in ("s1", "s2")}
    text = overlap_table_csv(tables)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,case,x1,x2,f,overlap,success_prob"
    assert len(lines) == 1 + len(tables["s1"]) + len(tables["s2"])
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "s1"
    assert first[6] == ""  # starting row has no circuit success probability
    # all numeric fields round-trip through float(); iteration-0 rows leave
    # the success_prob column empty
    for line in lines[1:]:
        parts = line.split(",")
        for v in parts[2:6]:
            float(v)
        if parts[0] == "0":
            assert parts[6] == ""
        else:
            float(parts[6])
