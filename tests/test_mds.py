import numpy as np
import pytest

from qdescent.mds import (
    Configuration,
    Dissimilarities,
    Weights,
    b_matrix,
    c_matrix,
    d_matrix,
    descent_operator,
    distances,
    f_prime,
    lcu_column_demo,
    mds_optimize,
    stress,
    stress_gradient,
)

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2]])


def square_delta():
    return Dissimilarities(distances(SQUARE))


def test_distances_examples():
    assert np.allclose(distances(np.zeros((3, 2))), np.zeros((3, 3)))
    d = distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert np.allclose(d, [[0.0, 5.0], [5.0, 0.0]])


def test_distances_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 3))
    d = distances(pts)
    for i in range(6):
        for j in range(6):
            assert np.isclose(d[i, j], np.linalg.norm(pts[i] - pts[j]), atol=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        Dissimilarities(np.ones((2, 3)))
    with pytest.raises(ValueError):
        Dissimilarities(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Dissimilarities(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        Weights(np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative
    with pytest.raises(ValueError):
        Configuration(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Configuration(np.array([[np.nan, 0.0]]))


def test_uniform_weights():
    w = Weights.uniform(3)
    assert np.allclose(w.w, np.ones((3, 3)) - np.eye(3))


def test_stress_zero_for_perfect_embedding():
    assert stress(square_delta(), Weights.uniform(4), SQUARE).total == 0.0
    assert stress(distances(TRIANGLE), Weights.uniform(3), TRIANGLE).total == 0.0


def test_stress_brute_force_and_decomposition():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        target = rng.standard_normal((n, 2))
        x = rng.standard_normal((n, 2))
        delta = distances(target)
        w = rng.uniform(0.1, 2.0, size=(n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        s = stress(delta, w, x)
        d = distances(x)
        brute = 0.5 * sum(w[i, j] * (d[i, j] - delta[i, j]) ** 2
                          for i in range(n) for j in range(n))
        assert np.isclose(s.total, brute, atol=1e-12)
        assert np.isclose(s.total, s.const - 2 * s.g + s.h_squared, atol=1e-10)


def test_stress_shape_mismatch():
    with pytest.raises(ValueError):
        stress(np.zeros((3, 3)), np.zeros((4, 4)), SQUARE)
    with pytest.raises(ValueError):
        stress(square_delta(), Weights.uniform(4), TRIANGLE)


def test_operators_vanish_without_weights():
    w = np.zeros((4, 4))
    assert np.allclose(b_matrix(square_delta(), w, SQUARE), 0.0)
    assert np.allclose(c_matrix(w), 0.0)
    assert f_prime(square_delta(), w, SQUARE) == 0.0


def test_coincident_points_drop_out_of_b():
    # k = 1/d is zeroed where d = 0, so a fully coincident configuration
    # gives B = 0 and D = C
    x = np.ones((4, 2))
    b = b_matrix(square_delta(), Weights.uniform(4), x)
    assert np.allclose(b, 0.0)
    assert np.allclose(d_matrix(square_delta(), Weights.uniform(4), x),
                       c_matrix(Weights.uniform(4)))


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    w = rng.uniform(0.0, 1.0, size=(5, 5))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    x = rng.standard_normal((5, 2))
    delta = distances(rng.standard_normal((5, 2)))
    for mat in (c_matrix(w), b_matrix(delta, w, x), d_matrix(delta, w, x)):
        assert np.allclose(mat.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(mat, mat.T, atol=1e-12)


def test_trace_identities():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        delta = distances(rng.standard_normal((n, 2)))
        w = Weights.uniform(n)
        x = rng.standard_normal((n, 2))
        s = stress(delta, w, x)
        b = b_matrix(delta, w, x)
        c = c_matrix(w)
        assert np.isclose(np.trace(x.T @ b @ x), s.g, atol=1e-10)
        assert np.isclose(np.trace(x.T @ c @ x), s.h_squared, atol=1e-10)
        assert np.isclose(f_prime(delta, w, x), -2 * s.g + s.h_squared, atol=1e-10)
        assert np.isclose(s.total, s.const + f_prime(delta, w, x), atol=1e-10)


def test_f_prime_at_perfect_embedding_cancels_const():
    s = stress(square_delta(), Weights.uniform(4), SQUARE)
    assert np.isclose(f_prime(square_delta(), Weights.uniform(4), SQUARE),
                      -s.const, atol=1e-10)


def test_translation_invariance():
    rng = np.random.default_rng(4)
    delta = square_delta()
    w = Weights.uniform(4)
    x = rng.standard_normal((4, 2))
    shift = x + np.array([3.7, -1.2])
    assert np.isclose(stress(delta, w, x).total, stress(delta, w, shift).total, atol=1e-10)
    assert np.allclose(stress_gradient(delta, w, x),
                       stress_gradient(delta, w, shift), atol=1e-10)


def test_stress_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    delta = square_delta()
    w = Weights.uniform(4)
    x = SQUARE + 0.3 * rng.standard_normal(SQUARE.shape)
    g = stress_gradient(delta, w, x)
    h = 1e-6
    for i in range(4):
        for j in range(2):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            fd = (stress(delta, w, xp).total - stress(delta, w, xm).total) / (2 * h)
            assert np.isclose(g[i, j], fd, atol=1e-5)


def test_descent_operator_halves_gradient():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 2))
    g = stress_gradient(square_delta(), Weights.uniform(4), x)
    step = descent_operator(square_delta(), Weights.uniform(4), x) @ x
    assert np.allclose(g, 2.0 * step, atol=1e-12)


def test_optimize_keeps_perfect_embedding():
    trace = mds_optimize(square_delta(), Weights.uniform(4), SQUARE)
    assert len(trace) == 2
    assert trace[-1][1] == 0.0
    assert np.allclose(trace[-1][0], SQUARE, atol=1e-12)


def test_optimize_decreases_stress_monotonically():
    rng = np.random.default_rng(7)
    x0 = SQUARE + 0.1 * rng.standard_normal(SQUARE.shape)
    trace = mds_optimize(square_delta(), Weights.uniform(4), x0, eta=0.05, max_iters=200)
    vals = [v for _, v in trace]
    assert len(vals) > 10
    assert all(b < a for a, b in zip(vals[:11], vals[1:11]))
    assert vals[-1] <= 1e-3


def test_optimize_recovers_triangle_from_random_starts():
    delta = distances(TRIANGLE)
    w = Weights.uniform(3)
    for s in range(5):
        rng = np.random.default_rng(s)
        trace = mds_optimize(delta, w, rng.standard_normal((3, 2)), eta=0.05, max_iters=500)
        assert trace[-1][1] <= 1e-3


def test_optimize_validates_eta():
    with pytest.raises(ValueError):
        mds_optimize(square_delta(), Weights.uniform(4), SQUARE, eta=0.0)


def test_column_demo_matches_classical_step():
    rng = np.random.default_rng(8)
    x = SQUARE + 0.2 * rng.standard_normal(SQUARE.shape)
    for col in (0, 1):
        res = lcu_column_demo(square_delta(), Weights.uniform(4), x, column=col)
        assert res.max_abs_diff <= 1e-10
        assert np.allclose(res.quantum_point, res.classical_point, atol=1e-10)
        assert 0.0 < res.success_prob <= 1.0
        assert np.isclose(np.linalg.norm(res.quantum_point), 1.0, atol=1e-12)


def test_column_demo_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lcu_column_demo(distances(TRIANGLE), Weights.uniform(3), TRIANGLE)
    with pytest.raises(ValueError):
        lcu_column_demo(square_delta(), Weights.uniform(4), SQUARE, column=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", [Dissimilarities, Weights])
def test_pair_matrices_reject_non_finite_entries(kind, bad):
    m = distances(SQUARE)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        kind(m)


@pytest.mark.parametrize("kwargs", [
    {"eta": np.nan}, {"eta": np.inf}, {"eta": -np.inf}, {"tol": np.nan}, {"tol": np.inf},
])
def test_mds_optimize_rejects_non_finite_step_and_tol(kwargs):
    with pytest.raises(ValueError, match="finite"):
        mds_optimize(square_delta(), Weights.uniform(4), SQUARE + 0.1, **kwargs)
