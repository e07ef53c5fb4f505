import re
import time

import numpy as np
import pytest

from qdescent import mds
from qdescent.errors import CapacityError
from qdescent.lcu import RegisterLayout
from qdescent.mds import (
    Configuration,
    Dissimilarities,
    Weights,
    b_matrix,
    c_matrix,
    d_matrix,
    descent_operator,
    distances,
    lcu_column_demo,
    mds_optimize,
    stress,
)
from qdescent.poly import PauliStrings, _pauli_digits, pauli_decompose

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
    with pytest.raises(ValueError, match="at least one column"):
        Configuration(np.zeros((4, 0)))
    with pytest.raises(ValueError, match="at least one column"):
        mds_optimize(square_delta(), Weights.uniform(4), np.zeros((4, 0)))


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
    assert np.trace(SQUARE.T @ d_matrix(square_delta(), w, SQUARE) @ SQUARE) == 0.0


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
        f_prime = np.trace(x.T @ d_matrix(delta, w, x) @ x)
        assert np.isclose(f_prime, -2 * s.g + s.h_squared, atol=1e-10)
        assert np.isclose(s.total, s.const + f_prime, atol=1e-10)


def test_f_prime_at_perfect_embedding_cancels_const():
    s = stress(square_delta(), Weights.uniform(4), SQUARE)
    d = d_matrix(square_delta(), Weights.uniform(4), SQUARE)
    assert np.isclose(np.trace(SQUARE.T @ d @ SQUARE), -s.const, atol=1e-10)


def test_translation_invariance():
    rng = np.random.default_rng(4)
    delta = square_delta()
    w = Weights.uniform(4)
    x = rng.standard_normal((4, 2))
    shift = x + np.array([3.7, -1.2])
    assert np.isclose(stress(delta, w, x).total, stress(delta, w, shift).total, atol=1e-10)
    assert np.allclose(2 * descent_operator(delta, w, x) @ x,
                       2 * descent_operator(delta, w, shift) @ shift, atol=1e-10)


def test_stress_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    delta = square_delta()
    w = Weights.uniform(4)
    x = SQUARE + 0.3 * rng.standard_normal(SQUARE.shape)
    g = 2 * descent_operator(delta, w, x) @ x
    h = 1e-6
    for i in range(4):
        for j in range(2):
            xp = x.copy()
            xp[i, j] += h
            xm = x.copy()
            xm[i, j] -= h
            fd = (stress(delta, w, xp).total - stress(delta, w, xm).total) / (2 * h)
            assert np.isclose(g[i, j], fd, atol=1e-5)


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


def test_optimize_from_an_overflowing_start_warns_nothing():
    # the start's squared distances overflow; pytest turns a numpy RuntimeWarning into an error
    trace = mds_optimize(square_delta(), Weights.uniform(4), 1e200 * (SQUARE + 1.0))
    assert trace[0][1] == np.inf


def test_optimize_validates_eta():
    with pytest.raises(ValueError):
        mds_optimize(square_delta(), Weights.uniform(4), SQUARE, eta=0.0)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_optimize_rejects_empty_budget(max_iters):
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        mds_optimize(square_delta(), Weights.uniform(4), SQUARE + 0.1, max_iters=max_iters)


def broadcast_distances(x):
    """The distance matrix by one broadcast sum over the columns."""
    diff = x[:, None, :] - x[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def reference_descent(delta, w, x0, eta=0.05, max_iters=200, tol=1e-9):
    """descent_operator and stress written out on broadcast distances, so this pin does not
    move with mds.distances."""
    dl, wt = delta.delta, w.w
    c = c_matrix(wt)

    def operator_and_stress(x):
        d = broadcast_distances(x)
        k = np.zeros_like(d)
        np.divide(1.0, d, out=k, where=d > 0)
        return c - c_matrix(wt * dl * k), 0.5 * float(np.sum(wt * (d - dl) ** 2))

    x = np.array(x0, dtype=float)
    op, value = operator_and_stress(x)
    trace = [(x.copy(), value)]
    for _ in range(max_iters):
        x = x - eta * op @ x
        op, value = operator_and_stress(x)
        trace.append((x.copy(), value))
        if trace[-2][1] - value < tol:
            break
    return trace


@pytest.mark.parametrize("n, uniform, width, case", [
    (4, True, 2, ""), (16, True, 2, ""), (33, True, 2, ""), (16, False, 2, ""), (16, True, 1, ""),
    (16, False, 3, ""), (16, False, 2, "coincident"), (16, False, 2, "diagonal"), (16, True, 2, "diagonal"),
    (16, False, 2, "apart"), (16, True, 2, "overflow"), (40, True, 2, "diverge"), (40, True, 2, "diverge-inf"),
    (40, True, 2, "diverge-nan"), *((16, False, width, "") for width in (1, 4, 5, 6, 7)),
], ids=["4-True", "16-True", "33-True", "16-False", "16-True-width1", "16-False-width3",
        "16-False-coincident", "16-False-diagonal", "16-True-diagonal", "16-False-apart", "16-True-overflow",
        "40-True-diverge", "40-True-diverge-inf", "40-True-diverge-nan",
        *(f"16-False-width{width}" for width in (1, 4, 5, 6, 7))])
def test_optimize_matches_public_operator_step(n, uniform, width, case):
    rng = np.random.default_rng(100 + n + uniform + 10 * (width - 2))
    dl = distances(rng.standard_normal((n, 2)))
    if uniform:
        w = Weights.uniform(n).w
    else:
        a = rng.uniform(0.1, 0.6, (n, n))
        w = (a + a.T) * (1.0 - np.eye(n))
    x0 = rng.standard_normal((n, width))
    eta = 3.0 if case.startswith("diverge") else 0.05  # 3 > 2/λ_max(C) = 2/40: the stress rises
    if case == "coincident":
        # rows 0 and 1 start together and weigh only on each other, so C - B(X) moves
        # neither: d_01 = 0 with w δ_01 > 0 at every step, where an unguarded 1/d gives NaN
        w[:2, 2:] = w[2:, :2] = 0.0
        x0[1] = x0[0]
    elif case == "diagonal":  # the most the checks allow; k_ii = 0 drops them from B(X)
        np.fill_diagonal(w, 1e-13)
        np.fill_diagonal(dl, 1e-13)
    elif case == "apart":  # d_01 underflows to 0 although the rows differ
        x0[1] = x0[0]
        x0[0, 0], x0[1, 0] = 0.0, 5e-324
    elif case == "overflow":  # the start's stress is inf, and the descent goes on from it
        x0 *= 1e153
    elif case == "diverge-inf":  # the first step's distances overflow: stress inf
        x0 *= 1e152
    elif case == "diverge-nan":  # stress inf at the start, and coordinates inf after one step: stress NaN
        x0 *= 1e306
    delta, w = Dissimilarities(dl), Weights(w)
    with np.errstate(over="ignore", invalid="ignore"):  # the reference's overflows are the cases'
        expected = reference_descent(delta, w, x0, eta)
    trace = mds_optimize(delta, w, x0, eta)
    if case.startswith("diverge"):  # a stress that rises or is not finite stops mds_optimize
        assert len(trace) == 2 and not trace[1][1] <= trace[0][1]
        assert len(expected) == (201 if case == "diverge-nan" else 2)  # the reference steps on past a NaN
    else:
        assert len(trace) == len(expected) > 2
    assert case != "overflow" or trace[0][1] == np.inf
    for (x, value), (x_ref, value_ref) in zip(trace, expected):
        assert np.array_equal(x, x_ref, equal_nan=True)
        assert np.array_equal(value, value_ref, equal_nan=True)
        assert case != "coincident" or (x[0] == x[1]).all()


@pytest.mark.parametrize("width", range(1, 10))
def test_distances_sum_columns_like_the_broadcast_form(width):
    pts = np.random.default_rng(60 + width).standard_normal((12, width))
    if width < 8:  # numpy's sum over the column axis is a left fold
        assert (distances(pts) == broadcast_distances(pts)).all()
    else:  # from 8 terms numpy sums pairwise
        np.testing.assert_allclose(distances(pts), broadcast_distances(pts), rtol=1e-12, atol=0)


@pytest.mark.parametrize("delta, w, x0", [
    (distances(SQUARE), Weights.uniform(3), SQUARE),
    (distances(TRIANGLE), Weights.uniform(4), SQUARE),
    (distances(SQUARE), Weights.uniform(4), TRIANGLE),
    (distances(SQUARE), Weights.uniform(4), SQUARE[:, 0]),
], ids=["weights-3", "delta-3", "config-3", "config-1d"])
def test_optimize_rejects_mismatched_sizes(delta, w, x0):
    with pytest.raises(ValueError, match="delta .* weights .* configuration .* disagree"):
        mds_optimize(delta, w, x0)


def test_column_demo_matches_classical_step():
    rng = np.random.default_rng(8)
    x = SQUARE + 0.2 * rng.standard_normal(SQUARE.shape)
    for pts in (x, x[:, ::-1]):  # the demo steps column 0; with two columns D(X) is the same
        res = lcu_column_demo(square_delta(), Weights.uniform(4), pts)
        assert res.max_abs_diff <= 1e-10
        assert np.allclose(res.quantum_point, res.classical_point, atol=1e-10)
        assert 0.0 < res.success_prob <= 1.0
        assert np.isclose(np.linalg.norm(res.quantum_point), 1.0, atol=1e-12)


def test_column_demo_matches_classical_step_at_32_points():
    # 528 real symmetric strings, Y pairs among them, on 16 qubits
    rng = np.random.default_rng(21)
    delta = Dissimilarities(distances(rng.standard_normal((32, 2))))
    res = lcu_column_demo(delta, Weights.uniform(32), rng.standard_normal((32, 2)))
    assert len(res.labels) == 528
    assert any("Y" in label for label in res.labels)
    assert res.max_abs_diff <= 1e-10


def test_column_demo_matches_classical_step_at_64_points():
    # 2080 strings on 12 select qubits (19 in all): matrix-free Pauli factors, rank-one prepare
    rng = np.random.default_rng(21)
    delta = Dissimilarities(distances(rng.standard_normal((64, 2))))
    res = lcu_column_demo(delta, Weights.uniform(64), rng.standard_normal((64, 2)))
    assert len(res.labels) == 2080
    assert RegisterLayout.for_problem(len(res.labels), 64).total_qubits == 19
    assert res.max_abs_diff <= 1e-10


@pytest.mark.parametrize("n", [16, 32, 64])
def test_column_demo_keeps_its_labels_and_weights(n):
    rng = np.random.default_rng(n)
    delta, w = Dissimilarities(distances(rng.standard_normal((n, 2)))), Weights.uniform(n)
    x = rng.standard_normal((n, 2))
    res = lcu_column_demo(delta, w, x)
    comps = pauli_decompose(d_matrix(delta, w, x))
    assert res.labels == sorted(comps) and np.array_equal(res.weights, [comps[lbl] for lbl in res.labels])
    assert res.max_abs_diff <= 1e-10


def test_column_demo_past_qubit_cap_fails_fast():
    # 128 points: up to 8256 Pauli strings (14 select qubits) on 7 work qubits,
    # 22 qubits in all, rejected before any string is built
    rng = np.random.default_rng(9)
    x = rng.standard_normal((128, 2))
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        lcu_column_demo(distances(rng.standard_normal((128, 2))), Weights.uniform(128), x)
    assert time.perf_counter() - start < 1.0


def test_column_demo_rejects_bad_inputs():
    with pytest.raises(ValueError, match="power-of-two point count"):
        lcu_column_demo(distances(TRIANGLE), Weights.uniform(3), TRIANGLE)
    with pytest.raises(ValueError, match="power-of-two point count of at least 2"):
        lcu_column_demo(np.zeros((1, 1)), np.zeros((1, 1)), [[1.0]])


def demo_instance(seed: int, n: int = 16):
    rng = np.random.default_rng(seed)
    return Dissimilarities(distances(rng.standard_normal((n, 2)))), Weights.uniform(n), rng.standard_normal((n, 2))


def test_column_demo_shares_one_read_only_table_per_string_set():
    mds._pauli_table.cache_clear()
    digits = [_pauli_digits(d_matrix(*demo_instance(seed)))[0] for seed in (1, 2)]
    assert digits[0].tobytes() == digits[1].tobytes()
    for seed in (1, 2):
        lcu_column_demo(*demo_instance(seed))
    assert mds._pauli_table.cache_info()[:2] == (1, 1)  # (hits, misses)
    table = mds._pauli_table(digits[0].shape, digits[0].tobytes())
    assert mds._pauli_table(digits[1].shape, digits[1].tobytes()) is table
    fresh = PauliStrings.from_digits(digits[0])
    assert table.labels == fresh.labels and np.array_equal(table.cols, fresh.cols)
    assert table.phase.tobytes() == fresh.phase.tobytes()
    for array in (table.cols, table.phase):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_pauli_table_memo_keys_on_shape_and_stays_bounded():
    mds._pauli_table.cache_clear()
    wide = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.intp)
    tall = wide.reshape(4, 2)
    assert wide.tobytes() == tall.tobytes()
    assert [len(mds._pauli_table(d.shape, d.tobytes())) for d in (wide, tall)] == [2, 4]
    bound = mds._pauli_table.cache_info().maxsize
    for q in range(1, bound + 4):
        digits = np.ones((1, q), dtype=np.intp)
        newest = mds._pauli_table(digits.shape, digits.tobytes())
        assert newest.labels == ("X" * q,)
        assert mds._pauli_table.cache_info().currsize <= bound
        assert mds._pauli_table(digits.shape, digits.tobytes()) is newest


def test_column_demo_gives_the_same_bytes_with_or_without_its_memo():
    delta, w, x = demo_instance(3)
    warm = lcu_column_demo(delta, w, x), lcu_column_demo(delta, w, x)
    cold = []
    for _ in range(2):
        mds._pauli_table.cache_clear()
        cold.append(lcu_column_demo(delta, w, x))
    for res in (*warm, *cold):
        assert res.quantum_point.tobytes() == cold[0].quantum_point.tobytes()
        assert res.success_prob == cold[0].success_prob and res.labels == cold[0].labels


EMPTY = np.zeros((0, 0))


@pytest.mark.parametrize("entry", [mds_optimize, stress, lcu_column_demo, b_matrix, d_matrix, descent_operator],
                         ids=lambda f: f.__name__)
def test_empty_pair_matrices_are_refused_before_any_reduction(entry):
    with pytest.raises(ValueError, match="^delta must be a non-empty square matrix$"):
        entry(EMPTY, EMPTY, np.zeros((0, 2)))


@pytest.mark.parametrize("call, message", [
    (lambda: c_matrix(EMPTY), "weights must be a non-empty square matrix"),
    (lambda: Weights(EMPTY), "weights must be a non-empty square matrix"),
    (lambda: Weights.uniform(0), "weights must be a non-empty square matrix"),
    (lambda: Dissimilarities(EMPTY), "delta must be a non-empty square matrix"),
    (lambda: distances(EMPTY), "configuration needs at least one column (embedding dimension)"),
    (lambda: Configuration(EMPTY), "configuration needs at least one column (embedding dimension)"),
], ids=["c_matrix", "Weights", "Weights.uniform", "Dissimilarities", "distances", "Configuration"])
def test_empty_inputs_fail_with_a_named_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


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


def _break(part, index, value):
    """The square's raw (delta, weights, configuration) with one entry of one part set."""
    arrays = [distances(SQUARE), Weights.uniform(4).w, SQUARE + 0.1]
    arrays[part][index] = value
    if part < 2:  # a pair matrix stays symmetric
        arrays[part][index[::-1]] = value
    return arrays


RAW_CASES = {  # the message each raw input must fail with, as its typed form does
    "delta-nan": ("delta entries must be finite", _break(0, (0, 1), np.nan)),
    "delta-inf": ("delta entries must be finite", _break(0, (0, 1), np.inf)),
    "delta-asymmetric": ("delta must be symmetric",
                         [distances(SQUARE) + np.triu(np.ones((4, 4)), 1), Weights.uniform(4).w, SQUARE]),
    "delta-diagonal": ("delta must have a zero diagonal", _break(0, (2, 2), 0.5)),
    "weights-nan": ("weights entries must be finite", _break(1, (1, 3), np.nan)),
    "weights-negative": ("weights entries must be nonnegative", _break(1, (0, 1), -5.0)),
    "config-inf": ("configuration entries must be finite", _break(2, (3, 1), -np.inf)),
    "config-nan": ("configuration entries must be finite", _break(2, (0, 0), np.nan)),
    "weights-8": ("disagree", [distances(SQUARE), Weights.uniform(8).w, SQUARE]),
    "config-3": ("disagree", [distances(SQUARE), Weights.uniform(4).w, TRIANGLE]),
}


@pytest.mark.parametrize("case", sorted(RAW_CASES))
@pytest.mark.parametrize("entry", [mds_optimize, stress, lcu_column_demo, b_matrix, d_matrix, descent_operator],
                         ids=lambda f: f.__name__)
def test_raw_arrays_fail_with_the_typed_message(entry, case):
    message, (delta, w, x) = RAW_CASES[case]
    with pytest.raises(ValueError) as typed:
        entry(Dissimilarities(delta), Weights(w), Configuration(x))
    with pytest.raises(ValueError, match=message) as raw:
        entry(delta, w, x)
    assert str(raw.value) == str(typed.value)


@pytest.mark.parametrize("bad", [np.nan, -1.0])
def test_c_matrix_checks_raw_weights(bad):
    w = Weights.uniform(4).w
    w[0, 2] = w[2, 0] = bad
    with pytest.raises(ValueError, match="weights entries must be"):
        c_matrix(w)
