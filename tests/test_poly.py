import gc
import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import aligned, kron_pauli, random_decomposition, random_point, random_symmetric_unitary
from qdescent import poly
from qdescent.errors import CapacityError, DegenerateStepError
from qdescent.experiment import benchmark_decomposition
from qdescent.mds import Configuration, Dissimilarities, Weights
from qdescent.poly import (
    PauliStrings,
    Point,
    TensorDecomposition,
    UnitaryFactor,
    apply_factors,
    classical_gradient,
    classical_iterate,
    coefficients,
    decomposition_from_dict,
    evaluate_objective,
    expand_coefficients,
    factor_from_dict,
    factor_matrices,
    pauli_decompose,
)
from qdescent.sim import QState

SQ3 = math.sqrt(3.0)


def benchmark():
    return TensorDecomposition(
        dim=2, order_p=2,
        terms=[["-I", "X"], ["X", "Z"]],
        prefactor=0.5,
    )


def contract(tensor, x):
    res = tensor
    for _ in range(tensor.ndim):
        res = np.tensordot(res, x, axes=([res.ndim - 1], [0]))
    return float(res)


def test_unitary_factor_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryFactor(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not unitary"):  # without an overflow warning
        UnitaryFactor(np.diag([1e308, 1.0]))
    for empty in (np.zeros((0, 0)), []):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            UnitaryFactor(empty)


def test_factor_dtype_is_real_exactly_when_every_entry_is_real():
    real = random_symmetric_unitary(np.random.default_rng(15), 4)
    for matrix in (real, real.astype(complex)):
        f = UnitaryFactor(matrix)
        assert f.matrix.dtype == np.float64 and f.matrix.flags.c_contiguous
        assert np.array_equal(f.matrix, real)
    assert UnitaryFactor(1j * real).matrix.dtype == np.complex128
    assert UnitaryFactor(np.diag([1.0, 1j])).matrix.dtype == np.complex128
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryFactor(1.5 * real)
    for label in ("YY", "XZ"):  # real matrix, complex phases
        assert apply_factors(PauliStrings([label]), np.ones(4)).dtype == np.complex128


def test_factor_pass_rows_are_real_for_real_dense_factors():
    rng = np.random.default_rng(16)
    for _ in range(10):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        b, ys = poly._factor_pass(d, x.coords)
        assert ys.dtype == np.float64 and b.dtype == np.float64
        cs = coefficients(d, x)
        assert cs.images is ys and cs.b is b  # the kept pass, read as it is
        assert (cs.c @ cs.images).dtype == np.float64
    _, ys = poly._factor_pass(benchmark(), np.array([0.6, 0.8]))
    assert ys.dtype == np.complex128
    # a unitary that is not Hermitian can give a real point a complex quadratic form, 0.36 + 0.64j here
    phase = TensorDecomposition(dim=2, order_p=1, terms=[[UnitaryFactor(np.diag([1.0, 1j]))]])
    with pytest.raises(ValueError, match="quadratic form has a non-negligible imaginary part"):
        poly._factor_pass(phase, np.array([0.6, 0.8]))


def test_real_dense_factor_round_trips_as_float64():
    f = UnitaryFactor(random_symmetric_unitary(np.random.default_rng(17), 4))
    back = factor_from_dict({"dense": [[v, 0.0] for v in f.matrix.ravel().tolist()]}, 4)
    assert back.matrix.dtype == np.float64
    assert back.matrix.tobytes() == f.matrix.tobytes()


def test_point_requires_unit_norm():
    with pytest.raises(ValueError):
        Point(np.array([1.0, 1.0]))
    p = Point.normalized([1.0, 1.0])
    assert np.isclose(np.linalg.norm(p.coords), 1.0)
    with pytest.raises(ValueError, match="cannot normalize a zero or non-finite vector"):
        Point.normalized([0.0, 0.0])
    with pytest.raises(ValueError, match="point must be a 1-D real vector"):
        Point(np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("coords, unit", [
    ([1e200, 1e200], [1 / math.sqrt(2), 1 / math.sqrt(2)]),  # the squares overflow
    ([3e-170, 4e-170], [0.6, 0.8]),  # the squares underflow
], ids=["huge", "tiny"])
def test_normalized_takes_vectors_whose_squares_leave_the_float_range(coords, unit):
    assert np.max(np.abs(Point.normalized(coords).coords - unit)) <= 1e-15


@pytest.mark.parametrize("make, attr, raw", [
    (Point, "coords", np.array([1.0, 0.0])),
    (UnitaryFactor, "matrix", np.array([[1.0, 0.0], [0.0, 1j]])),
    (lambda a: QState(1, a), "amps", np.array([1.0, 0.0], dtype=complex)),
    (Dissimilarities, "delta", np.array([[0.0, 1.0], [1.0, 0.0]])),
    (Weights, "w", np.array([[0.0, 1.0], [1.0, 0.0]])),
    (Configuration, "coords", np.array([[0.0, 1.0], [1.0, 0.0]])),
], ids=["Point", "UnitaryFactor", "QState", "Dissimilarities", "Weights", "Configuration"])
def test_checked_values_keep_their_own_copy(make, attr, raw):
    value = make(raw)
    before = getattr(value, attr).copy()
    raw[...] = 3.0  # after the checks, which a shared array would no longer meet
    assert np.array_equal(getattr(value, attr), before)


def test_point_coords_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        Point.normalized([0.6, 0.8]).coords[0] = 1.0


def test_decomposition_shape_validation():
    with pytest.raises(ValueError):
        TensorDecomposition(dim=2, order_p=2, terms=[["X"]], prefactor=1.0)
    with pytest.raises(ValueError, match="share the decomposition dimension"):
        TensorDecomposition(dim=4, order_p=1, terms=[["X"]], prefactor=1.0)
    with pytest.raises(ValueError, match="share the decomposition dimension"):
        TensorDecomposition(dim=4, order_p=1, terms=[["XZ"], [UnitaryFactor(np.eye(2))]], prefactor=1.0)
    for dim in (0, -1):  # refused before the width check, which would name the factors
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            TensorDecomposition(dim=dim, order_p=1, terms=[["X"]], prefactor=1.0)
    with pytest.raises(ValueError, match="need at least one term"):
        TensorDecomposition(dim=2, order_p=1, terms=[], prefactor=1.0)
    with pytest.raises(ValueError, match="order p must be >= 1"):
        TensorDecomposition(dim=2, order_p=0, terms=[[]], prefactor=1.0)


def test_expand_identity_single_factor():
    d = TensorDecomposition(dim=3, order_p=1, terms=[[UnitaryFactor(np.eye(3))]], prefactor=1.0)
    assert np.allclose(expand_coefficients(d), np.eye(3))


def test_expand_matches_benchmark_quartic():
    d = benchmark()
    tensor = expand_coefficients(d)
    assert tensor.shape == (2, 2, 2, 2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = random_point(rng, 2).coords
        assert abs(contract(tensor, x) - evaluate_objective(d, x)) <= 1e-12


def test_expand_matches_random_decomposition():
    rng = np.random.default_rng(4)
    d = random_decomposition(rng, dims=(2,), p_max=2, k_max=2)
    tensor = expand_coefficients(d)
    for _ in range(20):
        x = random_point(rng, 2).coords
        assert abs(contract(tensor, x) - evaluate_objective(d, x)) <= 1e-12


def test_expand_capacity_guard():
    f = UnitaryFactor(np.eye(4))
    d = TensorDecomposition(dim=4, order_p=6, terms=[[f] * 6], prefactor=1.0)
    with pytest.raises(CapacityError):
        expand_coefficients(d)


def test_objective_benchmark_values():
    d = benchmark()
    assert evaluate_objective(d, Point(np.array([1.0, 0.0]))) == 0.0
    assert np.isclose(evaluate_objective(d, Point.normalized([1.0, 1.0])), -0.5, atol=1e-12)
    for theta in np.linspace(0.0, 2.0 * np.pi, 100):
        x = np.array([np.cos(theta), np.sin(theta)])
        expected = -2.0 * np.sin(theta) ** 3 * np.cos(theta)
        assert abs(evaluate_objective(d, x) - expected) <= 1e-12
    with pytest.raises(ValueError, match=re.escape("point dimension (3,) does not match decomposition dim 2")):
        evaluate_objective(d, np.array([1.0, 0.0, 0.0]))


def test_coefficients_at_diagonal_point():
    cs = coefficients(benchmark(), Point.normalized([1.0, 1.0]))
    assert np.allclose(cs.b, [[-1.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(cs.b.prod(axis=1), [-1.0, 0.0], atol=1e-12)
    assert np.allclose(cs.c, [0.5, -0.5, 0.0, 0.5], atol=1e-12)
    assert np.isclose(1.0 + np.abs(cs.c).sum(), 2.5, atol=1e-12)


def test_coefficients_at_optimum():
    # b = ((-1, sqrt3/2), (sqrt3/2, -1/2)) with prefactor 1/2
    cs = coefficients(benchmark(), Point(np.array([0.5, SQ3 / 2])))
    assert np.allclose(cs.c, [SQ3 / 4, -0.5, -0.25, SQ3 / 4], atol=1e-12)
    assert np.isclose(1.0 + np.abs(cs.c).sum(), 1.75 + SQ3 / 2, atol=1e-12)


def test_coefficients_single_factor_empty_product():
    d = TensorDecomposition(dim=2, order_p=1, terms=[["Z"]], prefactor=0.7)
    cs = coefficients(d, Point(np.array([1.0, 0.0])))
    assert np.allclose(cs.c, [0.7])
    assert np.isclose(1.0 + np.abs(cs.c).sum(), 1.7)


def test_coefficient_product_law():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        cs = coefficients(d, x)
        for a in range(d.num_terms):
            for j in range(d.order_p):
                b = cs.b[a, j]
                if abs(b) > 1e-12:
                    assert abs(cs.c[a * d.order_p + j] * b - d.prefactor * cs.b[a].prod()) <= 1e-10


def test_build_d_optimum_is_eigenvector():
    x = Point(np.array([0.5, SQ3 / 2]))
    dx = classical_gradient(benchmark(), x)
    lam = x.coords @ dx
    assert np.isclose(lam, -3.0 * SQ3 / 4, atol=1e-9)
    assert np.allclose(dx, lam * x.coords, atol=1e-9)


def test_classical_gradient_values():
    g = classical_gradient(benchmark(), Point.normalized([1.0, 1.0]))
    assert np.allclose(g, [-0.35355339, -1.06066017], atol=1e-7)


def test_classical_gradient_identity_returns_x():
    d = TensorDecomposition(dim=2, order_p=1, terms=[[UnitaryFactor(np.eye(2))]], prefactor=1.0)
    rng = np.random.default_rng(6)
    x = random_point(rng, 2)
    assert np.allclose(classical_gradient(d, x), x.coords, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    checked = 0
    while checked < 20:
        d = random_decomposition(rng, symmetric=True)
        x = random_point(rng, d.dim)
        target = 2.0 * classical_gradient(d, x)
        if np.linalg.norm(target) < 1e-2:
            continue
        fd = np.empty(d.dim)
        for i in range(d.dim):
            e = np.zeros(d.dim)
            e[i] = h
            fd[i] = (evaluate_objective(d, x.coords + e) - evaluate_objective(d, x.coords - e)) / (2 * h)
        assert np.all(np.abs(fd - target) <= 1e-5 * np.maximum(1.0, np.abs(target)))
        checked += 1


def test_euler_homogeneity():
    rng = np.random.default_rng(9)
    for _ in range(30):
        d = random_decomposition(rng, symmetric=True)
        x = random_point(rng, d.dim)
        lhs = x.coords @ (2.0 * classical_gradient(d, x))
        assert abs(lhs - 2.0 * d.order_p * evaluate_objective(d, x)) <= 1e-9


def test_classical_iterate_from_diagonal_point():
    nxt, norm = classical_iterate(benchmark(), Point.normalized([1.0, 1.0]), 1.0)
    assert np.allclose(nxt.coords, [0.5144957554275265, 0.8574929257125441], atol=1e-12)
    assert np.isclose(norm, math.sqrt(4.25), atol=1e-12)


def test_classical_iterate_fixed_point():
    x = Point(np.array([0.5, SQ3 / 2]))
    nxt, _ = classical_iterate(benchmark(), x, 1.0)
    assert np.allclose(aligned(nxt.coords, x.coords), x.coords, atol=1e-9)


def test_classical_iterate_zero_gradient_returns_x():
    x = Point(np.array([1.0, 0.0]))
    nxt, norm = classical_iterate(benchmark(), x, 1.0)
    assert np.allclose(nxt.coords, x.coords)
    assert np.isclose(norm, 1.0)


def test_classical_iterate_degenerate_step():
    d = TensorDecomposition(dim=2, order_p=1, terms=[[UnitaryFactor(np.eye(2))]], prefactor=1.0)
    with pytest.raises(DegenerateStepError):
        classical_iterate(d, Point(np.array([0.0, 1.0])), 1.0)


def test_fixed_point_law_on_random_stationary_points():
    # eigenvectors of a single symmetric factor are stationary points
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = random_symmetric_unitary(rng, 4)
        d = TensorDecomposition(dim=4, order_p=1, terms=[[UnitaryFactor(u)]], prefactor=1.0)
        vals, vecs = np.linalg.eigh(u)
        x = Point.normalized(vecs[:, 0])
        g = classical_gradient(d, x)
        assert np.linalg.norm(g - (x.coords @ g) * x.coords) <= 1e-10
        if abs(x.coords @ classical_gradient(d, x) - 1.0) > 1e-6:
            nxt, _ = classical_iterate(d, x, 1.0)
            assert np.allclose(aligned(nxt.coords, x.coords), x.coords, atol=1e-9)


def test_json_round_trip_paulis_and_dense():
    rng = np.random.default_rng(12)
    dense = UnitaryFactor(random_symmetric_unitary(rng, 2))
    d = TensorDecomposition(
        dim=2, order_p=2,
        terms=[["-I", dense], ["X", "Z"]],
        prefactor=0.5,
    )
    back = decomposition_from_dict({
        "dim": 2, "p": 2, "prefactor": 0.5,
        "terms": [[{"pauli": "-I"}, {"dense": [[v, 0.0] for v in dense.matrix.ravel().tolist()]}],
                  [{"pauli": "X"}, {"pauli": "Z"}]]})
    assert back.dim == d.dim and back.order_p == d.order_p and back.prefactor == d.prefactor
    assert back.terms[1] == ("X", "Z") and back.terms[0][0] == "-I"
    assert np.allclose(factor_matrices(back.factors, 2), factor_matrices(d.factors, 2), rtol=0, atol=1e-15)


def test_json_malformed_inputs():
    with pytest.raises(ValueError):
        decomposition_from_dict({"dim": 2, "p": 1})
    with pytest.raises(ValueError):
        decomposition_from_dict({"dim": 2, "p": 2, "terms": [[{"pauli": "X"}]]})
    with pytest.raises(ValueError):
        decomposition_from_dict({"dim": 2, "p": 1, "terms": [[{"dense": [[1, 0]]}]]})
    with pytest.raises(ValueError, match="decomposition needs a non-empty 'terms' list"):
        decomposition_from_dict({"dim": 2, "p": 1, "terms": []})


def test_pauli_decompose_round_trip():
    rng = np.random.default_rng(13)
    m = random_symmetric_unitary(rng, 4) + random_symmetric_unitary(rng, 4)
    m = (m + m.T) / 2
    comps = pauli_decompose(m)
    rebuilt = np.tensordot(list(comps.values()), factor_matrices(PauliStrings(list(comps)), 4), axes=1)
    assert np.allclose(rebuilt.real, m, atol=1e-10)


def test_pauli_string_matrix_equals_kron_product():
    labels = ["".join(c) for q in range(1, 5) for c in itertools.product("IXYZ", repeat=q)]
    assert len(labels) == 340
    v = np.random.default_rng(5).standard_normal(16) + 1j * np.random.default_rng(6).standard_normal(16)
    for label in labels + ["-" + lbl for lbl in labels]:
        ref = kron_pauli(label)
        string = PauliStrings([label])
        cols = np.argmax(ref != 0, axis=1)
        assert np.array_equal(string.cols, [cols]), label
        assert np.array_equal(string.phase, [ref[np.arange(len(ref)), cols]]), label
        assert np.array_equal(factor_matrices(string, len(ref)), [ref]), label
        applied = apply_factors(string, v[: len(ref)])
        assert np.allclose(applied, [ref @ v[: len(ref)]], rtol=0, atol=1e-15), label
    for bad in ("XA", "", "-", "--X", ["X"], None):
        with pytest.raises(ValueError, match="unknown Pauli string"):
            PauliStrings([bad])
        with pytest.raises(ValueError, match="unknown Pauli string"):
            PauliStrings(["XZ", bad])


@pytest.mark.parametrize("bad", ["XA", "--X", "X-", "xz", "-YQ"])
def test_unknown_pauli_label_is_refused_by_the_decomposition(bad):
    with pytest.raises(ValueError, match="unknown Pauli string"):
        TensorDecomposition(dim=4, order_p=2, terms=[["XZ", bad]])
    with pytest.raises(ValueError, match="unknown Pauli string"):
        TensorDecomposition(dim=4, order_p=2, terms=[[UnitaryFactor(np.eye(4)), bad]])
    with pytest.raises(ValueError, match="unknown Pauli string"):
        decomposition_from_dict({"dim": 4, "p": 2, "terms": [[{"pauli": "XZ"}, {"pauli": bad}]]})


def test_pauli_label_of_the_wrong_width_is_refused_before_its_tables_are_built():
    with pytest.raises(ValueError, match="share the decomposition dimension"):
        TensorDecomposition(dim=4, order_p=1, terms=[["XZ"], ["X"]])
    with pytest.raises(ValueError, match="Pauli factor 'X' is not a string acting on dimension 4"):
        decomposition_from_dict({"dim": 4, "p": 1, "terms": [[{"pauli": "XZ"}], [{"pauli": "X"}]]})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="share the decomposition dimension"):
            TensorDecomposition(dim=2, order_p=1, terms=[["X"], ["Z" * 20]])
        assert tracemalloc.get_traced_memory()[1] < 2**20  # a 20-qubit table is 24 MiB
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("labels", [[], ["X", "XZ"], ["-XZ", "Z"]])
def test_pauli_table_needs_strings_on_one_width(labels):
    with pytest.raises(ValueError, match="same number of qubits"):
        PauliStrings(labels)


def test_pauli_string_past_the_qubit_cap_is_refused_before_allocating():
    for label in ("I" * 21, "-" + "X" * 21, "Z" * 30):
        with pytest.raises(CapacityError, match=f"needs {len(label.lstrip('-'))} qubits"):
            PauliStrings([label])
        with pytest.raises(CapacityError):
            PauliStrings([label, label])
        with pytest.raises(CapacityError):
            TensorDecomposition(dim=2 ** len(label.lstrip("-")), order_p=1, terms=[[label]])
    with pytest.raises(CapacityError):
        decomposition_from_dict({"dim": 2**21, "p": 1, "terms": [[{"pauli": "X" * 21}]]})


@pytest.mark.parametrize("prefactor", [math.nan, math.inf, -math.inf, "nan", 1e309])
def test_decomposition_rejects_non_finite_prefactor(prefactor):
    with pytest.raises(ValueError, match="prefactor must be finite"):
        TensorDecomposition(dim=2, order_p=1, terms=[["X"]], prefactor=prefactor)
    with pytest.raises(ValueError, match="prefactor must be finite"):
        decomposition_from_dict({"dim": 2, "p": 1, "prefactor": float(prefactor), "terms": [[{"pauli": "X"}]]})


def test_json_prefactor_past_the_float_range_is_malformed():
    with pytest.raises(ValueError, match="malformed decomposition JSON: int too large"):
        decomposition_from_dict({"dim": 2, "p": 1, "prefactor": 10**400, "terms": [[{"pauli": "X"}]]})


@pytest.mark.parametrize("label", [["X"], 3, {"X": 1}, None, "XX", "-XZ", "X" * 40])
def test_json_rejects_pauli_label_that_is_not_a_string_of_the_right_width(label):
    with pytest.raises(ValueError, match="Pauli factor"):
        decomposition_from_dict({"dim": 2, "p": 1, "terms": [[{"pauli": label}]]})


def test_json_round_trip_multi_qubit_paulis():
    d = decomposition_from_dict({"dim": 8, "p": 2, "prefactor": -0.25,
                                 "terms": [[{"pauli": "XYY"}, {"pauli": "-ZIX"}]]})
    assert d.terms == (("XYY", "-ZIX"),) and d.factors.labels == ("XYY", "-ZIX")
    assert d == TensorDecomposition(dim=8, order_p=2, terms=[["XYY", "-ZIX"]], prefactor=-0.25)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_pauli_decompose_matches_trace_definition(q):
    rng = np.random.default_rng(40 + q)
    a = rng.standard_normal((2**q, 2**q))
    m = a + a.T
    expected = {}
    for combo in itertools.product("IXYZ", repeat=q):
        label = "".join(combo)
        weight = np.trace(kron_pauli(label) @ m).real / 2**q
        if abs(weight) > 1e-12:
            expected[label] = weight
    comps = pauli_decompose(m)
    assert list(comps) == list(expected)
    assert all(abs(comps[label] - expected[label]) <= 1e-12 for label in expected)


def test_pauli_decompose_rejects_complex_weights_and_bad_shapes():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="complex Pauli weight"):
        pauli_decompose(rng.standard_normal((4, 4)))
    with pytest.raises(ValueError, match="power-of-two"):
        pauli_decompose(np.eye(3))


@pytest.mark.parametrize("matrix, message", [
    (np.full((4, 4), np.nan), "matrix entries must be finite"),
    (np.array([[0.0, np.inf], [np.inf, 0.0]]), "matrix entries must be finite"),
    (np.array([[-np.inf, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    (np.zeros((0, 0)), r"non-empty .* not \(0, 0\)"),
], ids=["all-nan", "inf", "minus-inf", "empty"])
def test_pauli_decompose_refuses_non_finite_and_empty_matrices(matrix, message):
    # an all-NaN or infinite matrix once read as the zero matrix ({}), and an empty one failed in log2
    with pytest.raises(ValueError, match=message):
        pauli_decompose(matrix)


@pytest.mark.parametrize("make", [
    lambda: Point(np.array([np.nan, np.nan])),
    lambda: Point(np.array([np.nan, 1.0])),
    lambda: Point(np.array([np.inf, 0.0])),
    lambda: Point.normalized([np.inf, 1.0]),
    lambda: Point.normalized([np.nan, 1.0]),
    lambda: Point.normalized([np.inf, np.inf]),  # max|c| does not rescale these
    lambda: Point.normalized([np.nan, 1e200]),
])
def test_point_rejects_non_finite_coordinates(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_classical_iterate_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="finite"):
        classical_iterate(benchmark(), Point.normalized([1.0, 1.0]), eta)


def test_a_decomposition_parses_its_labels_once(monkeypatch):
    parses = []
    parse = poly._pauli_tables
    monkeypatch.setattr(poly, "_pauli_tables", lambda labels: parses.append(labels) or parse(labels))
    assert isinstance(benchmark_decomposition().factors, PauliStrings)
    assert parses == [("-I", "X", "X", "Z")]
    problem = json.loads((Path(__file__).parent / "data" / "golden" / "problem.json").read_text())
    assert isinstance(decomposition_from_dict(problem).factors, PauliStrings)
    assert len(parses) == 2


def test_mixed_decomposition_holds_each_label_as_the_dense_matrix_of_its_row():
    dense = UnitaryFactor(random_symmetric_unitary(np.random.default_rng(18), 4))
    d = TensorDecomposition(dim=4, order_p=2, terms=[["YY", dense], ["-XZ", "ZX"]], prefactor=-0.5)
    assert d.terms == (("YY", dense), ("-XZ", "ZX"))  # kept as given
    assert all(isinstance(f, UnitaryFactor) for f in d.factors) and d.factors[1] is dense
    for m, label in ((0, "YY"), (2, "-XZ"), (3, "ZX")):
        assert np.array_equal(d.factors[m].matrix, kron_pauli(label).real), label
        assert d.factors[m].matrix.dtype == np.float64
    x = random_point(np.random.default_rng(19), 4)
    def quad(f):
        return x.coords @ (kron_pauli(f).real if isinstance(f, str) else f.matrix) @ x.coords

    expected = d.prefactor * sum(quad(f1) * quad(f2) for f1, f2 in d.terms)
    assert abs(evaluate_objective(d, x) - expected) <= 1e-12


def test_a_dropped_table_leaves_no_numpy_memory_behind():
    tracemalloc.start()
    try:
        PauliStrings(["X"])
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        table = PauliStrings(["I" * 16])
        assert tracemalloc.get_traced_memory()[0] - base >= table.cols.nbytes + table.phase.nbytes
        del table
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - base < 2**16  # less than one 16-qubit row
    finally:
        tracemalloc.stop()


def test_a_dropped_decomposition_frees_its_kept_factor_pass():
    x = Point(np.full(2**14, 2.0**-7))
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        d = TensorDecomposition(dim=2**14, order_p=1, terms=[["X" * 14], ["Z" * 14]])
        table = tracemalloc.get_traced_memory()[0] - base
        evaluate_objective(d, x)
        assert tracemalloc.get_traced_memory()[0] - base - table >= 2 * 2**14 * 16  # two complex rows
        del d
        gc.collect()
        assert tracemalloc.get_traced_memory()[0] - base < 2**16  # less than one 14-qubit row
    finally:
        tracemalloc.stop()
