import math

import numpy as np
import pytest

from conftest import aligned, random_decomposition, random_point, random_symmetric_unitary
from qdescent.errors import CapacityError, DegenerateStepError
from qdescent.poly import (
    Point,
    TensorDecomposition,
    UnitaryFactor,
    build_d,
    classical_gradient,
    classical_iterate,
    coefficients,
    decomposition_from_dict,
    decomposition_to_dict,
    evaluate_objective,
    expand_coefficients,
    is_stationary,
    pauli_decompose,
    pauli_label_matrix,
    rayleigh,
)

SQ3 = math.sqrt(3.0)


def benchmark():
    return TensorDecomposition(
        dim=2, order_p=2,
        terms=[[UnitaryFactor.from_pauli("-I"), UnitaryFactor.from_pauli("X")],
               [UnitaryFactor.from_pauli("X"), UnitaryFactor.from_pauli("Z")]],
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


def test_unitary_factor_symmetric_flag():
    assert UnitaryFactor.from_pauli("X").symmetric
    assert UnitaryFactor.from_pauli("-I").symmetric
    assert not UnitaryFactor.from_pauli("Y").symmetric


def test_point_requires_unit_norm():
    with pytest.raises(ValueError):
        Point(np.array([1.0, 1.0]))
    p = Point.normalized([1.0, 1.0])
    assert np.isclose(np.linalg.norm(p.coords), 1.0)


def test_decomposition_shape_validation():
    x = UnitaryFactor.from_pauli("X")
    with pytest.raises(ValueError):
        TensorDecomposition(dim=2, order_p=2, terms=[[x]], prefactor=1.0)
    with pytest.raises(ValueError):
        TensorDecomposition(dim=4, order_p=1, terms=[[x]], prefactor=1.0)


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


def test_rayleigh_values():
    assert rayleigh(UnitaryFactor.from_pauli("Z"), Point(np.array([1.0, 0.0]))) == 1.0
    assert np.isclose(rayleigh(UnitaryFactor.from_pauli("X"), Point.normalized([1, 1])), 1.0)
    rng = np.random.default_rng(0)
    assert np.isclose(rayleigh(UnitaryFactor.from_pauli("-I"), random_point(rng, 2)), -1.0)


def test_coefficients_at_diagonal_point():
    cs = coefficients(benchmark(), Point.normalized([1.0, 1.0]))
    assert np.allclose(cs.b, [[-1.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(cs.big_m, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(cs.c, [0.5, -0.5, 0.0, 0.5], atol=1e-12)
    assert np.isclose(cs.total_weight, 2.5, atol=1e-12)


def test_coefficients_at_optimum():
    # b = ((-1, sqrt3/2), (sqrt3/2, -1/2)) with prefactor 1/2
    cs = coefficients(benchmark(), Point(np.array([0.5, SQ3 / 2])))
    assert np.allclose(cs.c, [SQ3 / 4, -0.5, -0.25, SQ3 / 4], atol=1e-12)
    assert np.isclose(cs.total_weight, 1.75 + SQ3 / 2, atol=1e-12)


def test_coefficients_single_factor_empty_product():
    d = TensorDecomposition(dim=2, order_p=1, terms=[[UnitaryFactor.from_pauli("Z")]], prefactor=0.7)
    cs = coefficients(d, Point(np.array([1.0, 0.0])))
    assert np.allclose(cs.c, [0.7])
    assert np.isclose(cs.total_weight, 1.7)


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
                    assert abs(cs.c[a * d.order_p + j] * b - d.prefactor * cs.big_m[a]) <= 1e-10


def test_build_d_at_diagonal_point():
    dmat = build_d(benchmark(), Point.normalized([1.0, 1.0]))
    expected = np.array([[0.0, -0.5], [-0.5, -1.0]])
    assert np.allclose(dmat, expected, atol=1e-12)


def test_build_d_single_term_is_the_factor():
    u = UnitaryFactor.from_pauli("X")
    d = TensorDecomposition(dim=2, order_p=1, terms=[[u]], prefactor=1.0)
    rng = np.random.default_rng(5)
    assert np.allclose(build_d(d, random_point(rng, 2)), u.matrix)


def test_build_d_optimum_is_eigenvector():
    x = Point(np.array([0.5, SQ3 / 2]))
    dmat = build_d(benchmark(), x).real
    dx = dmat @ x.coords
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


def test_gradient_equals_d_applied_to_x():
    rng = np.random.default_rng(8)
    for _ in range(20):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        assert np.allclose(classical_gradient(d, x),
                           (build_d(d, x) @ x.coords).real, atol=1e-14)


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
        assert is_stationary(d, x, 1e-10)
        if abs(x.coords @ classical_gradient(d, x) - 1.0) > 1e-6:
            nxt, _ = classical_iterate(d, x, 1.0)
            assert np.allclose(aligned(nxt.coords, x.coords), x.coords, atol=1e-9)


def test_is_stationary_benchmark_points():
    d = benchmark()
    assert is_stationary(d, Point(np.array([0.5, SQ3 / 2])), 1e-6)
    assert is_stationary(d, Point(np.array([1.0, 0.0])), 1e-6)
    assert not is_stationary(d, Point.normalized([1.0, 1.0]), 1e-3)


def test_json_round_trip_paulis_and_dense():
    rng = np.random.default_rng(12)
    dense = UnitaryFactor(random_symmetric_unitary(rng, 2))
    d = TensorDecomposition(
        dim=2, order_p=2,
        terms=[[UnitaryFactor.from_pauli("-I"), dense],
               [UnitaryFactor.from_pauli("X"), UnitaryFactor.from_pauli("Z")]],
        prefactor=0.5,
    )
    back = decomposition_from_dict(decomposition_to_dict(d))
    assert back.dim == d.dim and back.order_p == d.order_p and back.prefactor == d.prefactor
    for t1, t2 in zip(back.terms, d.terms):
        for f1, f2 in zip(t1, t2):
            assert np.allclose(f1.matrix, f2.matrix, atol=1e-15)


def test_json_malformed_inputs():
    with pytest.raises(ValueError):
        decomposition_from_dict({"dim": 2, "p": 1})
    with pytest.raises(ValueError):
        decomposition_from_dict({"dim": 2, "p": 2, "terms": [[{"pauli": "X"}]]})
    with pytest.raises(ValueError):
        decomposition_from_dict({"dim": 2, "p": 1, "terms": [[{"dense": [[1, 0]]}]]})


def test_pauli_decompose_round_trip():
    rng = np.random.default_rng(13)
    m = random_symmetric_unitary(rng, 4) + random_symmetric_unitary(rng, 4)
    m = (m + m.T) / 2
    comps = pauli_decompose(m)
    rebuilt = sum(w * pauli_label_matrix(lbl) for lbl, w in comps.items())
    assert np.allclose(rebuilt.real, m, atol=1e-10)


@pytest.mark.parametrize("make", [
    lambda: Point(np.array([np.nan, np.nan])),
    lambda: Point(np.array([np.nan, 1.0])),
    lambda: Point(np.array([np.inf, 0.0])),
    lambda: Point.normalized([np.inf, 1.0]),
    lambda: Point.normalized([np.nan, 1.0]),
])
def test_point_rejects_non_finite_coordinates(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_classical_iterate_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="finite"):
        classical_iterate(benchmark(), Point.normalized([1.0, 1.0]), eta)
