import math

import numpy as np
import pytest

from conftest import aligned, random_decomposition, random_point, random_symmetric_unitary
from qdescent import sim
from qdescent.errors import DegenerateStepError, PostselectionError
from qdescent.lcu import (
    RegisterLayout,
    build_prepare,
    complete_from_first_column,
    estimate_b,
    optimize,
    run_iteration,
    run_lcu_step,
)
from qdescent.poly import (
    Point,
    TensorDecomposition,
    UnitaryFactor,
    classical_iterate,
    coefficients,
    evaluate_objective,
)

SQ3 = math.sqrt(3.0)


def benchmark():
    return TensorDecomposition(
        dim=2, order_p=2,
        terms=[[UnitaryFactor.from_pauli("-I"), UnitaryFactor.from_pauli("X")],
               [UnitaryFactor.from_pauli("X"), UnitaryFactor.from_pauli("Z")]],
        prefactor=0.5,
    )


def identity_problem():
    return TensorDecomposition(
        dim=2, order_p=1, terms=[[UnitaryFactor.from_pauli("I")]], prefactor=1.0)


def _pad(a, dim):
    out = np.eye(dim, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    return out


def _bits(m, width):
    return [(m >> (width - 1 - j)) & 1 for j in range(width)]


def reference_lcu_step(factors, c, x_vec, eta):
    """The LCU step wired gate by gate on the generic simulator.

    Returns (post-selected working vector, success probability, raw state).
    """
    n = x_vec.shape[0]
    layout = RegisterLayout.for_problem(len(factors), n)
    dim_work = 2**layout.n_work
    prep = build_prepare(c, eta)
    q = layout.total_qubits
    full = np.zeros(2**q, dtype=complex)
    full[:n] = x_vec
    state = sim.QState(q, full)
    select = list(range(1, 1 + layout.t1))
    work = list(range(1 + layout.t1, q))
    state = sim.apply_unitary(state, prep.v0, [0])
    if layout.t1 > 0:
        state = sim.apply_controlled(state, prep.v, [0], [1], select)
    for m, f in enumerate(factors):
        u = prep.signs[m] * _pad(f.matrix, dim_work)
        state = sim.apply_controlled(state, u, [0] + select, [1] + _bits(m, layout.t1), work)
    if layout.t1 > 0:
        state = sim.apply_controlled(state, prep.v.T, [0], [1], select)
    state = sim.apply_unitary(state, prep.v0.T, [0])
    kept, prob = sim.postselect(state, [0] + select, [0] * (1 + layout.t1))
    vec = kept.amps.real[:n]
    return vec / np.linalg.norm(vec), prob, state


def reference_estimate_b(decomp, x):
    """b_j^a from Hadamards on select, controlled factors, and one post-selection per branch."""
    layout = RegisterLayout.for_problem(decomp.flat_count, decomp.dim)
    dim_work = 2**layout.n_work
    q = layout.t1 + layout.n_work
    xp = np.zeros(dim_work, dtype=complex)
    xp[: decomp.dim] = x.coords
    full = np.zeros(2**q, dtype=complex)
    full[:dim_work] = xp
    state = sim.QState(q, full)
    select = list(range(layout.t1))
    work = list(range(layout.t1, q))
    for s in select:
        state = sim.apply_unitary(state, sim.HADAMARD, [s])
    factors = decomp.flattened_factors()
    for m, f in enumerate(factors):
        state = sim.apply_controlled(state, _pad(f.matrix, dim_work), select, _bits(m, layout.t1), work)
    out = [(xp.conj() @ sim.postselect(state, select, _bits(m, layout.t1))[0].amps).real
           for m in range(len(factors))]
    return np.reshape(out, (decomp.num_terms, decomp.order_p))


def reference_instances():
    """Random decompositions plus one padded case (N = 3, K*p = 3), each with a start point."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(40):
        d = random_decomposition(rng)
        cases.append((d, random_point(rng, d.dim)))
    padded = TensorDecomposition(
        dim=3, order_p=1, terms=[[UnitaryFactor(random_symmetric_unitary(rng, 3))] for _ in range(3)],
        prefactor=0.8)
    cases.append((padded, random_point(rng, 3)))
    return cases


@pytest.mark.parametrize("decomp, x", reference_instances())
def test_kernel_matches_gate_level_reference(decomp, x):
    c = coefficients(decomp, x).c
    factors = decomp.flattened_factors()
    try:
        vec, prob, raw, _ = run_lcu_step(factors, c, x.coords, eta=0.7)
    except DegenerateStepError:
        pytest.skip("degenerate step")
    ref_vec, ref_prob, ref_raw = reference_lcu_step(factors, c, x.coords, eta=0.7)
    dim_work = 2**RegisterLayout.for_problem(len(factors), decomp.dim).n_work
    assert abs(prob - ref_prob) <= 1e-12
    assert np.max(np.abs(vec - ref_vec)) <= 1e-12
    assert np.max(np.abs(raw.amps[:dim_work] - ref_raw.amps[:dim_work])) <= 1e-12
    assert np.max(np.abs(estimate_b(decomp, x) - reference_estimate_b(decomp, x))) <= 1e-12


@pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf])
def test_build_prepare_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="finite"):
        build_prepare(np.array([0.5, -0.5]), eta)


@pytest.mark.parametrize("kwargs", [
    {"eta": math.nan}, {"eta": math.inf}, {"threshold": math.nan}, {"threshold": math.inf},
])
def test_optimize_rejects_non_finite_step_and_threshold(kwargs):
    with pytest.raises(ValueError, match="finite"):
        optimize(benchmark(), Point.normalized([0.86, 0.50]), max_iters=20, **kwargs)


def test_register_layout():
    assert RegisterLayout.for_problem(4, 2) == RegisterLayout(t1=2, n_work=1)
    assert RegisterLayout.for_problem(1, 2) == RegisterLayout(t1=0, n_work=1)
    assert RegisterLayout.for_problem(3, 4) == RegisterLayout(t1=2, n_work=2)
    assert RegisterLayout.for_problem(4, 2).total_qubits == 4


def test_complete_from_first_column_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        col = rng.standard_normal(8)
        col /= np.linalg.norm(col)
        u = complete_from_first_column(col)
        assert np.allclose(u @ u.T, np.eye(8), atol=1e-12)
        assert np.array_equal(u[:, 0], col / np.linalg.norm(col))


def test_build_prepare_benchmark_values():
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    prep = build_prepare(coefficients(d, x).c, eta=1.0)
    assert np.isclose(prep.beta, 2.5)
    assert np.allclose(prep.v0[:, 0], [1 / np.sqrt(2.5), np.sqrt(1.5 / 2.5)])
    root = np.sqrt(1.0 / 3.0)
    # c_2 is a rounding-level 1e-17, so its slot holds sqrt(eta*|c_2|/total) ~ 3e-9
    assert np.allclose(prep.v[:, 0], [root, root, 0.0, root], atol=1e-8)
    assert prep.signs[0] == -1.0 and prep.signs[3] == -1.0
    assert prep.signs[1] == 1.0
    # rows/cols orthonormal
    assert np.allclose(prep.v @ prep.v.T, np.eye(4), atol=1e-12)
    assert np.allclose(prep.v0 @ prep.v0.T, np.eye(2), atol=1e-12)


def test_prepare_state_amplitudes():
    # after v0 on the flag and flag-controlled v on the select register, the
    # amplitude of |1>|m> must be sqrt(eta*|c_m|/beta) and of |0>|0> 1/sqrt(beta)
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    eta = 0.7
    prep = build_prepare(coefficients(d, x).c, eta)
    state = sim.QState.zero(3)
    state = sim.apply_unitary(state, prep.v0, [0])
    state = sim.apply_controlled(state, prep.v, [0], [1], [1, 2])
    c = coefficients(d, x).c
    assert np.isclose(abs(state.amps[0]), 1 / np.sqrt(prep.beta), atol=1e-12)
    for m in range(4):
        assert np.isclose(abs(state.amps[4 + m]),
                          np.sqrt(eta * abs(c[m]) / prep.beta), atol=1e-12)


def test_zero_weights_give_identity_step():
    factors = [UnitaryFactor.from_pauli("I"), UnitaryFactor.from_pauli("X")]
    x = np.array([0.6, 0.8])
    vec, prob, _, prep = run_lcu_step(factors, np.zeros(2), x, eta=1.0)
    assert np.isclose(prep.beta, 1.0)
    assert np.allclose(prep.v, np.eye(2))
    assert np.allclose(vec, x, atol=1e-14)
    assert np.isclose(prob, 1.0)


def test_single_factor_layout():
    prep = build_prepare(coefficients(identity_problem(), Point.normalized([1.0, 0.0])).c, eta=0.5)
    assert prep.v.shape == (1, 1)
    assert np.isclose(prep.v[0, 0], 1.0)


def test_iteration_matches_classical_step():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        try:
            expect, _ = classical_iterate(d, x, eta=1.0)
        except DegenerateStepError:
            continue
        out = run_iteration(d, x, eta=1.0)
        assert np.allclose(out.next_point.coords, expect.coords, atol=1e-10)
        checked += 1


def test_success_probability_law():
    rng = np.random.default_rng(12)
    for _ in range(50):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        try:
            out = run_iteration(d, x, eta=1.0)
        except DegenerateStepError:
            continue
        cs = coefficients(d, x)
        beta = 1.0 + np.sum(np.abs(cs.c))
        from qdescent.poly import classical_gradient
        step = x.coords - classical_gradient(d, x)
        expect = float(step @ step) / beta**2
        assert np.isclose(out.success_prob, expect, atol=1e-12)


def test_success_probability_equals_ancilla_zero_weight():
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    out = run_iteration(d, x, eta=1.0)
    probs = sim.marginal_probabilities(out.raw_state, [0, 1, 2])
    assert out.success_prob == pytest.approx(probs[0], abs=1e-15)


def test_frozen_benchmark_iteration():
    out = run_iteration(benchmark(), Point.normalized([1.0, 1.0]), eta=1.0)
    assert np.allclose(out.next_point.coords,
                       [0.5144957554275265, 0.8574929257125441], atol=1e-12)
    assert np.isclose(out.success_prob, 0.68, atol=1e-12)
    assert np.isclose(out.expected_bernoulli_reps, 1.0 / 0.68, atol=1e-12)
    assert out.aa_reps_estimate == 1


def test_fixed_point_probability():
    # at the optimum Dx = lam*x, so the step is (1 - eta*lam)x and
    # P = (1 - eta*lam)^2 / beta^2
    x = Point.normalized([0.5, SQ3 / 2])
    out = run_iteration(benchmark(), x, eta=1.0)
    lam = -3 * SQ3 / 4
    beta = 1.75 + SQ3 / 2
    assert np.isclose(out.success_prob, (1 - lam) ** 2 / beta**2, atol=1e-12)
    assert np.allclose(aligned(out.next_point.coords, x.coords), x.coords, atol=1e-12)


def test_amplification_rounds_bounded_by_branch_count():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        try:
            out = run_iteration(d, x, eta=1.0)
        except DegenerateStepError:
            continue
        kp = d.flat_count
        if out.success_prob >= 1.0 / kp:
            assert out.aa_reps_estimate <= math.ceil(math.pi / 4 * math.sqrt(kp))


def test_degenerate_step_raises():
    with pytest.raises(DegenerateStepError):
        run_iteration(identity_problem(), Point.normalized([1.0, 0.0]), eta=1.0)


def test_sampled_iteration_state_is_exact():
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    exact = run_iteration(d, x, eta=1.0)
    sampled = run_iteration(d, x, eta=1.0, mode="sampled", shots=64, seed=5)
    assert np.allclose(sampled.next_point.coords, exact.next_point.coords)
    with pytest.raises(ValueError):
        run_iteration(d, x, eta=1.0, mode="sampled")
    with pytest.raises(ValueError):
        run_iteration(d, x, eta=1.0, mode="nope")


def test_estimate_b_benchmark_exact():
    b = estimate_b(benchmark(), Point.normalized([1.0, 1.0]))
    assert b.shape == (2, 2)
    assert np.allclose(b, [[-1.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_estimate_b_identity_problem():
    b = estimate_b(identity_problem(), Point.normalized([0.3, -0.9]))
    assert np.allclose(b, [[1.0]], atol=1e-12)


def test_estimate_b_matches_quadratic_forms():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = random_decomposition(rng)
        x = random_point(rng, d.dim)
        got = estimate_b(d, x)
        for a in range(d.num_terms):
            for j in range(d.order_p):
                expect = float(x.coords @ d.terms[a][j].matrix.real @ x.coords)
                assert np.isclose(got[a, j], expect, atol=1e-12)


def test_estimate_b_sampled_within_binomial_error():
    d = benchmark()
    x = Point.normalized([0.6, 0.8])
    shots = 100_000
    exact = estimate_b(d, x)
    noisy = estimate_b(d, x, mode="sampled", shots=shots, seed=21)
    for e, n in zip(exact.reshape(-1), noisy.reshape(-1)):
        p = min(e * e, 1.0)
        bound = 4.0 * math.sqrt(p * (1 - p) / shots)
        assert abs(n * n - p) <= bound + 1e-12
        if abs(e) > 0.05:
            assert math.copysign(1.0, n) == math.copysign(1.0, e)


def test_estimate_b_sampled_deterministic():
    d = benchmark()
    x = Point.normalized([0.6, 0.8])
    a = estimate_b(d, x, mode="sampled", shots=500, seed=9)
    b = estimate_b(d, x, mode="sampled", shots=500, seed=9)
    assert np.array_equal(a, b)


def test_optimize_reaches_optimum_at_full_step():
    d = benchmark()
    x0 = Point.normalized([0.86, 0.50])
    ref = Point.normalized([0.5, SQ3 / 2])
    recs = optimize(d, x0, eta=1.0, threshold=1e-3, max_iters=20, reference=ref)
    assert recs[-1].label == "converged"
    assert recs[-1].overlap >= 0.999
    assert len(recs) <= 8


def test_optimize_frozen_half_step_trajectory():
    d = benchmark()
    x0 = Point.normalized([-0.38, 0.92])
    ref = Point.normalized([0.5, SQ3 / 2])
    recs = optimize(d, x0, eta=0.5, threshold=1e-3, max_iters=8, reference=ref)
    assert len(recs) == 6
    assert recs[-1].label == "converged"
    assert np.allclose(recs[0].point.coords, [0.0299105431, 0.9995525796], atol=1e-9)
    assert np.isclose(recs[0].success_prob, 0.0597991858667, atol=1e-10)
    assert np.isclose(recs[-1].f_value, -3 * SQ3 / 8, atol=1e-3)
    fs = [r.f_value for r in recs]
    assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))
    ovs = [r.overlap for r in recs]
    assert np.allclose(ovs, [0.8805931979, 0.9985117012, 0.9999467543,
                             0.9999977000, 0.9999998971, 0.9999999954], atol=1e-8)


def test_optimize_from_stationary_point():
    d = benchmark()
    x0 = Point.normalized([0.5, SQ3 / 2])
    recs = optimize(d, x0, eta=1.0, threshold=1e-3, max_iters=10)
    assert len(recs) == 1
    assert recs[0].label == "converged"
    assert np.allclose(aligned(recs[0].point.coords, x0.coords), x0.coords, atol=1e-10)


def test_optimize_validates_arguments():
    d = benchmark()
    x0 = Point.normalized([0.86, 0.50])
    with pytest.raises(ValueError):
        optimize(d, x0, max_iters=0)
    with pytest.raises(ValueError):
        optimize(d, x0, threshold=0.0)


def test_noise_is_rescued_by_purification():
    # global depolarizing noise keeps the dominant eigenvector, so the purified
    # trajectory coincides with the exact one while fidelity drops below 1
    d = benchmark()
    x0 = Point.normalized([0.86, 0.50])
    clean = optimize(d, x0, eta=0.5, threshold=1e-3, max_iters=10)
    noisy = optimize(d, x0, eta=0.5, threshold=1e-3, max_iters=10, noise_eps=0.2)
    assert len(clean) == len(noisy)
    for a, b in zip(clean, noisy):
        assert np.allclose(a.point.coords, b.point.coords, atol=1e-10)
        assert a.fidelity is None
        assert b.fidelity is not None and b.fidelity < 1.0


def test_noise_fidelity_decreases_with_strength():
    d = benchmark()
    x0 = Point.normalized([0.86, 0.50])
    fids = []
    for eps in (0.02, 0.1, 0.3):
        recs = optimize(d, x0, eta=0.5, threshold=1e-3, max_iters=3, noise_eps=eps)
        fids.append(recs[0].fidelity)
    assert fids[0] > fids[1] > fids[2]
