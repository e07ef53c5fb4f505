import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import (
    aligned,
    count_applications,
    kron_pauli,
    random_decomposition,
    random_point,
    random_symmetric_unitary,
)
from qdescent import poly, sim
from qdescent.errors import CapacityError, DegenerateStepError, PostselectionError
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
    PauliStrings,
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
        terms=[["-I", "X"], ["X", "Z"]],
        prefactor=0.5,
    )


def identity_problem():
    return TensorDecomposition(
        dim=2, order_p=1, terms=[["I"]], prefactor=1.0)


def _pad(a, dim):
    out = np.eye(dim, dtype=complex)
    out[: a.shape[0], : a.shape[0]] = a
    return out


def _bits(m, width):
    return [(m >> (width - 1 - j)) & 1 for j in range(width)]


def dense_matrices(decomp):
    """Each factor's matrix in flattened order, formed apart from the kernel: a label as its
    Kronecker product."""
    return [kron_pauli(f) if isinstance(f, str) else f.matrix for term in decomp.terms for f in term]


def reference_lcu_step(matrices, c, x_vec, eta):
    """The LCU step for dense factor matrices, wired gate by gate on the generic simulator.

    Returns (post-selected working vector, success probability).
    """
    n = x_vec.shape[0]
    layout = RegisterLayout.for_problem(len(matrices), n)
    dim_work = 2**layout.n_work
    prep = build_prepare(c, eta)
    v0 = complete_from_first_column(prep.v0_column)
    v = complete_from_first_column(prep.column)
    q = layout.total_qubits
    full = np.zeros(2**q, dtype=complex)
    full[:n] = x_vec
    state = sim.QState(q, full)
    select = list(range(1, 1 + layout.t1))
    work = list(range(1 + layout.t1, q))
    state = sim.apply_unitary(state, v0, [0])
    if layout.t1 > 0:
        state = sim.apply_controlled(state, v, [0], [1], select)
    for m, f in enumerate(matrices):
        u = prep.signs[m] * _pad(f, dim_work)
        state = sim.apply_controlled(state, u, [0] + select, [1] + _bits(m, layout.t1), work)
    if layout.t1 > 0:
        state = sim.apply_controlled(state, v.T, [0], [1], select)
    state = sim.apply_unitary(state, v0.T, [0])
    kept, prob = sim.postselect(state, [0] + select, [0] * (1 + layout.t1))
    vec = kept.amps.real[:n]
    return vec / np.linalg.norm(vec), prob


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
    for m, f in enumerate(dense_matrices(decomp)):
        state = sim.apply_controlled(state, _pad(f, dim_work), select, _bits(m, layout.t1), work)
    out = [(xp.conj() @ sim.postselect(state, select, _bits(m, layout.t1))[0].amps).real
           for m in range(decomp.flat_count)]
    return np.reshape(out, (decomp.num_terms, decomp.order_p))


def pauli_decomposition(labels, p, prefactor):
    return TensorDecomposition(dim=2 ** len(labels[0].removeprefix("-")), order_p=p, prefactor=prefactor,
                               terms=[labels[a:a + p] for a in range(0, len(labels), p)])


def reference_instances():
    """Random dense decompositions, one padded case (N = 3, K*p = 3), Pauli-string and mixed
    decompositions on both sides of t1 = 2 (dense V up to K*p = 4, rank-one V past it),
    each with a start point.  Every string has an even number of Y, so it is real symmetric."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(40):
        d = random_decomposition(rng)
        cases.append((d, random_point(rng, d.dim)))
    padded = TensorDecomposition(
        dim=3, order_p=1, terms=[[UnitaryFactor(random_symmetric_unitary(rng, 3))] for _ in range(3)],
        prefactor=0.8)
    cases.append((padded, random_point(rng, 3)))
    for labels, p, prefactor in (
        (["XZ", "-YY"], 1, 0.9),
        (["IX", "YY", "-ZI", "XX"], 2, -0.6),
        (["XYY", "-ZIZ", "YIY", "IXI", "ZZX"], 1, 0.7),
        (["YYZ", "XIX", "-IZI", "ZXZ", "YXY", "IIX", "-XXZ", "ZYY", "IYY", "XZZ", "ZII", "-YIY"],
         2, 0.5),
    ):
        d = pauli_decomposition(labels, p, prefactor)
        cases.append((d, random_point(rng, d.dim)))
    mixed = [["YY", UnitaryFactor(random_symmetric_unitary(rng, 4))],
             [UnitaryFactor(random_symmetric_unitary(rng, 4)), "-XZ"],
             ["ZX", "IZ"]]
    cases.append((TensorDecomposition(dim=4, order_p=2, terms=mixed, prefactor=-1.1), random_point(rng, 4)))
    return cases


def test_reference_instances_cover_both_prepare_branches_and_factor_kinds():
    cases = reference_instances()
    t1s = {RegisterLayout.for_problem(d.flat_count, d.dim).t1 for d, _ in cases}
    assert min(t1s) <= 2 < max(t1s)
    assert {type(f) for d, _ in cases for term in d.terms for f in term} == {UnitaryFactor, str}
    # all-Pauli instances, which run as one PauliStrings table, sit on both sides of t1 = 2
    pauli_t1s = {RegisterLayout.for_problem(d.flat_count, d.dim).t1 for d, _ in cases
                 if isinstance(d.factors, PauliStrings)}
    assert min(pauli_t1s) <= 2 < max(pauli_t1s)
    # and one mixed instance runs its labels as dense factors
    assert sum(any(isinstance(f, str) for term in d.terms for f in term) and isinstance(d.factors, tuple)
               for d, _ in cases) == 1
    # the images, and so the circuit state, are real for all-real factors and complex otherwise
    assert {coefficients(d, x).images.dtype for d, x in cases} == {np.dtype(np.float64), np.dtype(np.complex128)}


@pytest.mark.parametrize("decomp, x", reference_instances())
def test_kernel_matches_gate_level_reference(decomp, x):
    c = coefficients(decomp, x).c
    images = poly.apply_factors(decomp.factors, x.coords)
    try:
        vec, prob = run_lcu_step(images, c, x.coords, eta=0.7)
    except DegenerateStepError:
        pytest.skip("degenerate step")
    ref_vec, ref_prob = reference_lcu_step(dense_matrices(decomp), c, x.coords, eta=0.7)
    assert abs(prob - ref_prob) <= 1e-12
    assert np.max(np.abs(vec - ref_vec)) <= 1e-12
    # the optimizer's path, on the images that coefficients formed at x
    out = run_iteration(decomp, x, eta=0.7)
    assert abs(out.success_prob - ref_prob) <= 1e-12
    assert np.max(np.abs(out.next_point.coords - ref_vec)) <= 1e-12
    # optimize's first record is run_iteration's step bit for bit, after its sign flip toward x
    (record,) = optimize(decomp, x, eta=0.7, max_iters=1)
    assert np.float64(record.success_prob).tobytes() == np.float64(out.success_prob).tobytes()
    y = out.next_point.coords
    assert record.point.coords.tobytes() == (-y if float(y @ x.coords) < 0 else y).tobytes()
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


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -1.0])
def test_optimize_checks_eta_before_its_first_factor_pass(eta, monkeypatch):
    applied = count_applications(monkeypatch)
    with pytest.raises(ValueError, match="^eta must be positive and finite$"):
        optimize(benchmark(), Point.normalized([0.86, 0.50]), eta=eta)
    assert applied == []


def test_register_layout():
    assert RegisterLayout.for_problem(4, 2) == RegisterLayout(t1=2, n_work=1)
    assert RegisterLayout.for_problem(1, 2) == RegisterLayout(t1=0, n_work=1)
    assert RegisterLayout.for_problem(3, 4) == RegisterLayout(t1=2, n_work=2)
    assert RegisterLayout.for_problem(4, 2).total_qubits == 4
    assert RegisterLayout.for_problem(2**18, 2).total_qubits == sim.MAX_QUBITS
    with pytest.raises(CapacityError):
        RegisterLayout.for_problem(2**19, 2)


def test_complete_from_first_column_is_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        col = rng.standard_normal(8)
        col /= np.linalg.norm(col)
        u = complete_from_first_column(col)
        assert np.allclose(u @ u.T, np.eye(8), atol=1e-12)
        assert np.array_equal(u[:, 0], col / np.linalg.norm(col))


@pytest.mark.parametrize("scale, eta", [(1e308, 10.0), (1.7e308, 1.0)], ids=["weights", "sum"])
def test_beta_past_the_float_range_is_refused_before_any_nan(scale, eta):
    # at eta 10 each weight eta*|c_m| overflows; at eta 1 the weights are finite and their sum is not
    d, x = benchmark(), Point.normalized([0.6, 0.8])
    coeffs = coefficients(d, x)
    c = scale * coeffs.c / np.abs(coeffs.c).max()
    for run in (lambda: build_prepare(c, eta), lambda: run_lcu_step(coeffs.images, c, x.coords, eta)):
        with pytest.raises(ValueError, match=rf"beta = 1 \+ eta\*sum\|c\| is not finite at eta={eta!r}"):
            run()  # tier-1 turns numpy's overflow warning into an error, so none may come first


def test_build_prepare_benchmark_values():
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    prep = build_prepare(coefficients(d, x).c, eta=1.0)
    v0 = complete_from_first_column(prep.v0_column)
    v = complete_from_first_column(prep.column)
    assert np.isclose(prep.beta, 2.5)
    assert np.allclose(v0[:, 0], [1 / np.sqrt(2.5), np.sqrt(1.5 / 2.5)])
    root = np.sqrt(1.0 / 3.0)
    # c_2 is a rounding-level 1e-17, so its slot holds sqrt(eta*|c_2|/total) ~ 3e-9
    assert np.allclose(v[:, 0], [root, root, 0.0, root], atol=1e-8)
    assert prep.signs[0] == -1.0 and prep.signs[3] == -1.0
    assert prep.signs[1] == 1.0
    # rows/cols orthonormal
    assert np.allclose(v @ v.T, np.eye(4), atol=1e-12)
    assert np.allclose(v0 @ v0.T, np.eye(2), atol=1e-12)


def test_prepare_state_amplitudes():
    # after v0 on the flag and flag-controlled v on the select register, the
    # amplitude of |1>|m> must be sqrt(eta*|c_m|/beta) and of |0>|0> 1/sqrt(beta)
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    eta = 0.7
    prep = build_prepare(coefficients(d, x).c, eta)
    state = sim.QState.zero(3)
    state = sim.apply_unitary(state, complete_from_first_column(prep.v0_column), [0])
    state = sim.apply_controlled(state, complete_from_first_column(prep.column), [0], [1], [1, 2])
    c = coefficients(d, x).c
    assert np.isclose(abs(state.amps[0]), 1 / np.sqrt(prep.beta), atol=1e-12)
    for m in range(4):
        assert np.isclose(abs(state.amps[4 + m]),
                          np.sqrt(eta * abs(c[m]) / prep.beta), atol=1e-12)


def test_zero_weights_give_identity_step():
    x = np.array([0.6, 0.8])
    images = poly.apply_factors(PauliStrings(["I", "X"]), x)
    vec, prob = run_lcu_step(images, np.zeros(2), x, eta=1.0)
    prep = build_prepare(np.zeros(2), eta=1.0)
    assert np.isclose(prep.beta, 1.0)
    assert np.allclose(complete_from_first_column(prep.column), np.eye(2))
    assert np.allclose(vec, x, atol=1e-14)
    assert np.isclose(prob, 1.0)


def test_single_factor_layout():
    prep = build_prepare(coefficients(identity_problem(), Point.normalized([1.0, 0.0])).c, eta=0.5)
    assert prep.column.shape == (1,)
    assert np.isclose(complete_from_first_column(prep.column)[0, 0], 1.0)


def test_a_step_at_a_20_qubit_layout_holds_one_copy_of_the_images():
    # the (2, 2^13, 2^6) block state of the whole register would be four times the images
    rng = np.random.default_rng(5)
    table = PauliStrings.from_digits(rng.choice([0, 1, 3], size=(4097, 6)))
    x = random_point(rng, 64).coords
    images = poly.apply_factors(table, x)
    assert RegisterLayout.for_problem(len(table), len(x)).total_qubits == 20
    tracemalloc.start()
    try:
        run_lcu_step(images, rng.standard_normal(len(table)), x, eta=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * images.nbytes


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
    # Y maps a real point to an imaginary one: the circuit and the classical step both refuse it
    y_only, x = TensorDecomposition(dim=2, order_p=1, terms=[["Y"]]), Point.normalized([0.6, 0.8])
    with pytest.raises(ValueError, match="post-selected state is not real"):
        run_iteration(y_only, x, eta=1.0)
    with pytest.raises(ValueError, match="descent direction is not real"):
        classical_iterate(y_only, x, eta=1.0)


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


def test_frozen_benchmark_iteration():
    out = run_iteration(benchmark(), Point.normalized([1.0, 1.0]), eta=1.0)
    assert np.allclose(out.next_point.coords,
                       [0.5144957554275265, 0.8574929257125441], atol=1e-12)
    assert np.isclose(out.success_prob, 0.68, atol=1e-12)


def test_fixed_point_probability():
    # at the optimum Dx = lam*x, so the step is (1 - eta*lam)x and
    # P = (1 - eta*lam)^2 / beta^2
    x = Point.normalized([0.5, SQ3 / 2])
    out = run_iteration(benchmark(), x, eta=1.0)
    lam = -3 * SQ3 / 4
    beta = 1.75 + SQ3 / 2
    assert np.isclose(out.success_prob, (1 - lam) ** 2 / beta**2, atol=1e-12)
    assert np.allclose(aligned(out.next_point.coords, x.coords), x.coords, atol=1e-12)


def test_degenerate_step_raises():
    with pytest.raises(DegenerateStepError):
        run_iteration(identity_problem(), Point.normalized([1.0, 0.0]), eta=1.0)
    # x - (1 + 1e-9)x leaves beta*sqrt(P) = 1e-9, past the degenerate bound, and P about 2.5e-19
    x = np.array([1.0, 0.0])
    with pytest.raises(PostselectionError, match="all-zero ancilla outcome has probability 2.5"):
        run_lcu_step(poly.apply_factors(PauliStrings(["I"]), x), np.array([1.0 + 1e-9]), x, eta=1.0)


def test_sampled_iteration_state_is_exact():
    d = benchmark()
    x = Point.normalized([1.0, 1.0])
    exact = optimize(d, x, eta=1.0, max_iters=1)
    sampled = optimize(d, x, eta=1.0, max_iters=1, shots=64, seed=5)
    assert np.allclose(sampled[0].point.coords, exact[0].point.coords)


def test_sampled_optimize_stops_at_the_first_step_whose_shots_all_miss():
    d, x0 = benchmark(), Point.normalized([0.3, 0.7])
    exact = optimize(d, x0, max_iters=30)
    # the steps draw their successes from one generator in step order, and the collapsed state is
    # the exact one; at seed 2 a generator made afresh for each step would miss one step earlier
    rng = np.random.default_rng(2)
    miss = next(r for r in exact if rng.binomial(1, r.success_prob) == 0)
    assert miss.iteration == 3
    with pytest.raises(PostselectionError, match=rf"no post-selection success in 1 shots \(p={miss.success_prob:.3e}\)"):
        optimize(d, x0, max_iters=30, shots=1, seed=2)


@pytest.mark.parametrize("run", [
    lambda x, seed: estimate_b(benchmark(), x, shots=64, seed=seed),
    lambda x, seed: optimize(benchmark(), x, seed=seed),
], ids=["estimate_b", "optimize"])
def test_negative_seed_is_refused(run):
    for seed in (-1, -2, 1.5, math.nan, "3"):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}")):
            run(Point.normalized([1.0, 1.0]), seed)


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
    noisy = estimate_b(d, x, shots=shots, seed=21)
    for e, n in zip(exact.reshape(-1), noisy.reshape(-1)):
        p = min(e * e, 1.0)
        bound = 4.0 * math.sqrt(p * (1 - p) / shots)
        assert abs(n * n - p) <= bound + 1e-12
        if abs(e) > 0.05:
            assert math.copysign(1.0, n) == math.copysign(1.0, e)


def test_estimate_b_sampled_deterministic():
    d = benchmark()
    x = Point.normalized([0.6, 0.8])
    a = estimate_b(d, x, shots=500, seed=9)
    b = estimate_b(d, x, shots=500, seed=9)
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


def test_optimize_makes_one_factor_pass_per_point(monkeypatch):
    passes, applied = [], []
    factor_pass, apply_factors = poly._factor_pass, poly.apply_factors
    monkeypatch.setattr(poly, "_factor_pass", lambda d, v: passes.append(v.copy()) or factor_pass(d, v))
    monkeypatch.setattr(poly, "apply_factors", lambda f, v: applied.append(len(f)) or apply_factors(f, v))
    records = optimize(benchmark(), Point.normalized([0.86, 0.5]), eta=0.5, max_iters=8)
    # the start, then every accepted point once: its record's f and the next step's weights
    points = [Point.normalized([0.86, 0.5])] + [r.point for r in records]
    assert len(records) > 2
    assert [list(v) for v in passes] == [list(p.coords) for p in points]
    # and the circuit step takes that pass's images, applying no factor itself
    assert applied == [4] * len(points)
    monkeypatch.undo()
    assert [r.f_value for r in records] == [evaluate_objective(benchmark(), r.point) for r in records]


@pytest.mark.parametrize("make", [benchmark, lambda: random_decomposition(np.random.default_rng(23), dims=(4,))],
                         ids=["pauli", "dense"])
def test_estimate_b_and_the_step_from_one_point_share_one_factor_pass(make, monkeypatch):
    decomp = make()
    x = random_point(np.random.default_rng(24), decomp.dim)
    applied = count_applications(monkeypatch)
    b = estimate_b(decomp, x)
    outcome = run_iteration(decomp, x, eta=0.5)
    assert applied == [decomp.flat_count]
    monkeypatch.undo()
    fresh = make()  # the same problem, with no pass kept
    assert np.max(np.abs(b - coefficients(fresh, x).b)) <= 1e-12
    assert outcome.next_point.coords.tobytes() == run_iteration(fresh, x, eta=0.5).next_point.coords.tobytes()


def test_a_new_point_by_bytes_gets_a_fresh_factor_pass(monkeypatch):
    decomp = benchmark()
    coords = np.array([1.0, 0.0])  # a raw vector, which a Point would copy
    applied = count_applications(monkeypatch)
    first = coefficients(decomp, coords)
    signed = coefficients(decomp, Point(np.array([1.0, -0.0])))  # equal to the first point, not in bytes
    again = coefficients(decomp, coords)
    coords[:] = [0.6, 0.8]  # changed in place after the pass
    moved = coefficients(decomp, coords)
    assert applied == [4, 4, 4, 4]
    monkeypatch.undo()
    for got, point in ((first, [1.0, 0.0]), (signed, [1.0, -0.0]), (again, [1.0, 0.0]), (moved, [0.6, 0.8])):
        ref = coefficients(benchmark(), Point(np.array(point)))
        assert got.images.tobytes() == ref.images.tobytes() and got.b.tobytes() == ref.b.tobytes()
    # "Z" maps (1, +-0) to (1, -+0), so the signed zero shows in the images
    assert first.images.tobytes() != signed.images.tobytes()


def test_the_kept_factor_pass_is_read_only_and_no_field():
    decomp = benchmark()
    cs = coefficients(decomp, Point.normalized([0.6, 0.8]))
    for arr in (cs.b, cs.images):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
    fresh = benchmark()
    assert decomp == fresh and repr(decomp) == repr(fresh)


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


@pytest.mark.parametrize("eps", [-0.1, math.nan, 1.5])
def test_optimize_rejects_noise_outside_unit_interval(eps):
    with pytest.raises(ValueError, match=r"noise strength must lie in \[0, 1\]"):
        optimize(benchmark(), Point.normalized([0.86, 0.50]), eta=0.5, noise_eps=eps)


def work_qubits(n_work):
    """A one-string problem whose working register has n_work qubits, and a start point."""
    return (TensorDecomposition(dim=2**n_work, order_p=1, terms=[["X" * n_work]], prefactor=1.0),
            Point.normalized(np.ones(2**n_work)))


def test_the_noise_round_past_10_work_qubits_is_refused_before_any_allocation():
    # one 2^11 x 2^11 complex density matrix is 64 MiB, past the statevector cap's 2^20 entries
    decomp, x0 = work_qubits(11)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=re.escape("density matrix needs 4^11 entries (cap 2^20)")):
            optimize(decomp, x0, noise_eps=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x0.coords.nbytes  # not one vector of the point's size


class _Reached(Exception):
    """Raised by the first coefficient pass: optimize got past its entry checks."""


@pytest.mark.parametrize("n_work, eps", [(10, 0.1), (11, 0.0)])
def test_the_noise_bound_leaves_10_work_qubits_and_noiseless_runs(n_work, eps, monkeypatch):
    def reached(*args):
        raise _Reached

    monkeypatch.setattr(poly, "coefficients", reached)
    with pytest.raises(_Reached):
        optimize(*work_qubits(n_work), noise_eps=eps)


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
