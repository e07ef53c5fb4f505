import numpy as np
import pytest

from conftest import random_orthogonal
from qdescent.errors import CapacityError, PostselectionError, PurificationError
from qdescent.sim import (
    HADAMARD,
    DensityMatrix,
    QState,
    apply_controlled,
    apply_unitary,
    depolarize,
    fidelity,
    marginal_probabilities,
    measure_sample,
    postselect,
    purify,
    to_density,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_zero_state_and_norm_validation():
    s = QState.zero(2)
    assert np.allclose(s.amps, [1, 0, 0, 0])
    with pytest.raises(ValueError):
        QState(1, np.array([1.0, 1.0]))


def test_qubit_guard():
    with pytest.raises(CapacityError):
        QState.zero(21)


def test_apply_identity_and_x():
    s = QState.zero(1)
    assert np.allclose(apply_unitary(s, np.eye(2), [0]).amps, s.amps)
    assert np.allclose(apply_unitary(s, X, [0]).amps, [0, 1])


def test_hadamard_involution():
    s = QState.zero(1)
    once = apply_unitary(s, HADAMARD, [0])
    assert np.allclose(apply_unitary(once, HADAMARD, [0]).amps, [1, 0], atol=1e-14)


def test_apply_rejects_non_unitary_and_bad_targets():
    s = QState.zero(2)
    with pytest.raises(ValueError):
        apply_unitary(s, np.array([[1, 1], [0, 1]], dtype=float), [0])
    with pytest.raises(ValueError):
        apply_unitary(s, np.eye(2), [2])
    with pytest.raises(ValueError):
        apply_unitary(s, np.eye(4), [0, 0])


def test_most_significant_first_ordering():
    # X on qubit 0 of |00> must set the high bit: |10> = index 2
    s = apply_unitary(QState.zero(2), X, [0])
    assert np.allclose(s.amps, [0, 0, 1, 0])


def test_controlled_no_trigger():
    s = QState.zero(2)  # control qubit 0 in |0>, pattern wants 1
    out = apply_controlled(s, X, [0], [1], [1])
    assert np.allclose(out.amps, s.amps)


def test_cnot():
    s = apply_unitary(QState.zero(2), X, [0])  # |10>
    out = apply_controlled(s, X, [0], [1], [1])
    assert np.allclose(out.amps, [0, 0, 0, 1])  # |11>


def test_controlled_overlap_rejected():
    with pytest.raises(ValueError):
        apply_controlled(QState.zero(2), X, [0], [1], [0])


def test_select_register_drives_summed_branches():
    # |m> on a 2-qubit select register applies u_m to the working qubit;
    # compare against the directly assembled block-diagonal matrix
    rng = np.random.default_rng(1)
    mats = [random_orthogonal(rng, 2) for _ in range(4)]
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    s = QState(3, amps)
    out = s
    for m, u in enumerate(mats):
        out = apply_controlled(out, u, [0, 1], [(m >> 1) & 1, m & 1], [2])
    block = np.zeros((8, 8), dtype=complex)
    for m, u in enumerate(mats):
        block[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = u
    assert np.allclose(out.amps, block @ amps, atol=1e-12)


def test_postselect_trivial_and_plus():
    s = QState(2, np.kron([1, 0], [0.6, 0.8]))
    kept, prob = postselect(s, [0], [0])
    assert np.isclose(prob, 1.0)
    assert np.allclose(kept.amps, [0.6, 0.8])

    plus = apply_unitary(QState.zero(1), HADAMARD, [0])
    kept, prob = postselect(plus, [0], [0])
    assert np.isclose(prob, 0.5)
    assert kept.num_qubits == 0
    assert np.allclose(kept.amps, [1.0])


def test_postselect_probability_is_exact_subspace_weight():
    rng = np.random.default_rng(2)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    amps /= np.linalg.norm(amps)
    s = QState(4, amps)
    kept, prob = postselect(s, [1, 3], [1, 0])
    mask = [(i >> 2) & 1 == 1 and i & 1 == 0 for i in range(16)]
    assert prob == float(np.sum(np.abs(amps[mask]) ** 2))
    assert kept.num_qubits == 2


def test_postselect_zero_probability():
    with pytest.raises(PostselectionError):
        postselect(QState.zero(1), [0], [1])


def test_measure_sample_deterministic_and_exact_for_basis_state():
    s = QState.zero(2)
    counts = measure_sample(s, [0, 1], seed=42, shots=100)
    assert counts == {"00": 100}
    again = measure_sample(s, [0, 1], seed=42, shots=100)
    assert counts == again


def test_measure_sample_plus_state_frequency():
    plus = apply_unitary(QState.zero(1), HADAMARD, [0])
    counts = measure_sample(plus, [0], seed=7, shots=10**6)
    freq = counts["0"] / 10**6
    assert abs(freq - 0.5) <= 0.002  # 4 sigma of a fair binomial at 1e6 shots


def test_marginal_ordering():
    # P(q1, q0) should transpose P(q0, q1)
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    s = QState(2, amps)
    p01 = marginal_probabilities(s, [0, 1])
    p10 = marginal_probabilities(s, [1, 0])
    assert np.allclose(p01.reshape(2, 2).T.reshape(-1), p10)


def test_norm_preserved_by_random_circuits():
    rng = np.random.default_rng(4)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    s = QState(3, amps)
    for _ in range(20):
        u = random_orthogonal(rng, 2)
        s = apply_unitary(s, u, [int(rng.integers(0, 3))])
        assert abs(np.sum(np.abs(s.amps) ** 2) - 1.0) <= 1e-12


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="must be Hermitian within 1e-10"):
        DensityMatrix(2, np.array([[0.5, 0.1], [0.2, 0.5]]))
    with pytest.raises(ValueError, match="must have unit trace within 1e-10"):
        DensityMatrix(2, np.array([[0.9, 0.0], [0.0, 0.2]]))
    with pytest.raises(ValueError, match="must be positive semidefinite within 1e-10"):
        DensityMatrix(2, np.array([[1.2, 0.0], [0.0, -0.2]]))


def test_depolarize_endpoints():
    rho = to_density(QState.zero(1))
    assert np.allclose(depolarize(rho, 0.0).entries, rho.entries)
    assert np.allclose(depolarize(rho, 1.0).entries, np.eye(2) / 2)
    with pytest.raises(ValueError):
        depolarize(rho, 1.5)


def test_fidelity_reference_values():
    zero = to_density(QState.zero(1))
    one = to_density(QState(1, np.array([0.0, 1.0])))
    assert np.isclose(fidelity(zero, zero), 1.0)
    assert np.isclose(fidelity(zero, one), 0.0)
    # tr(rho1 rho2) = 0.75, purities 1 and 0.625
    assert np.isclose(fidelity(zero, depolarize(zero, 0.5)), 0.75 / np.sqrt(0.625), atol=1e-12)


def test_fidelity_closed_form_pure_depolarized():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(16)
    v /= np.linalg.norm(v)
    rho = to_density(QState(4, v.astype(complex)))
    eps, dim = 0.1, 16
    got = fidelity(rho, depolarize(rho, eps))
    num = (1 - eps) + eps / dim
    den = np.sqrt((1 - eps) ** 2 + 2 * (1 - eps) * eps / dim + eps**2 / dim)
    assert np.isclose(got, num / den, atol=1e-12)


def test_purify_recovers_pure_and_depolarized_states():
    rng = np.random.default_rng(6)
    v = rng.standard_normal(8)
    v /= np.linalg.norm(v)
    rho = to_density(QState(3, v.astype(complex)))
    rec = purify(rho)
    assert np.allclose(rec, v * np.sign(v @ rec), atol=1e-10)
    rec2 = purify(depolarize(rho, 0.2))
    assert np.allclose(rec2, v * np.sign(v @ rec2), atol=1e-10)


def test_purify_diagonal_and_degenerate():
    rho = DensityMatrix(2, np.diag([0.6, 0.4]).astype(complex))
    assert np.allclose(purify(rho), [1.0, 0.0])
    with pytest.raises(PurificationError):
        purify(DensityMatrix(2, np.eye(2, dtype=complex) / 2))


def test_density_round_trip():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    rec = purify(to_density(QState(2, v.astype(complex))))
    assert np.allclose(rec, v * np.sign(v @ rec), atol=1e-10)


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.nan, np.nan], [np.inf, 0.0], [complex(0, np.nan), 1.0]])
def test_qstate_rejects_non_finite_amplitudes(amps):
    with pytest.raises(ValueError, match="finite"):
        QState(1, np.array(amps, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    m = np.eye(2, dtype=complex) / 2
    m[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(2, m)
