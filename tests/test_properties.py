"""Property tests over Pauli strings, the circuit, the oracle and the input boundaries
(derandomized, see conftest)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import aligned, kron_pauli, random_decomposition, random_point, random_symmetric_unitary
from qdescent.errors import DegenerateStepError
from qdescent.lcu import RegisterLayout, estimate_b, run_iteration
from qdescent.mds import Configuration, Dissimilarities, Weights, distances, lcu_column_demo, mds_optimize, stress
from qdescent.poly import (
    PauliStrings,
    Point,
    TensorDecomposition,
    UnitaryFactor,
    apply_factors,
    classical_iterate,
    coefficients,
    decomposition_from_dict,
    decomposition_to_dict,
    factor_matrices,
)
from qdescent.sim import HADAMARD

signed_labels = st.tuples(st.sampled_from(["", "-"]), st.text(alphabet="IXYZ", min_size=1, max_size=6))


@given(signed_labels, st.integers(0, 2**32 - 1))
def test_pauli_string_is_the_kron_product(signed, seed):
    label = "".join(signed)
    string, ref = PauliStrings([label]), kron_pauli(label)
    assert np.array_equal(factor_matrices(string, len(ref)), [ref])
    v = np.random.default_rng(seed).standard_normal((len(ref), 2)) @ np.array([1, 1j])
    assert np.max(np.abs(apply_factors(string, v[None]) - ref @ v)) <= 1e-15


@st.composite
def same_width_labels(draw):
    """One to eight signed Pauli labels that all act on the same number of qubits."""
    q = draw(st.integers(1, 6))
    body = st.text(alphabet="IXYZ", min_size=q, max_size=q)
    return draw(st.lists(st.tuples(st.sampled_from(["", "-"]), body).map("".join), min_size=1, max_size=8))


@given(same_width_labels(), st.integers(0, 2**32 - 1))
def test_pauli_table_rows_are_the_strings(labels, seed):
    table = PauliStrings(labels)
    strings = [PauliStrings([label]) for label in labels]
    assert table.labels == tuple(labels) and len(table) == len(labels)
    for k, string in enumerate(strings):  # bit for bit, signed zeros included
        assert np.array_equal(table.cols[k], string.cols[0])
        assert table.phase[k].tobytes() == string.phase[0].tobytes()
    rows = np.random.default_rng(seed).standard_normal((*table.cols.shape, 2)) @ np.array([1, 1j])
    applied = apply_factors(table, rows)
    matrices = factor_matrices(table, table.cols.shape[1])
    for k, string in enumerate(strings):
        assert applied[k].tobytes() == apply_factors(string, rows[k:k + 1])[0].tobytes()
        assert np.max(np.abs(applied[k] - matrices[k] @ rows[k])) <= 1e-15


def scaled_start_estimate_b(decomp, x, mode="exact", shots=None, seed=None):
    """estimate_b as the start vector scaled by one Hadamard entry per select qubit, then the table
    applied to it: the order that taking the factor pass's images first must reproduce."""
    start = x.coords
    for _ in range(RegisterLayout.for_problem(decomp.flat_count, decomp.dim).t1):
        start = HADAMARD[0, 0].real * start
    branches = apply_factors(decomp.factors, np.broadcast_to(start, (decomp.flat_count, decomp.dim)))
    norms = np.sqrt(np.sum(np.abs(branches) ** 2, axis=1))
    rng = np.random.default_rng(seed)
    out = []
    for branch, norm in zip(branches, norms):
        exact = complex(x.coords @ (branch / norm)).real
        if mode == "sampled":
            exact = math.copysign(math.sqrt(rng.binomial(shots, min(max(exact * exact, 0.0), 1.0)) / shots), exact)
        out.append(exact)
    return np.reshape(out, (decomp.num_terms, decomp.order_p))


@given(same_width_labels(), st.data(), st.integers(1, 1000), st.integers(0, 2**32 - 1))
def test_estimate_b_from_the_factor_pass_is_the_scaled_start_formula(labels, data, shots, seed):
    # a Pauli phase is +-1 or +-i, so the Hadamard scaling commutes with the table exactly
    p = data.draw(st.sampled_from([k for k in (1, 2) if len(labels) % k == 0]))
    decomp = TensorDecomposition(dim=len(PauliStrings(labels).phase[0]), order_p=p,
                                 terms=[labels[a:a + p] for a in range(0, len(labels), p)])
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))
    coords = np.array(data.draw(st.lists(entry, min_size=decomp.dim, max_size=decomp.dim)))
    assume(np.linalg.norm(coords) > 1e-3)
    x = Point.normalized(coords)
    assert estimate_b(decomp, x).tobytes() == scaled_start_estimate_b(decomp, x).tobytes()
    sampled = estimate_b(decomp, x, mode="sampled", shots=shots, seed=seed)
    assert sampled.tobytes() == scaled_start_estimate_b(decomp, x, "sampled", shots, seed).tobytes()


@st.composite
def mixed_problems(draw):
    """A decomposition of dense reflections and real symmetric Pauli strings, a point and a step."""
    q, p, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def factor():
        if draw(st.booleans()):
            return UnitaryFactor(random_symmetric_unitary(rng, 2**q))
        sign, body = draw(st.sampled_from(["", "-"])), draw(st.text(alphabet="IXYZ", min_size=q, max_size=q))
        if body.count("Y") % 2:  # an odd number of Y is imaginary: keep the string real symmetric
            body = body.replace("Y", "I", 1)
        return sign + body

    terms = [[factor() for _ in range(p)] for _ in range(k)]
    prefactor = draw(st.floats(0.3, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
    decomp = TensorDecomposition(dim=2**q, order_p=p, terms=terms, prefactor=prefactor)
    return decomp, random_point(rng, 2**q), draw(st.floats(0.05, 1.0))


@given(mixed_problems())
def test_circuit_matches_oracle_and_success_probability_law(problem):
    decomp, x, eta = problem
    try:
        oracle, step_norm = classical_iterate(decomp, x, eta)
        outcome = run_iteration(decomp, x, eta)
    except DegenerateStepError:
        assume(False)
    point = aligned(outcome.next_point.coords, oracle.coords)
    assert np.max(np.abs(point - oracle.coords)) <= 1e-10
    beta = 1.0 + eta * float(np.sum(np.abs(coefficients(decomp, x).c)))
    assert abs(outcome.success_prob - (step_norm / beta) ** 2) <= 1e-12


@given(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 2**32 - 1))
def test_non_finite_input_is_rejected_at_every_boundary(bad, seed):
    rng = np.random.default_rng(seed)

    def spoiled(a):
        """A copy of a with one entry, chosen at random, set to bad."""
        out = np.array(a)
        out.flat[rng.integers(out.size)] = bad
        return out

    n = int(rng.choice([2, 4, 8]))
    decomp = random_decomposition(rng)
    bad_factor = decomposition_to_dict(decomp)
    dense = bad_factor["terms"][0][0]["dense"]
    dense[rng.integers(len(dense))][rng.integers(2)] = bad
    mds_inputs = [distances(rng.standard_normal((n, 2))), Weights.uniform(n).w, rng.standard_normal((n, 2))]
    checks = [
        lambda: Point(spoiled(random_point(rng, n).coords)),
        lambda: UnitaryFactor(spoiled(random_symmetric_unitary(rng, n))),
        lambda: TensorDecomposition(dim=2, order_p=1, terms=[["X"]], prefactor=bad),
        lambda: decomposition_from_dict(bad_factor),
        lambda: decomposition_from_dict({**decomposition_to_dict(decomp), "prefactor": bad}),
        lambda: Dissimilarities(spoiled(mds_inputs[0])),
        lambda: Weights(spoiled(mds_inputs[1])),
        lambda: Configuration(spoiled(mds_inputs[2])),
    ]
    for part in range(3):  # raw arrays meet the mds types' checks
        raw = [spoiled(a) if k == part else a for k, a in enumerate(mds_inputs)]
        checks += [lambda f=f, raw=raw: f(*raw) for f in (mds_optimize, stress, lcu_column_demo)]
    for check in checks:
        with pytest.raises(ValueError):
            check()
