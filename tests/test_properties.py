"""Property tests over Pauli strings, the circuit and the oracle (derandomized, see conftest)."""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import aligned, kron_pauli, random_point, random_symmetric_unitary
from qdescent.errors import DegenerateStepError
from qdescent.lcu import run_iteration
from qdescent.poly import PauliString, TensorDecomposition, UnitaryFactor, classical_iterate, coefficients

signed_labels = st.tuples(st.sampled_from(["", "-"]), st.text(alphabet="IXYZ", min_size=1, max_size=6))


@given(signed_labels, st.integers(0, 2**32 - 1))
def test_pauli_string_is_the_kron_product(signed, seed):
    label = "".join(signed)
    string, ref = PauliString(label), kron_pauli(label)
    assert np.array_equal(string.matrix, ref)
    v = np.random.default_rng(seed).standard_normal((len(ref), 2)) @ np.array([1, 1j])
    assert np.max(np.abs(string.apply(v) - ref @ v)) <= 1e-15


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
        return PauliString(sign + body)

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
