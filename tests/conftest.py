"""Shared random-instance builders for the test suite."""

import numpy as np
from hypothesis import settings

from qdescent import experiment, poly
from qdescent.poly import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, Point, TensorDecomposition, UnitaryFactor

# property tests draw the same examples on every run, so tier-1 stays deterministic
settings.register_profile("tier1", derandomize=True, database=None, deadline=None, max_examples=60)
settings.load_profile("tier1")
# the same examples and more of them, for a run outside tier-1: pytest --hypothesis-profile long
settings.register_profile("long", settings.get_profile("tier1"), max_examples=2000)


def _off_diagonal(n, delta, weight):
    """n points whose delta and weights are one value each off the diagonal."""
    off = np.ones((n, n)) - np.eye(n)
    return delta * off, weight * off


# (delta, weights, message): pairs that overflow the stress arithmetic, each with its refusal
OVERFLOW_PAIRS = {
    "two-points-1e308": (*_off_diagonal(2, 1e308, 1e308),
                         "the stress at the origin, sum(weights * delta**2) / 2, must be finite"),
    "three-points-weights-1e308": (*_off_diagonal(3, 1.0, 1e308),
                                   "weights entries must be finite, and so must their row sums"),
    # w·δ = 1e300 is finite, w·δ² is not
    "delta-1e200-weights-1e100": (*_off_diagonal(4, 1e200, 1e100),
                                  "the stress at the origin, sum(weights * delta**2) / 2, must be finite"),
}


def random_symmetric_unitary(rng, n):
    """A random real symmetric orthogonal matrix (reflection through a random subspace)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = rng.choice([-1.0, 1.0], size=n)
    return q @ np.diag(signs) @ q.T


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_decomposition(rng, dims=(2, 4), p_max=3, k_max=3, symmetric=True):
    """A random desk-scale decomposition with real factors."""
    n = int(rng.choice(dims))
    p = int(rng.integers(1, p_max + 1))
    k = int(rng.integers(1, k_max + 1))
    maker = random_symmetric_unitary if symmetric else random_orthogonal
    terms = [[UnitaryFactor(maker(rng, n)) for _ in range(p)] for _ in range(k)]
    prefactor = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
    return TensorDecomposition(dim=n, order_p=p, terms=terms, prefactor=prefactor)


def random_point(rng, n):
    return Point.normalized(rng.standard_normal(n))


def aligned(vec, reference):
    """Flip vec so it has nonnegative inner product with reference."""
    return vec if float(vec @ reference) >= 0 else -vec


def kron_pauli(label):
    """Reference: a Pauli string as the Kronecker product of its one-qubit matrices."""
    out = -np.eye(1, dtype=complex) if label.startswith("-") else np.eye(1, dtype=complex)
    for ch in label.removeprefix("-"):
        out = np.kron(out, {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}[ch])
    return out


def count_applications(monkeypatch):
    """Patch poly.apply_factors to log the factor count of every call; returns the log.  The experiment's
    DECOMP is swapped for a fresh one, whose factor-pass memo no earlier run has filled, so a count
    does not depend on which tests ran before it."""
    monkeypatch.setattr(experiment, "DECOMP", experiment.benchmark_decomposition())
    applied = []
    apply_factors = poly.apply_factors
    monkeypatch.setattr(poly, "apply_factors", lambda f, v: applied.append(len(f)) or apply_factors(f, v))
    return applied
