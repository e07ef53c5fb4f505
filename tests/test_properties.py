"""Property tests over Pauli strings, the circuit, the oracle and the input boundaries
(derandomized, see conftest)."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import OVERFLOW_PAIRS, aligned, kron_pauli, random_decomposition, random_point, random_symmetric_unitary
from qdescent import lcu
from qdescent.errors import DegenerateStepError, PostselectionError, PurificationError
from qdescent.lcu import RegisterLayout, estimate_b, optimize, run_iteration
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
from qdescent import poly
from qdescent.poly import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PauliStrings,
    Point,
    TensorDecomposition,
    UnitaryFactor,
    apply_factors,
    classical_iterate,
    coefficients,
    decomposition_from_dict,
    factor_matrices,
    pauli_decompose,
)
from qdescent.sim import HADAMARD

signed_labels = st.tuples(st.sampled_from(["", "-"]), st.text(alphabet="IXYZ", min_size=1, max_size=6))


@given(signed_labels, st.integers(0, 2**32 - 1))
def test_pauli_string_is_the_kron_product(signed, seed):
    label = "".join(signed)
    string, ref = PauliStrings([label]), kron_pauli(label)
    assert np.array_equal(factor_matrices(string, len(ref)), [ref])
    v = np.random.default_rng(seed).standard_normal((len(ref), 2)) @ np.array([1, 1j])
    assert np.max(np.abs(apply_factors(string, v) - ref @ v)) <= 1e-15


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
    matrices = factor_matrices(table, table.cols.shape[1])
    for k, string in enumerate(strings):
        applied = apply_factors(table, rows[k])
        assert applied[k].tobytes() == apply_factors(string, rows[k])[0].tobytes()
        assert np.max(np.abs(applied[k] - matrices[k] @ rows[k])) <= 1e-15


@given(same_width_labels())
def test_a_table_from_digits_is_the_parsed_table(labels):
    bodies = [label.removeprefix("-") for label in labels]
    digits = np.array([["IXYZ".index(ch) for ch in body] for body in bodies])
    table, parsed = PauliStrings.from_digits(digits), PauliStrings(bodies)
    assert table.labels == parsed.labels and table == parsed
    assert table.cols.tobytes() == parsed.cols.tobytes() and table.phase.tobytes() == parsed.phase.tobytes()
    # the parser reads signed labels as digits plus negations, then builds through the same routine
    signed = PauliStrings(labels)
    cols, phase = poly._digit_tables(digits, np.array([len(lbl) - len(body) for lbl, body in zip(labels, bodies)]))
    assert signed.cols.tobytes() == cols.tobytes() and signed.phase.tobytes() == phase.tobytes()


def tensordot_decompose(m):
    """Every Pauli weight of m by one np.tensordot per qubit against the stacked sigma^T / 2, the
    contraction that pauli_decompose's np.dot must round like, keyed by label when above 1e-12."""
    q = len(m).bit_length() - 1
    half_t = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]).transpose(0, 2, 1) / 2
    t = np.asarray(m, dtype=complex).reshape((2,) * (2 * q)).transpose(np.arange(2 * q).reshape(2, q).T.ravel())
    for _ in range(q):
        t = np.tensordot(t, half_t, axes=([0, 1], [1, 2]))
    labels = map("".join, itertools.product("IXYZ", repeat=q))
    return {label: w for label, w in zip(labels, t.reshape(-1).real.tolist()) if abs(w) > 1e-12}


@given(st.integers(1, 7), st.floats(0.02, 1.0), st.integers(0, 2**32 - 1))
def test_pauli_decompose_is_the_tensordot_contraction_bit_for_bit(q, density, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2**q, 2**q)) * (rng.random((2**q, 2**q)) < density)  # sparse at low density
    m = a + a.T
    comps, expected = pauli_decompose(m), tensordot_decompose(m)
    assert list(comps) == list(expected)
    assert np.array(list(comps.values())).tobytes() == np.array(list(expected.values())).tobytes()


def scaled_start_estimate_b(decomp, x, shots=None, seed=None):
    """estimate_b as the start vector scaled by one Hadamard entry per select qubit, then the table
    applied to it: the order that taking the factor pass's images first must reproduce."""
    start = x.coords
    for _ in range(RegisterLayout.for_problem(decomp.flat_count, decomp.dim).t1):
        start = HADAMARD[0, 0].real * start
    branches = apply_factors(decomp.factors, start)
    norms = np.sqrt(np.sum(np.abs(branches) ** 2, axis=1))
    rng = np.random.default_rng(seed)
    out = []
    for branch, norm in zip(branches, norms):
        exact = complex(x.coords @ (branch / norm)).real
        if shots is not None:
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
    sampled = estimate_b(decomp, x, shots=shots, seed=seed)
    assert sampled.tobytes() == scaled_start_estimate_b(decomp, x, shots, seed).tobytes()


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


def completed_lcu_step(images, c, x_vec, eta):
    """run_lcu_step with its prepare unitaries completed: v0 and V are whole
    complete_from_first_column matrices, whose transposes un-prepare multiplies."""
    n, k = len(x_vec), len(images)
    layout = RegisterLayout.for_problem(k, n)
    prep = lcu.build_prepare(c, eta)
    v0, v = lcu.complete_from_first_column(prep.v0_column), lcu.complete_from_first_column(prep.column)
    state = np.zeros((2, 2**layout.t1, n), dtype=images.dtype)
    state[0, 0] = v0[0, 0] * x_vec
    select = state[1, :k]
    np.multiply(v0[1, 0], images, out=select)
    select *= (prep.signs * v[:k, 0])[:, None]
    state[1, 0] = (v.T @ state[1])[0]
    kept = (v0.T @ state[:, 0])[0]
    prob = float((np.abs(kept) ** 2).sum())
    vec = np.ascontiguousarray((kept / np.sqrt(prob)).real)
    return vec / math.sqrt(vec @ vec), min(prob, 1.0)


@st.composite
def select_widths(draw, t1, pauli):
    """A decomposition of K*p factors for select width t1, real dense reflections or one
    complex Pauli table, with a point and a step."""
    k = draw(st.integers(2 ** (t1 - 1) + 1, 2**t1)) if t1 else 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if pauli:
        q = draw(st.integers(1, 3))
        body = st.text(alphabet="IXYZ", min_size=q, max_size=q).filter(lambda b: b.count("Y") % 2 == 0)
        terms = [[draw(st.sampled_from(["", "-"])) + draw(body)] for _ in range(k)]
        n = 2**q
    else:
        n = draw(st.sampled_from([2, 3, 4, 8]))
        terms = [[UnitaryFactor(random_symmetric_unitary(rng, n))] for _ in range(k)]
    decomp = TensorDecomposition(dim=n, order_p=1, terms=terms,
                                 prefactor=draw(st.floats(0.3, 1.5)) * draw(st.sampled_from([-1.0, 1.0])))
    return decomp, random_point(rng, n), draw(st.floats(0.05, 2.0))


@pytest.mark.parametrize("pauli", [False, True], ids=["dense", "pauli"])
@pytest.mark.parametrize("t1", [0, 1, 2, 3])
@settings(max_examples=15)
@given(data=st.data())
def test_the_first_column_step_is_the_completed_step_bit_for_bit(t1, pauli, data):
    # post-selection reads row 0 of V^T and v0^T, which is their first column: the step's
    # 2-row products, with zeros below that row, round as the completed matrices did
    decomp, x, eta = data.draw(select_widths(t1, pauli))
    assert RegisterLayout.for_problem(decomp.flat_count, decomp.dim).t1 == t1
    coeffs = coefficients(decomp, x)
    try:
        vec, prob = lcu.run_lcu_step(coeffs.images, coeffs.c, x.coords, eta)
    except DegenerateStepError:
        assume(False)
    want, want_prob = completed_lcu_step(coeffs.images, coeffs.c, x.coords, eta)
    assert vec.tobytes() == want.tobytes()
    assert np.float64(prob).tobytes() == np.float64(want_prob).tobytes()
    completed = []
    with pytest.MonkeyPatch.context() as mp:
        complete = lcu.complete_from_first_column
        mp.setattr(lcu, "complete_from_first_column", lambda col: completed.append(col) or complete(col))
        for kwargs in ({}, {"shots": 100, "seed": 1, "noise_eps": 0.1}):
            try:
                optimize(decomp, x, eta=eta, max_iters=3, **kwargs)
            except (DegenerateStepError, PostselectionError, PurificationError):
                pass  # a later point may stop the run; the count holds up to there
    assert completed == []


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

    def as_json(prefactor):
        """decomp as a problem file holds it, every factor dense."""
        return {"dim": decomp.dim, "p": decomp.order_p, "prefactor": prefactor,
                "terms": [[{"dense": [[v, 0.0] for v in f.matrix.ravel().tolist()]} for f in term]
                          for term in decomp.terms]}

    bad_factor = as_json(decomp.prefactor)
    dense = bad_factor["terms"][0][0]["dense"]
    dense[rng.integers(len(dense))][rng.integers(2)] = bad
    mds_inputs = [distances(rng.standard_normal((n, 2))), Weights.uniform(n).w, rng.standard_normal((n, 2))]
    x = random_point(rng, decomp.dim)
    coeffs = coefficients(decomp, x)
    checks = [
        lambda: lcu.run_lcu_step(spoiled(coeffs.images), coeffs.c, x.coords, 0.5),
        lambda: lcu.run_lcu_step(coeffs.images, coeffs.c, spoiled(x.coords), 0.5),
        lambda: pauli_decompose(spoiled(mds_inputs[0])),
        lambda: Point(spoiled(random_point(rng, n).coords)),
        lambda: UnitaryFactor(spoiled(random_symmetric_unitary(rng, n))),
        lambda: TensorDecomposition(dim=2, order_p=1, terms=[["X"]], prefactor=bad),
        lambda: decomposition_from_dict(bad_factor),
        lambda: decomposition_from_dict(as_json(bad)),
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
    for delta, w, message in OVERFLOW_PAIRS.values():  # finite entries whose stress arithmetic overflows
        x = rng.standard_normal((len(delta), 2))
        calls = [lambda f=f: f(delta, w, x) for f in (mds_optimize, stress, lcu_column_demo, b_matrix, d_matrix,
                                                       descent_operator)]
        if message.startswith("weights"):  # c_matrix takes the weights alone
            calls.append(lambda: c_matrix(w))
        for call in calls:
            with warnings.catch_warnings(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                warnings.simplefilter("error")
                call()


@given(st.sampled_from([2, 3, 4, 5, 8]), st.floats(0.0, 1.0 - 1e-9, exclude_min=True), st.integers(0, 2**32 - 1))
def test_the_noise_round_keeps_the_exact_point_and_the_closed_form_fidelity(n, eps, seed):
    # depolarizing |y><y| leaves y the dominant eigenvector, so purification recovers the noiseless point;
    # N = 3 and 5 pad y into d = 2^n_work.  An eigenvector rounds to about 1e-16 over its eigenvalue gap,
    # here 1 - eps, so the tolerance widens as eps nears 1; at eps = 1 the gap is 0 and purification fails
    rng = np.random.default_rng(seed)
    decomp = random_decomposition(rng, dims=(n,))
    x = random_point(rng, n)
    d = 2 ** RegisterLayout.for_problem(decomp.flat_count, n).n_work
    exact, = optimize(decomp, x, max_iters=1)
    noisy, = optimize(decomp, x, noise_eps=eps, max_iters=1)
    assert np.max(np.abs(noisy.point.coords - exact.point.coords)) <= 1e-12 + 1e-15 / (1.0 - eps)
    want = ((1 - eps) + eps / d) / math.sqrt((1 - eps) ** 2 + 2 * eps * (1 - eps) / d + eps**2 / d)
    assert abs(noisy.fidelity - want) <= 1e-12
    with pytest.raises(PurificationError, match="top eigenvalue degenerate"):
        optimize(decomp, x, noise_eps=1.0, max_iters=1)


finite_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-1e-300, 1e-300), st.sampled_from([5e-324, -2.5e-310, 1e300, -1e300]))


@given(arrays(np.float64, st.integers(1, 300), elements=finite_floats), st.integers(1, 4))
def test_method_reductions_and_dot_norm_are_numpys_wrappers_bit_for_bit(v, cols):
    # the step's reductions call the ndarray methods, and its norms of real contiguous vectors
    # are sqrt(v @ v), numpy's own formula; both must keep every output byte
    def same(a, b):
        return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()

    b = v[: len(v) // cols * cols].reshape(-1, cols)
    with np.errstate(over="ignore"):
        assert same(math.sqrt(v @ v), np.linalg.norm(v))
        assert same(v.sum(), np.sum(v)) and same(v.max(), np.max(v))
        assert same(b.prod(axis=1), np.prod(b, axis=1))


def random_hermitian_unitary(rng, n):
    """A random complex Hermitian unitary, whose quadratic form on a real vector is real."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return (q * rng.choice([-1.0, 1.0], size=n)) @ q.conj().T


@st.composite
def factor_pass_problems(draw):
    """A decomposition of dense real, dense complex, Pauli or mixed factors (dense dims need not be
    powers of two), and a point."""
    kind = draw(st.sampled_from(["real", "complex", "pauli", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, p, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 3, 5, 6, 8])) if kind in ("real", "complex") else 2**q
    label = st.text(alphabet="IXYZ", min_size=q, max_size=q).filter(lambda b: b.count("Y") % 2 == 0)

    def factor():
        if kind == "pauli" or kind == "mixed" and draw(st.booleans()):
            return draw(st.sampled_from(["", "-"])) + draw(label)
        hermitian = kind == "complex" or kind == "mixed" and draw(st.booleans())
        return UnitaryFactor((random_hermitian_unitary if hermitian else random_symmetric_unitary)(rng, n))

    terms = [[factor() for _ in range(p)] for _ in range(k)]
    prefactor = draw(st.floats(0.3, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
    return TensorDecomposition(dim=n, order_p=p, terms=terms, prefactor=prefactor), random_point(rng, n)


@st.composite
def sampled_estimate_cases(draw):
    """A factor-pass problem at its random point or at a basis vector, where a Pauli quotient is +-1 or 0."""
    decomp, x = draw(factor_pass_problems())
    if draw(st.booleans()):
        x = Point(np.eye(decomp.dim)[draw(st.integers(0, decomp.dim - 1))])
    return decomp, x


def per_row_estimate_b(decomp, x, shots, seed):
    """Sampled estimate_b with one scalar binomial draw per row, in row order, from one generator."""
    _, branches = poly._factor_pass(decomp, x.coords)
    for _ in range(RegisterLayout.for_problem(decomp.flat_count, decomp.dim).t1):
        branches = HADAMARD[0, 0].real * branches
    norms = np.sqrt(np.sum(np.abs(branches) ** 2, axis=1))
    rng = np.random.default_rng(seed)
    out = np.empty(decomp.flat_count)
    for m, branch in enumerate(branches):
        exact = complex(x.coords @ (branch / norms[m])).real
        k = rng.binomial(shots, min(max(exact * exact, 0.0), 1.0))
        out[m] = math.copysign(math.sqrt(k / shots), exact)
    return out.reshape(decomp.num_terms, decomp.order_p)


@pytest.mark.parametrize("shots", [1, 1000, 2**53 + 1, 2**63 - 1])
@given(sampled_estimate_cases(), st.integers(0, 2**32 - 1))
@example((TensorDecomposition(dim=2, order_p=2, terms=[["-I", "X"], ["X", "Z"]]), Point([1.0, 0.0])), 5)
def test_sampled_estimate_b_is_the_per_row_draw_loop_bit_for_bit(shots, case, seed):
    # the example's b is -1, 0, 0, 1, so its draws have p = 1 and p = 0
    decomp, x = case
    sampled = estimate_b(decomp, x, shots=shots, seed=seed)
    assert sampled.tobytes() == per_row_estimate_b(decomp, x, shots, seed).tobytes()


def broadcast_rows_formula(factors, v):
    """The factors applied to K broadcast rows of v, row m by factor m: a gather indexed by row
    number for a table, one matvec per row for dense factors."""
    if isinstance(factors, PauliStrings):
        return factors.phase * np.broadcast_to(v, factors.cols.shape)[np.arange(len(factors))[:, None], factors.cols]
    return np.array([f.matrix @ row for f, row in zip(factors, np.broadcast_to(v, (len(factors), len(v))))])


@given(factor_pass_problems())
def test_the_factor_pass_is_the_broadcast_formula_bit_for_bit(problem):
    # the pass applies the factors to x itself and casts x once; the broadcast rows and one v @ y
    # per row must give the same bytes, and c is each term's other quotients times s, in order
    decomp, x = problem
    v, (k, p), n = x.coords, (decomp.num_terms, decomp.order_p), decomp.dim
    ys = broadcast_rows_formula(decomp.factors, v)
    b = np.array([(v @ y).real for y in ys]).reshape(k, p)
    c = [math.prod((b[a, i] for i in range(p) if i != j), start=decomp.prefactor) for a in range(k) for j in range(p)]
    got = coefficients(decomp, x)
    assert got.images.dtype == ys.dtype and got.images.tobytes() == ys.tobytes()
    assert got.b.tobytes() == b.tobytes() and got.c.tobytes() == np.array(c).tobytes()
    columns = [broadcast_rows_formula(decomp.factors, e) for e in np.eye(n)]
    assert factor_matrices(decomp.factors, n).tobytes() == np.stack(columns, axis=2).tobytes()
