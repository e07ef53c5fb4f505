"""The CLI's boundary contract, as properties over generated inputs (derandomized, see conftest).

Whatever the files and flag values hold, ``qdescent`` either runs or refuses:
- exit 0 or 2: the output parses and stderr is empty;
- exit 1: stdout is empty, and stderr holds usage lines and one ``error:`` line;
and no exception escapes ``main`` and no warning is raised.  One property draws ``mds`` runs with
delta, weights and x0 files; the other draws ``optimize``, ``estimate-coeffs`` and ``repro`` runs
with problem files and odd flag values.  ``--hypothesis-profile long`` draws more examples.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import OVERFLOW_PAIRS
from qdescent.cli import main

ORDINARY = st.floats(0.0, 4.0)
# huge, tiny, negative and non-finite entries
ODD = st.sampled_from([0.0, -1.0, 1e308, -1e308, 1e200, 1e100, 5e-324, 1e-300, math.nan, math.inf, -math.inf])
# odd flag values: a NaN, numbers past the float range or below its normal one, literals that int or float
# reads only in part or not at all, an Arabic-Indic digit one, and the empty string
ODD_FLAG = st.sampled_from(["nan", "1e400", "5e-324", "0x10", "1_0", "١", ""])


@st.composite
def matrices(draw, rows: int, cols: int, pair: bool):
    """A rows x cols matrix as nested lists, in half the draws with odd entries among the ordinary ones,
    a pair matrix symmetric with a zero diagonal; then perhaps one entry set anywhere or negated
    (asymmetric, or off the diagonal rule), or one row cut short."""
    entries = ORDINARY | ODD if draw(st.booleans()) else ORDINARY
    m = [[draw(entries) for _ in range(cols)] for _ in range(rows)]
    if pair:
        m = [[0.0 if i == j else m[min(i, j)][max(i, j)] for j in range(cols)] for i in range(rows)]
    spoil = draw(st.sampled_from(["none", "none", "none", "entry", "negate", "short"]))
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    if spoil == "entry":
        m[i][j] = draw(ORDINARY | ODD)
    elif spoil == "negate":
        m[i][j] = -m[i][j]
    elif spoil == "short":
        m[i] = m[i][:-1]
    return m


@st.composite
def mds_runs(draw):
    """({flag: matrix}, {flag: "csv" or "json"}, the other arguments) for one ``qdescent mds`` run, at most one
    of --eta, --tol, --max-iters, --dim and --seed with an odd value."""
    n = draw(st.integers(1, 4))
    size = st.one_of(st.just(n), st.integers(1, 5))  # another size disagrees with delta
    files = {"--delta": draw(matrices(n, n, pair=True))}
    if draw(st.booleans()):
        k = draw(size)
        files["--weights"] = draw(matrices(k, k, pair=True))
    if draw(st.booleans()):
        files["--x0"] = draw(matrices(draw(size), draw(st.integers(1, 3)), pair=False))
    formats = {flag: draw(st.sampled_from(["csv", "json"])) for flag in files}
    flags = {"--max-iters": str(draw(st.integers(1, 8)))}
    if "--x0" not in files:
        flags["--seed"] = str(draw(st.integers(0, 3)))
    odd = draw(st.sampled_from([None, None, "--eta", "--tol", "--max-iters", "--dim", "--seed"]))
    if odd is not None:
        flags[odd] = draw(ODD_FLAG)
    args = [token for pair in flags.items() for token in pair]
    return files, formats, [*args, "--format", draw(st.sampled_from(["csv", "json"]))]


def write(path, rows, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps(rows))  # NaN and Infinity as Python's json reads them
    else:
        path.write_text("".join(",".join(repr(v) for v in row) + "\n" for row in rows))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary")


def overflow_run(name: str):
    """A reproducer of conftest.OVERFLOW_PAIRS as one run: delta as JSON, the weights as CSV."""
    delta, w, _ = OVERFLOW_PAIRS[name]
    return {"--delta": delta.tolist(), "--weights": w.tolist()}, {"--delta": "json", "--weights": "csv"}, []


def refused(code, out, err) -> bool:
    """Whether a run refused its input, checked against the contract's exit 1; otherwise it must have
    run, exit 0 or 2 with an empty stderr."""
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert err.endswith("\n") and lines[-1].startswith("error: ")
        assert all(line.startswith(("usage: ", " ")) for line in lines[:-1]), err
        return True
    assert code in (0, 2) and err == "", (code, err)
    return False


def invoke(argv):
    """main(argv) with warnings as errors: the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(run=mds_runs())
@example(run=overflow_run("two-points-1e308"))
@example(run=overflow_run("three-points-weights-1e308"))
@example(run=overflow_run("delta-1e200-weights-1e100"))
@example(run=({"--delta": [[0.0, -1e308], [1e308, 0.0]]}, {"--delta": "csv"}, []))  # a - a.T overflows
def test_mds_meets_the_cli_contract(run, folder):
    files, formats, args = run
    argv = ["mds", *args]
    for flag, rows in files.items():
        path = folder / f"{flag[2:]}.{formats[flag]}"
        write(path, rows, formats[flag])
        argv += [flag, str(path)]
    code, out, err = invoke(argv)
    if refused(code, out, err):
        return
    csv_text, summary_text = out[: out.index("{")], out[out.index("{"):]
    summary = json.loads(summary_text)
    assert summary["converged"] is (code == 0)
    assert math.isfinite(summary["final_stress"])
    if "json" not in args:  # --format csv, the default, writes the trace before the summary
        header, *rows = csv_text.splitlines()
        assert header == "iter,stress" and len(rows) == summary["iterations"] + 1
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)


# odd JSON values for a problem field: booleans, strings, null, nested lists, huge, negative and fractional numbers
ODD_JSON = st.sampled_from([True, False, "2", "", None, [], [2], [[1]], {}, 10**400, 1e308, -1e308, math.inf, math.nan,
                            -2, 0, 1, 3, 0.5, 2.5, 5e-324])


def malformed_factor(draw, qubits: int):
    """A factor no problem can hold: a Pauli label over IXYZ-xy + or of another width, a dense list of
    [re, im] pairs with an odd entry, an odd pair or one pair short, or an odd value."""
    kind = draw(st.sampled_from(["pauli", "dense", "odd"]))
    if kind == "pauli":
        return {"pauli": draw(st.text("IXYZ-xy +", max_size=3))}
    if kind == "dense":
        pairs = [[int(i == j), 0] for i in range(2**qubits) for j in range(2**qubits)]
        spoil = draw(st.sampled_from(["entry", "pair", "short"]))
        if spoil == "entry":
            pairs[draw(st.integers(0, len(pairs) - 1))][draw(st.integers(0, 1))] = draw(ODD_JSON)
        elif spoil == "pair":
            pairs[draw(st.integers(0, len(pairs) - 1))] = draw(st.sampled_from([[1], [1, 0, 0], "10", None, True]))
        else:
            pairs = pairs[1:]
        return {"dense": pairs}
    return draw(ODD_JSON)


def factor(draw, qubits: int):
    """A Pauli label such as "-XZ" of the problem's width, or the dense [re, im] pairs of a diagonal of signs."""
    if draw(st.booleans()):
        return {"pauli": draw(st.sampled_from(["", "-"])) + draw(st.text("IXYZ", min_size=qubits, max_size=qubits))}
    dim = 2**qubits
    return {"dense": [[draw(st.sampled_from([1, -1, 1.0])) if i == j else 0, 0] for i in range(dim) for j in range(dim)]}


@st.composite
def problems(draw):
    """A problem file's dict: K terms of p factors on 1 or 2 qubits, then perhaps one field, term or factor
    spoiled, or one field left out."""
    qubits, p, k = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    problem = {"dim": 2**qubits, "p": p, "prefactor": draw(st.sampled_from([0.5, -1.0, 2])),
               "terms": [[factor(draw, qubits) for _ in range(p)] for _ in range(k)]}
    spoil = draw(st.sampled_from(["none", "none", "none", "value", "missing", "term", "factor", "factor"]))
    field = draw(st.sampled_from(sorted(problem)))
    if spoil == "value":
        problem[field] = draw(ODD_JSON)
    elif spoil == "missing":
        del problem[field]
    elif spoil == "term":
        problem["terms"][draw(st.integers(0, k - 1))] = draw(ODD_JSON)
    elif spoil == "factor":
        problem["terms"][draw(st.integers(0, k - 1))][draw(st.integers(0, p - 1))] = malformed_factor(draw, qubits)
    return problem


@st.composite
def problem_runs(draw):
    """(problem dict or None, the arguments) for one ``optimize``, ``estimate-coeffs`` or ``repro`` run, each
    flag left out or given an ordinary value, but for at most one, which takes an odd value; --max-iters
    stays at most 4."""
    command = draw(st.sampled_from(["optimize", "estimate-coeffs", "repro"]))
    flags = {"--seed": ["0", "7"], "--mode": ["exact", "sampled"]}
    if command != "estimate-coeffs":
        flags.update({"--eta": ["0.5", "1", "0.25"], "--threshold": ["1e-3", "0.5"], "--noise": ["0", "0.05"],
                      "--format": ["csv", "json"]})
    if command != "repro":
        flags.update({"--shots": ["1", "64"], "--x0": ["0.6,0.8", "1,0", "-0.6,0.8", "0.5,0.5,0.5,0.5",
                                                        "1e200,-1,1e-200,0", "-1,1e-200,0,1"]})
    odd = draw(st.sampled_from([None, None, *flags]))
    args = [command]
    for name, ordinary in flags.items():
        if name == odd:
            args += [name, draw(ODD_FLAG)]
        elif name == "--x0" or draw(st.booleans()):  # --x0 is required
            args += [name, draw(st.sampled_from(ordinary))]
    if command != "estimate-coeffs":
        args += ["--max-iters", str(draw(st.integers(1, 4)))]
    return None if command == "repro" else draw(problems()), args


def finite_rows(lines) -> None:
    """CSV lines: a header, then rows of its width whose fields are empty, a case name or a finite number."""
    header, *rows = lines
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(header.split(",")), row
        assert all(f in ("", "s1", "s2") or math.isfinite(float(f)) for f in fields), row


def strict_json(text: str):
    def refuse(constant):
        raise AssertionError(f"{constant} in the summary")
    return json.loads(text, parse_constant=refuse)


@given(run=problem_runs())
@example(run=({"dim": 2, "p": 1, "terms": [[{"dense": [[1e308, 0], [0, 0], [0, 0], [1, 0]]}]]},
              ["optimize", "--x0", "0.6,0.8", "--max-iters", "1"]))  # its unitarity check overflows
def test_problem_commands_meet_the_cli_contract(run, folder):
    problem, argv = run
    if problem is not None:
        path = folder / "problem.json"
        path.write_text(json.dumps(problem))  # NaN and Infinity as Python's json reads them
        argv = [argv[0], "--problem", str(path), *argv[1:]]
    code, out, err = invoke(argv)
    if refused(code, out, err):
        return
    lines = out.splitlines()
    if argv[0] == "estimate-coeffs":  # the coefficient table, then beta and perhaps max_abs_dev
        assert code == 0 and lines[0].startswith("m,alpha,j,")
        table = [line for line in lines if not line.startswith(("beta,", "max_abs_dev,"))]
        finite_rows(table)
        assert all(math.isfinite(float(line.split(",")[1])) for line in lines[len(table):])
        return
    summary = strict_json("\n".join(lines[lines.index("{"):]))
    rows = [line for line in lines[: lines.index("{")] if not line.startswith(("s1 overlaps: ", "s2 overlaps: "))]
    if rows:
        finite_rows(rows)
    converged = [summary["converged"]] if argv[0] == "optimize" else [case["converged"] for case in summary.values()]
    assert all(converged) is (code == 0)
