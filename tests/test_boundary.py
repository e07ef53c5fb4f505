"""The CLI's boundary contract, as a property over generated ``mds`` inputs (derandomized, see conftest).

Whatever the delta, weights and x0 files hold, ``qdescent mds`` either runs or refuses:
- exit 0 or 2: the output parses and stderr is empty;
- exit 1: stdout is empty, and stderr holds usage lines and one ``error:`` line;
and no exception escapes ``main`` and no warning is raised.  ``--hypothesis-profile long`` draws more examples.
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
    """({flag: matrix}, {flag: "csv" or "json"}, the other arguments) for one ``qdescent mds`` run."""
    n = draw(st.integers(1, 4))
    size = st.one_of(st.just(n), st.integers(1, 5))  # another size disagrees with delta
    files = {"--delta": draw(matrices(n, n, pair=True))}
    if draw(st.booleans()):
        k = draw(size)
        files["--weights"] = draw(matrices(k, k, pair=True))
    if draw(st.booleans()):
        files["--x0"] = draw(matrices(draw(size), draw(st.integers(1, 3)), pair=False))
    formats = {flag: draw(st.sampled_from(["csv", "json"])) for flag in files}
    args = ["--max-iters", str(draw(st.integers(1, 8))), "--format", draw(st.sampled_from(["csv", "json"]))]
    if "--x0" not in files:
        args += ["--seed", str(draw(st.integers(0, 3)))]
    return files, formats, args


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
    if code == 1:
        assert out == ""
        lines = err.splitlines()
        assert err.endswith("\n") and lines[-1].startswith("error: ")
        assert all(line.startswith(("usage: ", " ")) for line in lines[:-1]), err
        return
    assert code in (0, 2) and err == "", (code, err)
    csv_text, summary_text = out[: out.index("{")], out[out.index("{"):]
    summary = json.loads(summary_text)
    assert summary["converged"] is (code == 0)
    assert math.isfinite(summary["final_stress"])
    if "json" not in args:  # --format csv, the default, writes the trace before the summary
        header, *rows = csv_text.splitlines()
        assert header == "iter,stress" and len(rows) == summary["iterations"] + 1
        assert all(math.isfinite(float(row.split(",")[1])) for row in rows)
