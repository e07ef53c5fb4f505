import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import count_applications
from qdescent import cli, experiment, lcu, sim
from qdescent.cli import main
from qdescent.mds import distances
from qdescent.poly import Point

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text((GOLDEN / "problem.json").read_text())  # the benchmark problem
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(
        {"dim": 2, "p": 1, "prefactor": 1.0, "terms": [[{"pauli": "I"}]]}))
    return str(path)


@pytest.fixture
def square_delta_file(tmp_path):
    path = tmp_path / "delta.csv"
    rows = [",".join(repr(float(v)) for v in row) for row in distances(SQUARE)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def read_json(base):
    with open(base + ".json") as fh:
        return json.load(fh)


def test_optimize_converges_to_minimum(problem_file, tmp_path):
    base = str(tmp_path / "run")
    code = main(["optimize", "--problem", problem_file, "--x0", "0.86,0.50",
                 "--out", base])
    assert code == 0
    summary = read_json(base)
    assert summary["converged"] is True
    assert abs(summary["final_f"] - (-3 * np.sqrt(3) / 8)) <= 1e-3
    with open(base + ".csv") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "iter,x0,x1,f,success_prob,overlap"
    assert len(lines) == summary["iterations"] + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[5] == ""  # no reference point, overlap column stays empty
    float(first[1]), float(first[2]), float(first[3]), float(first[4])


def test_optimize_json_format_embeds_trajectory(problem_file, tmp_path):
    import os
    base = str(tmp_path / "jrun")
    code = main(["optimize", "--problem", problem_file, "--x0", "0.86,0.50",
                 "--format", "json", "--out", base])
    assert code == 0
    assert not os.path.exists(base + ".csv")
    summary = read_json(base)
    assert summary["trajectory"][0]["iter"] == 1
    assert len(summary["trajectory"]) == summary["iterations"]


def test_optimize_stdout_without_out(problem_file, capsys):
    code = main(["optimize", "--problem", problem_file, "--x0", "0.86,0.50"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("iter,x0,x1,f,success_prob,overlap\n")
    assert '"converged": true' in out


def test_optimize_budget_exhaustion_returns_2(problem_file, tmp_path):
    base = str(tmp_path / "short")
    code = main(["optimize", "--problem", problem_file, "--x0=-0.38,0.92",
                 "--eta", "0.5", "--max-iters", "2", "--out", base])
    assert code == 2
    assert read_json(base)["converged"] is False


def test_optimize_identity_problem_half_step(identity_file, tmp_path):
    # with D = I a half step rescales x and normalization restores it, so the
    # run converges after a single iteration
    base = str(tmp_path / "ident")
    code = main(["optimize", "--problem", identity_file, "--x0", "1,0",
                 "--eta", "0.5", "--out", base])
    assert code == 0
    summary = read_json(base)
    assert summary["iterations"] == 1
    assert np.allclose(summary["final_point"], [1.0, 0.0], atol=1e-12)


def test_optimize_identity_problem_full_step_annihilates(identity_file, capsys):
    code = main(["optimize", "--problem", identity_file, "--x0", "1,0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_optimize_rejects_bad_inputs(problem_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "p"')
    assert main(["optimize", "--problem", str(bad), "--x0", "1,0"]) == 1
    assert main(["optimize", "--problem", str(tmp_path / "nope.json"), "--x0", "1,0"]) == 1
    assert main(["optimize", "--problem", problem_file, "--x0", "1,0,0"]) == 1
    capsys.readouterr()


def test_parse_errors_exit_1(problem_file):
    assert main([]) == 1
    assert main(["optimize"]) == 1  # missing required flags
    assert main(["repro", "--case", "s3"]) == 1
    assert main(["optimize", "--problem", problem_file, "--x0", "1,0",
                 "--mode", "weird"]) == 1


def test_repro_both_cases(tmp_path, capsys):
    base = str(tmp_path / "repro")
    code = main(["repro", "--out", base])
    assert code == 0
    out = capsys.readouterr().out
    assert "s1 overlaps:" in out and "s2 overlaps:" in out
    summary = read_json(base)
    for case in ("s1", "s2"):
        assert summary[case]["converged"] is True
        assert summary[case]["final_overlap"] >= 0.999
        assert summary[case]["iterations"] <= 8
    with open(base + ".csv") as fh:
        header = fh.readline().strip()
    assert header == "iter,case,x1,x2,f,overlap,success_prob"


def test_repro_single_case_small_step(tmp_path, capsys):
    base = str(tmp_path / "slow")
    code = main(["repro", "--case", "s2", "--eta", "0.1", "--max-iters", "40",
                 "--out", base])
    assert code == 0
    assert read_json(base)["s2"]["iterations"] <= 40
    capsys.readouterr()


def test_repro_budget_exhaustion(tmp_path, capsys):
    base = str(tmp_path / "tight")
    code = main(["repro", "--case", "s1", "--eta", "0.1", "--max-iters", "3",
                 "--out", base])
    assert code == 2
    capsys.readouterr()


def test_repro_noise_runs_are_reproducible(tmp_path, capsys):
    base_a = str(tmp_path / "a")
    base_b = str(tmp_path / "b")
    for base in (base_a, base_b):
        assert main(["repro", "--case", "s1", "--noise", "0.05", "--seed", "3",
                     "--out", base]) == 0
    capsys.readouterr()
    with open(base_a + ".csv") as fh:
        text_a = fh.read()
    with open(base_b + ".csv") as fh:
        text_b = fh.read()
    assert text_a == text_b


def test_repro_sampled_mode_deterministic(tmp_path, capsys):
    base_a = str(tmp_path / "sa")
    base_b = str(tmp_path / "sb")
    for base in (base_a, base_b):
        main(["repro", "--case", "s2", "--mode", "sampled", "--seed", "11",
              "--out", base])
    capsys.readouterr()
    with open(base_a + ".csv") as fh:
        text_a = fh.read()
    with open(base_b + ".csv") as fh:
        text_b = fh.read()
    assert text_a == text_b


def test_mds_square_from_random_start(square_delta_file, tmp_path, capsys):
    # stress descent is multimodal; this seed starts inside the global basin
    base = str(tmp_path / "mds")
    code = main(["mds", "--delta", square_delta_file, "--seed", "2",
                 "--out", base])
    assert code == 0
    summary = read_json(base)
    assert summary["final_stress"] <= 1e-3
    assert np.asarray(summary["coordinates"]).shape == (4, 2)
    with open(base + ".csv") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "iter,stress"
    assert len(lines) == summary["iterations"] + 2
    capsys.readouterr()


def test_mds_perfect_start_stops_immediately(square_delta_file, tmp_path, capsys):
    x0 = tmp_path / "x0.csv"
    x0.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in SQUARE) + "\n")
    base = str(tmp_path / "perfect")
    code = main(["mds", "--delta", square_delta_file, "--x0", str(x0),
                 "--out", base])
    assert code == 0
    summary = read_json(base)
    assert summary["final_stress"] == 0.0
    assert summary["iterations"] == 1
    capsys.readouterr()


def test_mds_json_matrix_input(tmp_path, capsys):
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps(distances(SQUARE).tolist()))
    base = str(tmp_path / "jmds")
    assert main(["mds", "--delta", str(delta), "--seed", "2", "--out", base]) == 0
    assert read_json(base)["final_stress"] <= 1e-3
    capsys.readouterr()


@pytest.mark.parametrize("flag, entry, named", [
    ("--delta", "1", "'--delta entry' must be a number, not '1'"),
    ("--weights", True, "'--weights entry' must be a number, not True"),
    ("--x0", {"a": 1}, "'--x0 entry' must be a number, not {'a': 1}"),
    ("--x0", 10**400, "--x0 entry past the float range: int too large to convert to float"),
], ids=["string", "boolean", "object", "huge-int"])
def test_mds_json_matrix_takes_json_numbers_only(flag, entry, named, tmp_path, capsys):
    matrices = {"--delta": distances(SQUARE), "--weights": 1.0 - np.eye(4), "--x0": SQUARE}
    rows = matrices[flag].tolist()
    rows[0][1] = entry
    path = tmp_path / "input.json"
    path.write_text(json.dumps(rows))
    inputs = {"--delta": str(GOLDEN / "square.csv"), flag: str(path)}
    assert main(["mds", "--seed", "1", *(token for pair in inputs.items() for token in pair)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {named}\n"


def test_mds_zero_weights_leave_stress_constant(square_delta_file, tmp_path, capsys):
    w = tmp_path / "w.csv"
    w.write_text("\n".join(",".join("0.0" for _ in range(4)) for _ in range(4)) + "\n")
    base = str(tmp_path / "zero")
    code = main(["mds", "--delta", square_delta_file, "--weights", str(w),
                 "--seed", "4", "--out", base])
    assert code == 0
    summary = read_json(base)
    assert summary["final_stress"] == 0.0
    assert summary["iterations"] == 1
    capsys.readouterr()


def test_mds_input_validation(square_delta_file, tmp_path, capsys):
    neg = tmp_path / "neg.csv"
    neg.write_text("0.0,-1.0\n-1.0,0.0\n")
    assert main(["mds", "--delta", str(neg)]) == 1
    wrong = tmp_path / "w3.csv"
    wrong.write_text("0,1,1\n1,0,1\n1,1,0\n")
    assert main(["mds", "--delta", square_delta_file, "--weights", str(wrong)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, matrix, message", [
    ("--weights", np.ones((3, 3)) - np.eye(3), "weights (3, 3) and configuration (4, 2) disagree"),
    ("--x0", np.zeros((3, 2)), "weights (4, 4) and configuration (3, 2) disagree"),
    ("--weights", np.eye(4) - 1.0, "weights entries must be nonnegative"),
    ("--x0", np.full((4, 2), np.inf), "configuration entries must be finite"),
], ids=["weights-3", "x0-3", "weights-negative", "x0-inf"])
def test_mds_weights_and_x0_files_are_checked_by_the_optimizer(flag, matrix, message, tmp_path, capsys):
    path = tmp_path / "input.csv"
    np.savetxt(path, matrix, delimiter=",")
    assert main(["mds", "--delta", str(GOLDEN / "square.csv"), flag, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")


def test_mds_seeded_runs_identical(square_delta_file, tmp_path, capsys):
    texts = []
    for name in ("r1", "r2"):
        base = str(tmp_path / name)
        assert main(["mds", "--delta", square_delta_file, "--seed", "9",
                     "--out", base]) == 0
        with open(base + ".csv") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1]
    capsys.readouterr()


def test_estimate_coeffs_exact_table(problem_file, capsys):
    code = main(["estimate-coeffs", "--problem", problem_file, "--x0", "1,1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "m,alpha,j,b_exact,M_alpha,c_m"
    assert len(lines) == 6  # header + 4 rows + beta line
    c_vals = [float(line.split(",")[5]) for line in lines[1:5]]
    assert np.allclose(c_vals, [0.5, -0.5, 0.0, 0.5], atol=1e-8)
    beta_line = lines[5].split(",")
    assert beta_line[0] == "beta"
    assert np.isclose(float(beta_line[1]), 2.5, atol=1e-8)


def test_estimate_coeffs_sampled_within_bounds(problem_file, capsys):
    code = main(["estimate-coeffs", "--problem", problem_file, "--x0", "0.6,0.8",
                 "--mode", "sampled", "--shots", "100000", "--seed", "123"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].endswith(",b_sampled,abs_dev,bound_4sigma")
    for line in lines[1:5]:
        parts = line.split(",")
        dev, bound = float(parts[7]), float(parts[8])
        assert dev <= bound + 1e-12
    assert lines[-1].startswith("max_abs_dev,")


def test_estimate_coeffs_sampled_deterministic(problem_file, capsys):
    outs = []
    for _ in range(2):
        main(["estimate-coeffs", "--problem", problem_file, "--x0", "0.6,0.8",
              "--mode", "sampled", "--shots", "5000", "--seed", "77"])
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_bytes_match_golden(name, capsys):
    # the golden files hold each invocation's stdout and exit code as captured
    # from the gate-by-gate implementation; refactors must keep them byte for byte,
    # and write nothing to stderr (a leaked warning included)
    case = GOLDEN_CASES[name]
    inputs = {"{problem}": str(GOLDEN / "problem.json"), "{square}": str(GOLDEN / "square.csv")}
    argv = [inputs.get(arg, arg) for arg in case["argv"]]
    assert main(argv) == case["exit"]
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.out").read_text()
    assert captured.err == ""


def test_one_parser_serves_every_call_of_a_process(monkeypatch, capsys):
    # main builds its parser on the first call and keeps it: no call's output may depend on
    # what ran before it in the process, parser state and factor-pass memos alike
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setenv("COLUMNS", "100")  # help wraps to the width read when it prints
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    inputs = {"{problem}": str(GOLDEN / "problem.json"), "{square}": str(GOLDEN / "square.csv")}
    golden = [(name, [inputs.get(arg, arg) for arg in case["argv"]]) for name, case in GOLDEN_CASES.items()]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    bad = run(["repro", "--case", "s3"])
    assert bad[:2] == (1, "") and "error: argument --case: invalid choice: 's3'" in bad[2]
    assert run(["repro"]) == (0, (GOLDEN / "repro.out").read_text(), "")
    help_text = run(["repro", "--help"])
    assert help_text[0] == 0 and help_text[1].startswith("usage: qdescent repro") and help_text[2] == ""
    for name, argv in golden + golden[::-1]:
        assert run(argv) == (GOLDEN_CASES[name]["exit"], (GOLDEN / f"{name}.out").read_text(), ""), name
    assert run(["repro", "--case", "s3"]) == bad
    assert run(["repro", "--help"]) == help_text
    assert built == [1]


@pytest.mark.parametrize("argv", [
    ["optimize", "--problem", "{problem}", "--x0", "0.86,0.50", "--eta", "nan"],
    ["optimize", "--problem", "{problem}", "--x0", "0.86,0.50", "--eta", "inf"],
    ["optimize", "--problem", "{problem}", "--x0", "0.86,0.50", "--threshold", "nan"],
    ["optimize", "--problem", "{problem}", "--x0", "nan,0.5"],
    ["repro", "--eta", "nan"],
    ["repro", "--threshold", "inf"],
    ["mds", "--delta", "{square}", "--seed", "2", "--eta", "nan"],
    ["mds", "--delta", "{square}", "--seed", "2", "--tol", "nan"],
    ["mds", "--delta", "{nan_delta}"],
    ["optimize", "--problem", "{inf_prefactor}", "--x0", "0.86,0.50"],
    ["optimize", "--problem", "{nan_prefactor}", "--x0", "0.86,0.50"],
    ["estimate-coeffs", "--problem", "{inf_prefactor}", "--x0", "0.86,0.50"],
])
def test_non_finite_input_exits_1(argv, tmp_path, capsys):
    nan_delta = tmp_path / "nan.csv"
    nan_delta.write_text("0.0,nan\nnan,0.0\n")
    problem = (GOLDEN / "problem.json").read_text()
    inputs = {"{problem}": str(GOLDEN / "problem.json"), "{square}": str(GOLDEN / "square.csv"),
              "{nan_delta}": str(nan_delta)}
    for name, value in (("inf_prefactor", "1e309"), ("nan_prefactor", "NaN")):
        path = tmp_path / f"{name}.json"
        path.write_text(problem.replace('"prefactor": 0.5', f'"prefactor": {value}'))
        inputs[f"{{{name}}}"] = str(path)
    assert main([inputs.get(arg, arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_mds_diverged_run_is_not_converged(tmp_path, capsys):
    # at 60 points the default step overshoots: stress rises and stops the
    # descent long before the budget runs out
    pts = np.random.default_rng(1).standard_normal((60, 2))
    delta = tmp_path / "d60.csv"
    delta.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in distances(pts)) + "\n")
    base = str(tmp_path / "diverged")
    assert main(["mds", "--delta", str(delta), "--seed", "0", "--out", base]) == 2
    summary = read_json(base)
    assert summary["converged"] is False
    assert summary["iterations"] < 200
    with open(base + ".csv") as fh:
        stresses = [float(line.split(",")[1]) for line in fh.read().strip().split("\n")[1:]]
    assert stresses[-1] > stresses[-2]
    capsys.readouterr()


def test_mds_stress_past_the_float_range_exits_1_without_a_summary(tmp_path, capsys):
    base = str(tmp_path / "overflow")
    for out in ([], ["--out", base]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise here
            assert main(["mds", "--delta", str(GOLDEN / "square.csv"), "--seed", "2", "--eta", "1e300", *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""  # no summary, so no "final_stress": Infinity
        assert captured.err == "error: stress is not finite after iteration 1 (lower --eta)\n"
    assert list(tmp_path.iterdir()) == []


def test_mds_start_past_the_float_range_names_the_start(tmp_path, capsys):
    x0 = tmp_path / "big.csv"
    np.savetxt(x0, 1e200 * np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), delimiter=",")
    base = str(tmp_path / "out")
    for out in ([], ["--out", base]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise here
            assert main(["mds", "--delta", str(GOLDEN / "square.csv"), "--x0", str(x0), *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: stress is not finite at the starting configuration (rescale --x0)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]


@pytest.mark.parametrize("flag", ["--delta", "--weights", "--x0"])
def test_mds_empty_csv_exits_1_with_only_the_error_line(flag, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    inputs = {"--delta": str(GOLDEN / "square.csv"), flag: str(empty)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" warning would raise here
        assert main(["mds", *(token for pair in inputs.items() for token in pair)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} file {empty} holds no numbers\n"


@pytest.mark.parametrize("argv", [
    ["--problem", str(GOLDEN / "problem.json"), "--x0", "0.6,0.8"],
    ["--problem", str(GOLDEN / "problem.json"), "--x0", "0.6,0.8", "--mode", "sampled", "--seed", "1"],
], ids=["exact", "sampled"])
def test_estimate_coeffs_makes_one_factor_pass(argv, monkeypatch, capsys):
    applied = count_applications(monkeypatch)
    assert main(["estimate-coeffs", *argv]) == 0
    assert applied == [4]
    capsys.readouterr()


def test_noisy_repro_builds_no_checked_state_and_one_factor_pass_per_point(monkeypatch, capsys):
    # the loop's noise round runs on arrays it has made and normalized itself; the checked
    # types stay the entry points of the public functions, which still validate
    built = {sim.QState: 0, sim.DensityMatrix: 0}
    for cls in built:
        def counted(self, cls=cls, check=cls.__post_init__):
            built[cls] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    applied = count_applications(monkeypatch)
    assert main(["repro", "--case", "s1", "--mode", "sampled", "--noise", "0.05", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert built == {sim.QState: 0, sim.DensityMatrix: 0}
    assert applied == [4] * (json.loads(out[out.index("\n{") + 1:])["s1"]["iterations"] + 1)
    sim.fidelity(sim.to_density(sim.QState.zero(1)), sim.to_density(sim.QState.zero(1)))
    assert built == {sim.QState: 2, sim.DensityMatrix: 2}


@pytest.mark.parametrize("argv, message", [
    (["repro", "--noise", "-0.1"], "noise strength must lie in [0, 1]"),
    (["repro", "--noise", "nan"], "noise strength must lie in [0, 1]"),
    (["optimize", "--problem", "{problem}", "--x0", "0.86,0.50", "--noise", "1.5"],
     "noise strength must lie in [0, 1]"),
    (["mds", "--delta", "{square}", "--seed", "2", "--max-iters", "0"], "max_iters must be >= 1"),
    (["mds", "--delta", "{square}", "--seed", "2", "--max-iters", "-3"], "max_iters must be >= 1"),
    (["repro", "--shots", "10"], "unrecognized arguments: --shots 10"),
    (["optimize", "--problem", "{problem}", "--x0", "0.86,0.50", "--eta", "0"], "eta must be positive and finite"),
    (["repro", "--eta", "-1"], "eta must be positive and finite"),
], ids=["repro-noise-negative", "repro-noise-nan", "optimize-noise-above-one", "mds-iters-zero",
        "mds-iters-negative", "repro-shots", "optimize-eta-zero", "repro-eta-negative"])
def test_out_of_range_input_exits_1(argv, message, capsys):
    inputs = {"{problem}": str(GOLDEN / "problem.json"), "{square}": str(GOLDEN / "square.csv")}
    assert main([inputs.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["repro", "--mode", "sampled", "--seed", "-1"],
    ["repro", "--seed", "-1"],
    ["optimize", "--problem", "{problem}", "--x0", "0.86,0.50", "--mode", "sampled", "--seed", "-2"],
    ["estimate-coeffs", "--problem", "{problem}", "--x0", "0.6,0.8", "--mode", "sampled", "--seed", "-1"],
    ["mds", "--delta", "{square}", "--seed", "-1"],
], ids=["repro-sampled", "repro-exact", "optimize", "estimate-coeffs", "mds"])
def test_negative_seed_exits_1_naming_the_flag(argv, capsys):
    # step t takes seed + t, so the flag refuses a negative seed in every mode
    inputs = {"{problem}": str(GOLDEN / "problem.json"), "{square}": str(GOLDEN / "square.csv")}
    assert main([inputs.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --seed: must be a non-negative integer, not '-" in captured.err


@pytest.mark.parametrize("label", ['["X"]', "3", '"XZ"'])
def test_bad_pauli_label_exits_1(label, tmp_path, capsys):
    problem = tmp_path / "bad_label.json"
    problem.write_text((GOLDEN / "problem.json").read_text().replace('"Z"', label))
    assert main(["optimize", "--problem", str(problem), "--x0", "0.86,0.50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Pauli factor")


@pytest.mark.parametrize("factor, named", [
    ("5", "factor 5 "),
    ("[[5]]", "factor [[5]] "),
    ('{"dense": [1, 0, 0, 1]}', "dense factor [1, 0, 0, 1] "),
    ('{"dense": [[1, 0, 0], [0, 0], [0, 0], [1, 0]]}', "dense factor [[1, 0, 0], [0, 0], "),
    ('{"dense": [["1", 0], [0, 0], [0, 0], [1, 0]]}', "dense factor [['1', 0], "),
    ('{"dense": 7}', "dense factor 7 "),
])
def test_malformed_factor_exits_1_naming_it(factor, named, tmp_path, capsys):
    problem = tmp_path / "bad_factor.json"
    problem.write_text((GOLDEN / "problem.json").read_text().replace('{"pauli": "Z"}', factor))
    assert main(["optimize", "--problem", str(problem), "--x0", "0.86,0.50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}")


@pytest.mark.parametrize("field, value, named", [
    ('"dim": 2', '"dim": 2.9', "'dim' must be a whole number, not 2.9"),
    ('"dim": 2', '"dim": true', "'dim' must be a number, not True"),
    ('"p": 2', '"p": 1.5', "'p' must be a whole number, not 1.5"),
    ('"p": 2', '"p": true', "'p' must be a number, not True"),
    ('"prefactor": 0.5', '"prefactor": true', "'prefactor' must be a number, not True"),
    ('{"pauli": "Z"}', '{"dense": [[true, 0], [0, 0], [0, 0], [true, false]]}', "dense factor [[True, 0], "),
    (None, '{"dim": -1, "p": 1, "terms": [[{"dense": [[1, 0]]}]]}', "'dim' must be a positive whole number, not -1"),
    (None, '{"dim": 0, "p": 1, "terms": [[{"dense": []}]]}', "'dim' must be a positive whole number, not 0"),
    ('"p": 2', '"p": -1', "'p' must be a positive whole number, not -1"),
    ('"p": 2', '"p": 0.0', "'p' must be a positive whole number, not 0.0"),
], ids=["dim-fraction", "dim-bool", "p-fraction", "p-bool", "prefactor-bool", "dense-bool",
        "dim-negative", "dim-zero", "p-negative", "p-zero"])
def test_decomposition_number_that_is_fractional_or_boolean_exits_1(field, value, named, tmp_path, capsys):
    problem = tmp_path / "bad_number.json"  # field None: value is the whole file
    problem.write_text(value if field is None else (GOLDEN / "problem.json").read_text().replace(field, value))
    assert main(["optimize", "--problem", str(problem), "--x0", "0.86,0.50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize("field, value, named", [
    ('"dim": 2', '"dim": "2"', "'dim' must be a number, not '2'"),
    ('"p": 2', '"p": "2"', "'p' must be a number, not '2'"),
    ('"prefactor": 0.5', '"prefactor": "0.5"', "'prefactor' must be a number, not '0.5'"),
], ids=["dim", "p", "prefactor"])
def test_decomposition_number_given_as_a_string_exits_1(field, value, named, tmp_path, capsys):
    problem = tmp_path / "string_number.json"
    problem.write_text((GOLDEN / "problem.json").read_text().replace(field, value))
    assert main(["optimize", "--problem", str(problem), "--x0", "0.86,0.50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed decomposition JSON: ") and named in captured.err


HUGE_PROBLEM = {"dim": 2, "p": 1, "prefactor": 1e308, "terms": [[{"pauli": "X"}], [{"pauli": "Z"}]]}
HUGE_SHOTS = ["--mode", "sampled", "--shots", "99999999999999999999"]


@pytest.mark.parametrize("argv, message", [
    (["repro", "--eta", "1.7e308"], "beta = 1 + eta*sum|c| is not finite at eta=1.7e+308"),
    (["estimate-coeffs", "--problem", "{huge}", "--x0", "0.6,0.8"], "beta = 1 + eta*sum|c| is not finite at eta=1.0"),
    (["optimize", "--problem", "{problem}", "--x0", "0.6,0.8", *HUGE_SHOTS],
     "shots must be an integer in [1, 2**63 - 1], got 99999999999999999999"),
    (["estimate-coeffs", "--problem", "{problem}", "--x0", "0.6,0.8", *HUGE_SHOTS],
     "shots must be an integer in [1, 2**63 - 1], got 99999999999999999999"),
], ids=["repro-eta-overflow", "estimate-coeffs-beta-overflow", "optimize-shots-past-int64",
        "estimate-coeffs-shots-past-int64"])
def test_input_past_the_float_or_int64_range_exits_1_with_only_the_error_line(argv, message, tmp_path, capsys):
    # a refused estimate-coeffs problem writes no table header first; tier-1 turns any numpy
    # warning into an error, so none may come before the refusal
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(HUGE_PROBLEM))
    inputs = {"{problem}": str(GOLDEN / "problem.json"), "{huge}": str(huge)}
    assert main([inputs.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _run_with_shots(run, shots):
    x0 = Point.normalized([0.6, 0.8])
    if run == "optimize":
        return lcu.optimize(experiment.DECOMP, x0, max_iters=1, shots=shots, seed=1)
    if run == "estimate_b":
        return lcu.estimate_b(experiment.DECOMP, x0, shots=shots, seed=1)
    return main([run.removeprefix("cli-"), "--problem", str(GOLDEN / "problem.json"), "--x0", "0.6,0.8",
                 "--mode", "sampled", "--shots", str(shots), "--seed", "1"])


RUNS_WITH_SHOTS = ["optimize", "estimate_b", "cli-optimize", "cli-estimate-coeffs"]


@pytest.mark.parametrize("shots", [0, -1, 2.5, 2**63], ids=["zero", "negative", "fraction", "2**63"])
@pytest.mark.parametrize("run", RUNS_WITH_SHOTS)
def test_shots_outside_one_to_int64_max_are_refused(run, shots, capsys):
    if not run.startswith("cli-"):
        with pytest.raises(ValueError, match=rf"shots must be an integer in \[1, 2\*\*63 - 1\], got {shots}$"):
            _run_with_shots(run, shots)
        return
    assert _run_with_shots(run, shots) == 1  # a fraction is refused by the flag's type, the rest by the check
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert captured.out == "" and len(errors) == 1 and "shots" in errors[0]


@pytest.mark.parametrize("run", RUNS_WITH_SHOTS)
def test_shots_of_int64_max_are_taken(run, capsys):
    got = _run_with_shots(run, 2**63 - 1)
    if run == "estimate_b":  # so many shots leave only the binomial's rounding
        assert np.allclose(got, lcu.estimate_b(experiment.DECOMP, Point.normalized([0.6, 0.8])), atol=1e-8)
    assert got == 0 if run.startswith("cli-") else len(got)
    capsys.readouterr()


def test_optimize_sampled_takes_shots(capsys):
    argv = ["optimize", "--problem", str(GOLDEN / "problem.json"), "--x0", "0.86,0.50",
            "--mode", "sampled", "--shots", "64", "--seed", "1", "--format", "json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["mode"] == "sampled"


def test_pauli_factor_past_qubit_cap_exits_1(tmp_path, capsys):
    problem = tmp_path / "wide_pauli.json"
    problem.write_text(json.dumps({"dim": 2**21, "p": 1, "terms": [[{"pauli": "X" * 21}]]}))
    assert main(["optimize", "--problem", str(problem), "--x0", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Pauli string needs 21 qubits (cap 20)\n"


def test_mds_without_embedding_columns_exits_1(capsys):
    for dim in ("0", "-1"):  # refused by the flag's type, which names the flag
        assert main(["mds", "--delta", str(GOLDEN / "square.csv"), "--seed", "1", "--dim", dim]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"\nerror: argument --dim: must be a positive integer, not '{dim}'\n")


@pytest.mark.parametrize("command", ["optimize", "estimate-coeffs"])
def test_layout_past_qubit_cap_exits_1(command, monkeypatch, capsys):
    # the golden problem (N=2, K*p=4) needs 1 flag + 2 select + 1 work qubit
    monkeypatch.setattr(sim, "MAX_QUBITS", 3)
    assert main([command, "--problem", str(GOLDEN / "problem.json"), "--x0", "0.86,0.50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: layout needs 4 qubits" in captured.err
