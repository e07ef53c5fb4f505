"""Command-line front end.

Subcommands: optimize (generic problem file), repro (the built-in 2-qubit
benchmark), mds (stress descent), estimate-coeffs (the expectation circuit).
Exit codes: 0 converged, 1 input or validation error, 2 iteration budget
exhausted.  Identical arguments (seed included) produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import warnings

import numpy as np

from . import experiment, lcu, mds, poly
from .errors import CapacityError, DegenerateStepError, PostselectionError, PurificationError


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on bad input instead of the default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _load_problem(path: str) -> poly.TensorDecomposition:
    with open(path) as fh:
        return poly.decomposition_from_dict(json.load(fh))


def _parse_point(text: str, dim: int) -> poly.Point:
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"--x0 {text!r} is not a comma-separated list of numbers") from exc
    if len(vals) != dim:
        raise ValueError(f"--x0 needs {dim} components, got {len(vals)}")
    return poly.Point.normalized(vals)


def _json_numbers(value, field: str):
    """Nested JSON lists of JSON numbers, by the problem file's rule."""
    if isinstance(value, list):
        return [_json_numbers(v, field) for v in value]
    return poly._json_number(value, field)


def _load_matrix(path: str, flag: str) -> np.ndarray:
    ragged = f"{flag} file {path} has rows of unequal length"
    if path.endswith(".json"):
        with open(path) as fh:
            rows = _json_numbers(json.load(fh), f"{flag} entry")
        try:
            return np.asarray(rows, dtype=float)
        except OverflowError as exc:
            raise ValueError(f"{flag} entry past the float range: {exc}") from exc
        except ValueError as exc:  # every entry is a number, so only the nesting can disagree
            raise ValueError(ragged) from exc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # numpy's "input contained no data"; refused below
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:  # numpy's message for a short row names its `usecols`, which the CLI lacks
            raise ValueError(ragged if "number of columns changed" in str(exc) else f"{flag} file {path}: {exc}")
    if not rows.size:
        raise ValueError(f"{flag} file {path} holds no numbers")
    return rows


def _trajectory_rows(decomp, records) -> list[str]:
    header = "iter," + ",".join(f"x{i}" for i in range(decomp.dim)) + ",f,success_prob,overlap"
    rows = [header]
    for r in records:
        coords = ",".join(_fmt(v) for v in r.point.coords)
        rows.append(f"{r.iteration},{coords},{_fmt(r.f_value)},{_fmt(r.success_prob)},{_fmt(r.overlap)}")
    return rows


def _write_outputs(out_base: str | None, fmt: str, csv_text: str, summary: dict) -> None:
    summary_text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    if out_base is None:
        if fmt == "csv":
            sys.stdout.write(csv_text)
        sys.stdout.write(summary_text)
        return
    if fmt == "csv":
        with open(out_base + ".csv", "w") as fh:
            fh.write(csv_text)
    with open(out_base + ".json", "w") as fh:
        fh.write(summary_text)
    print(f"wrote {out_base}.csv and {out_base}.json" if fmt == "csv" else f"wrote {out_base}.json")


def _seed(text: str) -> int:
    """A --seed value: numpy seeds take non-negative integers only."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """A --dim value: an embedding has one or more columns."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def _add_run_flags(p: argparse.ArgumentParser, eta: float, threshold: float, iters: int) -> None:
    p.add_argument("--eta", type=float, default=eta, help=f"step size (default {eta})")
    p.add_argument("--threshold", type=float, default=threshold,
                   help=f"stop when the step norm falls below this (default {threshold})")
    p.add_argument("--max-iters", type=int, default=iters, help=f"iteration budget (default {iters})")
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--noise", type=float, default=0.0, metavar="EPS",
                   help="depolarizing strength applied each iteration (purified back)")
    p.add_argument("--out", default=None, metavar="BASE", help="write BASE.csv / BASE.json")
    p.add_argument("--format", choices=["csv", "json"], default="csv",
                   help="csv: trajectory CSV plus JSON summary; json: summary only, trajectory embedded")


def cmd_optimize(args) -> int:
    decomp = _load_problem(args.problem)
    x0 = _parse_point(args.x0, decomp.dim)
    lcu._check_sampling(args.shots, args.seed)  # --shots is refused in exact mode too, which reads none
    records = lcu.optimize(
        decomp, x0, eta=args.eta, threshold=args.threshold, max_iters=args.max_iters,
        shots=None if args.mode == "exact" else args.shots, seed=args.seed, noise_eps=args.noise,
    )
    converged = records[-1].label == "converged"
    csv_text = "\n".join(_trajectory_rows(decomp, records)) + "\n"
    summary = {
        "final_point": [float(v) for v in records[-1].point.coords],
        "final_f": records[-1].f_value,
        "iterations": records[-1].iteration,
        "converged": converged,
        "eta": args.eta,
        "mode": args.mode,
        "seed": args.seed,
    }
    if args.format == "json":
        summary["trajectory"] = [
            {"iter": r.iteration, "point": [float(v) for v in r.point.coords],
             "f": r.f_value, "success_prob": r.success_prob, "overlap": r.overlap}
            for r in records
        ]
    _write_outputs(args.out, args.format, csv_text, summary)
    return 0 if converged else 2


def cmd_repro(args) -> int:
    cases = ["s1", "s2"] if args.case == "both" else [args.case]
    rows_by_case = {}
    for idx, case in enumerate(cases):
        seed = None if args.seed is None else args.seed + idx
        rows = experiment.run_case(case, shots=None if args.mode == "exact" else 4096,
                                   noise_eps=args.noise, seed=seed, eta=args.eta,
                                   threshold=args.threshold, max_iters=args.max_iters)
        rows_by_case[case] = rows
        overlaps = " ".join(_fmt(r.overlap) for r in rows)
        print(f"{case} overlaps: {overlaps}")
    csv_text = experiment.overlap_table_csv(rows_by_case)
    summary = {
        case: {
            "final_point": [float(v) for v in rows[-1].point.coords],
            "final_f": rows[-1].f_value,
            "final_overlap": rows[-1].overlap,
            "iterations": rows[-1].iteration,
            "converged": rows[-1].label == "converged",
        }
        for case, rows in rows_by_case.items()
    }
    _write_outputs(args.out, args.format, csv_text, summary)
    return 0 if all(s["converged"] for s in summary.values()) else 2


def cmd_mds(args) -> int:
    # mds_optimize checks the weights and x0 files, and that all three describe the same points
    delta = mds.Dissimilarities(_load_matrix(args.delta, "--delta"))
    weights = mds.Weights.uniform(delta.n) if args.weights is None else _load_matrix(args.weights, "--weights")
    if args.x0 is None:
        x0 = np.random.default_rng(args.seed).standard_normal((delta.n, args.dim))
    else:
        x0 = _load_matrix(args.x0, "--x0")
    trace = mds.mds_optimize(delta, weights, x0, eta=args.eta,
                             max_iters=args.max_iters, tol=args.tol)
    csv_text = "iter,stress\n" + "\n".join(
        f"{i},{_fmt(s)}" for i, (_, s) in enumerate(trace)) + "\n"
    final_x, final_s = trace[-1]
    if not np.isfinite(trace[0][1]):
        raise ValueError("stress is not finite at the starting configuration (rescale --x0)")
    if not np.isfinite(final_s):
        raise ValueError(f"stress is not finite after iteration {len(trace) - 1} (lower --eta)")
    # an oversized step also stops the descent, by raising stress: only a
    # last step that changed stress by less than tol either way converged
    converged = len(trace) > 1 and abs(trace[-2][1] - final_s) < args.tol
    summary = {
        "final_stress": final_s,
        "iterations": len(trace) - 1,
        "converged": converged,
        "coordinates": [[float(v) for v in row] for row in final_x],
    }
    _write_outputs(args.out, args.format, csv_text, summary)
    return 0 if converged else 2


def cmd_estimate_coeffs(args) -> int:
    decomp = _load_problem(args.problem)
    x0 = _parse_point(args.x0, decomp.dim)
    lcu._check_sampling(args.shots, args.seed)
    coeffs = poly.coefficients(decomp, x0)
    b_circuit = lcu.estimate_b(decomp, x0)
    k, p = decomp.num_terms, decomp.order_p
    big_m = coeffs.b.prod(axis=1)
    sampled = None if args.mode == "exact" else lcu.estimate_b(decomp, x0, shots=args.shots, seed=args.seed)
    beta = lcu.build_prepare(coeffs.c, 1.0).beta
    header = "m,alpha,j,b_exact,M_alpha,c_m"
    if sampled is not None:
        header += ",b_sampled,abs_dev,bound_4sigma"
    print(header)
    max_dev = 0.0
    for a in range(k):
        for j in range(p):
            m = a * p + j
            row = (f"{m},{a + 1},{j + 1},{_fmt(b_circuit[a, j])},"
                   f"{_fmt(big_m[a])},{_fmt(coeffs.c[m])}")
            if sampled is not None:
                dev = abs(sampled[a, j] - b_circuit[a, j])
                prob = min(max(b_circuit[a, j] ** 2, 0.0), 1.0)
                bound = 4.0 * np.sqrt(prob * (1.0 - prob) / args.shots)
                max_dev = max(max_dev, dev)
                row += f",{_fmt(sampled[a, j])},{_fmt(dev)},{_fmt(bound)}"
            print(row)
    print(f"beta,{_fmt(beta)}")
    if sampled is not None:
        print(f"max_abs_dev,{_fmt(max_dev)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdescent", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="descend a problem file from a starting point")
    p_opt.add_argument("--problem", required=True, help="problem JSON path")
    p_opt.add_argument("--x0", required=True, help="comma-separated starting point (renormalized)")
    _add_run_flags(p_opt, eta=1.0, threshold=1e-3, iters=100)
    p_opt.add_argument("--shots", type=int, default=4096, help="shots per circuit in sampled mode")

    p_rep = sub.add_parser("repro", help="run the built-in 2-qubit benchmark cases")
    p_rep.add_argument("--case", choices=["s1", "s2", "both"], default="both")
    defaults = experiment.ExperimentConfig
    _add_run_flags(p_rep, eta=defaults.eta, threshold=defaults.threshold, iters=defaults.max_iters)

    p_mds = sub.add_parser("mds", help="multidimensional scaling by stress descent")
    p_mds.add_argument("--delta", required=True, help="dissimilarity matrix (CSV or JSON)")
    p_mds.add_argument("--weights", default=None, help="weight matrix (CSV or JSON; default uniform)")
    p_mds.add_argument("--x0", default=None, help="initial configuration (CSV or JSON; default random)")
    p_mds.add_argument("--dim", type=_positive, default=2, help="embedding dimension for random init")
    p_mds.add_argument("--eta", type=float, default=0.05)
    p_mds.add_argument("--max-iters", type=int, default=200)
    p_mds.add_argument("--tol", type=float, default=1e-9)
    p_mds.add_argument("--seed", type=_seed, default=None)
    p_mds.add_argument("--out", default=None, metavar="BASE")
    p_mds.add_argument("--format", choices=["csv", "json"], default="csv")

    p_est = sub.add_parser("estimate-coeffs", help="print the b/M/c coefficient table at a point")
    p_est.add_argument("--problem", required=True)
    p_est.add_argument("--x0", required=True)
    p_est.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    p_est.add_argument("--shots", type=int, default=100000)
    p_est.add_argument("--seed", type=_seed, default=None)

    return parser


_HANDLERS = {
    "optimize": cmd_optimize,
    "repro": cmd_repro,
    "mds": cmd_mds,
    "estimate-coeffs": cmd_estimate_coeffs,
}


_parser: argparse.ArgumentParser | None = None


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with "--flag -0.6,0.8" as "--flag=-0.6,0.8": argparse takes a value that begins with "-" for a flag
    unless it is a plain negative number, and no flag of this CLI begins with "-" and a digit or "."."""
    out: list[str] = []
    for arg in argv:
        if out and re.match(r"-[\d.]", arg) and re.fullmatch(r"--[\w-]+", out[-1]) and not "--help".startswith(out[-1]):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    # the parser is built on the first call, not at import, and reused: parse_args leaves it
    # unchanged, and help reads the terminal width and sys.stdout when it prints
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError, json.JSONDecodeError, CapacityError, DegenerateStepError,
            PostselectionError, PurificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
