"""Benchmark of qdescent: end-to-end latency per op, and per-layer self time.

Run from the repository root:

    python3 bench/run.py --workload wide --seed 1 --seconds 35 --trace 0

One client drives the program in a closed loop: the next op starts when the
previous one ends.  Each op is checked against the classical oracle outside
the timed region.  With ``--trace 0`` every op runs the untouched program and
the end-to-end metrics are reported.  With ``--trace 1`` ops alternate
between the untouched program and the traced one (see ``spans.py``), and the
per-layer metrics are reported, per traced op.

The last line of standard output is the result object.  Standard error gets
a summary: environment, sample counts, set-up times and failures.
``--record FILE`` writes the full details, adding every op's latency, every
traced span and the modelled statistics per op; ``compare.py`` checks the
modelled statistics of two records against each other.  ``--smoke`` runs every
workload for a few ops in both trace modes and checks that every metric named
in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; recorded with every result.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 4  # before and again after the timed loop, so set-up samples host drift twice
WARMUP_OPS = 2
MIN_OPS = 100  # timed ops per run, so that p90 has ten samples beyond it

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
                "import qdescent; print(time.perf_counter() - t)")

# Functions timed per layer: <name>.calls and <name>.self_s per traced op.
TIMED = (
    "cli.main", "cli.build_parser",
    "experiment.run_case",
    "lcu.run_iteration", "lcu.run_lcu_step", "lcu.complete_from_first_column", "lcu.estimate_b",
    "sim.apply_unitary", "sim.apply_controlled", "sim.postselect", "sim.density",
    "poly.coefficients", "poly.classical_gradient", "poly.build_d", "poly.evaluate_objective",
    "poly.pauli_decompose", "poly.pauli_label_matrix", "poly.UnitaryFactor",
    "mds.mds_optimize", "mds.stress", "mds.descent_operator", "mds.lcu_column_demo",
)


def calibrate() -> dict:
    """Rates of two fixed loops, so host drift shows beside the metrics."""
    def median_time(fn, reps=5):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def py_loop():
        total = 0
        for k in range(200_000):
            total += k
        return total

    def matmuls():
        for _ in range(20):
            a @ a

    a = np.random.default_rng(0).standard_normal((128, 128))
    return {
        "py_loop_mops": 0.2 / median_time(py_loop),
        "matmul128_gflops": 20 * 2 * 128**3 / median_time(matmuls) / 1e9,
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def time_import() -> float:
    """Seconds to import qdescent in a fresh interpreter (numpy included)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def set_up(workload, reps: int, setup: dict):
    """Time `reps` imports and builds into `setup`; returns the last build's objects."""
    for _ in range(reps):
        setup["import_s"].append(time_import())
        start = time.perf_counter()
        objects = workload.build()
        setup["build_s"].append(time.perf_counter() - start)
    return objects


def percentile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


class Run:
    """One closed-loop run of a workload: timed ops, their checks, and the trace."""

    def __init__(self, workload, objects, trace: bool, cpus: list[int]):
        self.workload = workload
        self.objects = objects
        self.trace = trace
        self.cpus = cpus
        self.tracer = spans.Tracer() if trace else None
        self.plain_s: list[float] = []
        self.traced_s: list[float] = []
        self.failures: list[str] = []
        self.failed = 0
        self.modelled: list[dict] = []
        self.index = 0

    def step(self, timed: bool) -> float:
        """Run, time and check op number `self.index`; returns its seconds."""
        i = self.index
        self.index += 1
        inp = self.workload.inputs(self.objects, i)
        # Each CPU's speed drifts on its own, so ops move round the CPUs two at a
        # time (a traced op runs where its untraced neighbour ran).
        os.sched_setaffinity(0, {self.cpus[i // 2 % len(self.cpus)]})
        traced = timed and self.trace and i % 2 == 1
        if traced:
            self.tracer.install()
        out, error = None, None
        start = time.perf_counter()
        try:
            out = self.workload.op(inp)
        except Exception:  # a failing op is counted, reported, and the loop goes on
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        if error is None:
            try:
                problems, modelled = self.workload.check(inp, out)
            except Exception:
                problems, modelled = [traceback.format_exc(limit=3)], {}
        else:
            problems, modelled = [error], {}
        self.modelled.append(modelled)
        if problems:
            self.failures += [f"op {i}: {p}" for p in problems]
            if timed:
                self.failed += 1
        if timed:
            (self.traced_s if traced else self.plain_s).append(elapsed)
        return elapsed

    def loop(self, seconds: float, max_ops: int | None) -> None:
        """Warm up, then run ops until their timed seconds reach `seconds` and
        at least MIN_OPS ran, or until `max_ops` ran."""
        for _ in range(WARMUP_OPS):
            self.step(timed=False)
        spent = 0.0
        min_ops = MIN_OPS if max_ops is None else 0
        while (spent < seconds or self.attempted < min_ops) and self.attempted < (max_ops or math.inf):
            spent += self.step(timed=True)

    @property
    def attempted(self) -> int:
        return len(self.plain_s) + len(self.traced_s)


def latency(run: Run) -> dict:
    """Untraced op latency: the sample count and every statistic of it we report."""
    ms = [t * 1e3 for t in run.plain_s]
    return {"samples": len(ms), "min_ms": min(ms), "p50_ms": statistics.median(ms),
            "p90_ms": percentile(ms, 90), "mean_ms": statistics.fmean(ms),
            "ops_per_s": len(ms) / sum(run.plain_s)}


def end_to_end(run: Run, setup: dict) -> dict:
    """The gated metrics.

    The other latency statistics stay in the details: on a host whose speed
    switches between levels for tens of seconds, they follow the share of the
    run spent at each level and spread too widely from run to run to be gated
    (see README.md).  The fastest op sits at the fast level in every run.
    """
    return {
        "op_ms_min": (latency(run)["min_ms"], "ms"),
        "setup_s": (statistics.median(setup["import_s"]) + statistics.median(setup["build_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def per_layer(run: Run, setup_tracer: spans.Tracer) -> dict:
    tracer = run.tracer
    ops = len(run.traced_s)
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = (tracer.calls[name] / ops, "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / ops, "s")
    factor = "poly.UnitaryFactor"
    out[f"{factor}.setup_calls"] = (setup_tracer.calls[factor], "count")
    out[f"{factor}.setup_s"] = (setup_tracer.self_s[factor], "s")
    counts = tracer.counts

    def mean(key: str, over: float) -> float:
        return counts[key] / over if over else 0.0

    iterations = tracer.calls["lcu.run_iteration"]
    out.update({
        "lcu.iters": (iterations / ops, "count"),
        "lcu.success_prob_mean": (mean("lcu.success_prob_sum", counts["lcu.steps"]), "ratio"),
        "lcu.expected_reps_mean": (mean("lcu.expected_reps_sum", counts["lcu.steps"]), "reps"),
        "lcu.expected_reps_product": (mean("lcu.expected_reps_product_sum", counts["lcu.trajectories"]), "reps"),
        "sim.check_flops": (counts["sim.check_flops"] / ops, "flop"),
        "sim.apply_flops": (counts["sim.apply_flops"] / ops, "flop"),
        "sim.bytes_computed": (counts["sim.bytes_computed"] / ops, "B"),
        "poly.coefficients_per_step": (
            tracer.calls["poly.coefficients"] / iterations if iterations else 0.0, "ratio"),
        "mds.descent_iters": (mean("mds.descent_iters_sum", tracer.calls["mds.mds_optimize"]), "count"),
        "mds.pauli_terms": (mean("mds.pauli_terms_sum", tracer.calls["mds.lcu_column_demo"]), "count"),
        "trace.overhead_ms": (
            (statistics.median(run.traced_s) - statistics.median(run.plain_s)) * 1e3, "ms"),
    })
    return out


def bench(name: str, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS,
          max_ops: int | None = None) -> tuple[dict, dict]:
    """One run; returns (result object, details)."""
    env = environment()
    env["calibration_before"] = calibrate()
    workload = workloads.WORKLOADS[name](seed)
    setup = {"import_s": [], "build_s": []}
    objects = set_up(workload, setup_reps, setup)
    setup_tracer = spans.Tracer()
    if trace:
        setup_tracer.install()
        try:
            workload.build()
        finally:
            setup_tracer.uninstall()
    cpus = sorted(os.sched_getaffinity(0))
    env["op_cpus"] = cpus
    run = Run(workload, objects, trace, cpus)
    try:
        run.loop(seconds, max_ops)
    finally:
        os.sched_setaffinity(0, cpus)
    set_up(workload, setup_reps, setup)
    env["calibration_after"] = calibrate()
    metrics = per_layer(run, setup_tracer) if trace else end_to_end(run, setup)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "load": "closed loop, one client",
        "samples": {"untraced_ops": len(run.plain_s), "traced_ops": len(run.traced_s),
                    "warmup_ops": WARMUP_OPS},
        "setup": setup,
        "latency": latency(run),
        "op_ms": [t * 1e3 for t in run.plain_s],
        "traced_op_ms": [t * 1e3 for t in run.traced_s],
        "failed_ratio": run.failed / run.attempted,
        "failures": run.failures[:20],
        "spans": ({n: {"calls": run.tracer.calls[n], "self_s": run.tracer.self_s[n]}
                   for n in sorted(run.tracer.calls)} if trace else {}),
        "counts_note": "sim.*_flops and sim.bytes_computed are computed from gate and state "
                       "shapes; they ignore cache effects and temporaries",
        "modelled": run.modelled,
    }
    return result, details


SUMMARY_KEYS = ("workload", "seed", "seconds", "trace", "environment", "load", "samples",
                "setup", "latency", "failed_ratio", "failures")


def smoke() -> int:
    """Every workload for a few ops in both modes; every named metric, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for entry in spec["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = bench(entry["name"], seed=1, seconds=math.inf, trace=trace,
                              setup_reps=1, max_ops=4)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            label = f"{entry['name']} trace={int(trace)}"
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json "
                                f"(missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]})")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} ops failed")
            print(f"{label}: {len(got)} metrics, {result['attempted']} ops, correct={result['correct']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--record", type=Path, help="also write the run's details here")
    parser.add_argument("--smoke", action="store_true", help="quick self-check of every workload")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    missing = [f"--{k}" for k in ("workload", "seed", "seconds", "trace") if getattr(args, k) is None]
    if missing:
        parser.error(f"missing {', '.join(missing)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    result, details = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: details[k] for k in SUMMARY_KEYS}), file=sys.stderr)
    if args.record is not None:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
