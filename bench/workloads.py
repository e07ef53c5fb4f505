"""The benchmark's workloads: inputs from a seed, one op, and its oracle check.

Each workload makes its raw inputs from the seed (benchmark time), builds and
returns the program objects in `build` (set-up time), picks op i's inputs in
`inputs`, runs one op in `op` (the timed region), and checks the op against
the classical oracle in `check` (outside the timed region).  `check` returns
the failures found and the op's modelled statistics, which a speed-only
change to the program must leave unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

from qdescent import cli, experiment, lcu, mds, poly

POINT_TOL = 1e-10
LAW_TOL = 1e-12
B_TOL = 1e-10
DEMO_TOL = 1e-10
MIN_OVERLAP = 0.999


def _op_rng(seed: int, i: int) -> np.random.Generator:
    """Generator for op i's inputs, independent of how many ops a run makes."""
    return np.random.default_rng([seed, i])


class Paper:
    """The paper's experiment through the CLI: ``repro`` exact, then sampled with noise.

    The two runs take about 26 circuit iterations at N=2, K*p=4.  Per-call
    overhead (validation, ``moveaxis``, argparse, JSON) dominates, and the
    noisy half is the only user of the density-matrix path in ``sim``.
    """

    name = "paper"

    def __init__(self, seed: int):
        self.seed = seed

    def build(self):
        return experiment.ExperimentConfig()

    def inputs(self, objects, i: int):
        sample_seed = int(_op_rng(self.seed, i).integers(2**31))
        return (["repro"],
                ["repro", "--mode", "sampled", "--noise", "0.05", "--seed", str(sample_seed)])

    def op(self, argvs):
        outs = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outs.append((code, buf.getvalue()))
        return outs

    def check(self, argvs, outs):
        failures, iters, probs = [], [], []
        for argv, (code, text) in zip(argvs, outs):
            run = " ".join(argv)
            if code != 0:
                failures.append(f"`{run}` exited {code}")
                continue
            lines = text.splitlines()
            start = lines.index("{")
            summary = json.loads("\n".join(lines[start:]))
            header = lines.index("iter,case,x1,x2,f,overlap,success_prob")
            probs += [float(row.rsplit(",", 1)[1]) for row in lines[header + 1:start]
                      if not row.endswith(",")]
            for case in ("s1", "s2"):
                iters.append(summary[case]["iterations"])
                if summary[case]["final_overlap"] < MIN_OVERLAP:
                    failures.append(f"`{run}` {case} final overlap {summary[case]['final_overlap']}")
        return failures, {"iters": iters, "success_probs": probs}


class Wide:
    """A seeded random problem at N=256, K=8, p=2 from real symmetric orthogonal factors.

    One op estimates b at x through the expectation circuit, then runs one
    circuit iteration from x; the new point starts the next op.  Gate size
    dominates: the O(N^3) unitarity check on every gate and the dense D of the
    oracle.  Building the 16 factors puts their O(N^3) validation in set-up.
    """

    name = "wide"
    dim, terms, order = 256, 8, 2
    eta = 0.5

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.mats = []
        for _ in range(self.terms * self.order):
            q, _ = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))
            signs = rng.choice([-1.0, 1.0], size=self.dim)
            self.mats.append((q * signs) @ q.T)
        x0 = rng.standard_normal(self.dim)
        self.x0 = x0 / np.linalg.norm(x0)
        self.x = None  # the chain's current point, reset by op 0

    def build(self):
        factors = [poly.UnitaryFactor(m) for m in self.mats]
        decomp = poly.TensorDecomposition(
            dim=self.dim, order_p=self.order,
            terms=[factors[a * self.order:(a + 1) * self.order] for a in range(self.terms)])
        return decomp, poly.Point(self.x0)

    def inputs(self, objects, i: int):
        decomp, x0 = objects
        if i == 0:
            self.x = x0
        return decomp, self.x

    def op(self, inp):
        decomp, x = inp
        b = lcu.estimate_b(decomp, x)
        outcome = lcu.run_iteration(decomp, x, self.eta)
        self.x = outcome.next_point
        return b, outcome

    def check(self, inp, out):
        decomp, x = inp
        b, outcome = out
        failures = []
        coeffs = poly.coefficients(decomp, x)
        b_dev = float(np.max(np.abs(b - coeffs.b)))
        if b_dev > B_TOL:
            failures.append(f"estimate_b off by {b_dev:.3e}")
        oracle, step_norm = poly.classical_iterate(decomp, x, self.eta)
        q = outcome.next_point.coords
        q = q if float(q @ oracle.coords) >= 0 else -q
        point_dev = float(np.max(np.abs(q - oracle.coords)))
        if point_dev > POINT_TOL:
            failures.append(f"circuit point off the oracle by {point_dev:.3e}")
        beta = 1.0 + self.eta * float(np.sum(np.abs(coeffs.c)))
        law_dev = abs(outcome.success_prob - step_norm**2 / beta**2)
        if law_dev > LAW_TOL:
            failures.append(f"success-probability law off by {law_dev:.3e}")
        return failures, {"success_prob": outcome.success_prob}


class Mds:
    """A fresh seeded 16-point MDS instance per op, with uniform weights.

    One op runs ``mds_optimize`` with library defaults, then the one-column
    circuit demo on the result.  D(X) has about 136 Pauli terms at 16 points,
    so select has many gates and prepare completion is a 256-dim Gram-Schmidt.
    """

    name = "mds"
    points, embed_dim = 16, 2
    pool = 512  # instances built in set-up; ops past this count reuse them in order

    def __init__(self, seed: int):
        self.raw = []
        for i in range(self.pool):
            rng = _op_rng(seed, i)
            truth = rng.standard_normal((self.points, self.embed_dim))
            delta = np.sqrt(np.sum((truth[:, None, :] - truth[None, :, :]) ** 2, axis=2))
            self.raw.append((delta, rng.standard_normal((self.points, self.embed_dim))))

    def build(self):
        weights = mds.Weights.uniform(self.points)
        return weights, [(mds.Dissimilarities(d), mds.Configuration(x0)) for d, x0 in self.raw]

    def inputs(self, objects, i: int):
        weights, instances = objects
        return (weights, *instances[i % self.pool])

    def op(self, inp):
        weights, delta, x0 = inp
        trace = mds.mds_optimize(delta, weights, x0)
        demo = mds.lcu_column_demo(delta, weights, trace[-1][0])
        return trace, demo

    def check(self, inp, out):
        trace, demo = out
        failures = []
        if not demo.max_abs_diff <= DEMO_TOL:
            failures.append(f"column demo off the oracle by {demo.max_abs_diff:.3e}")
        values = [s for _, s in trace]
        rises = [k for k in range(1, len(values)) if values[k] > values[k - 1]]
        if rises:
            failures.append(f"stress rose at iterations {rises[:5]}")
        return failures, {"descent_iters": len(trace) - 1, "pauli_terms": len(demo.labels),
                          "success_prob": demo.success_prob}


WORKLOADS = {w.name: w for w in (Paper, Wide, Mds)}
