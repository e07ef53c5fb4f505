"""Check that two benchmark runs simulated the same thing.

    python3 bench/compare.py A.json B.json

A and B are files written by ``run.py --record`` for the same workload and
seed, for instance before and after a change.  Over the ops both runs made,
the modelled statistics of every op (iteration counts, Pauli term counts,
success probabilities) must agree: counts exactly, probabilities to 1e-12.
A speed-only change to the program leaves them unchanged.  Exits 1 on any
difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PROB_TOL = 1e-12


def _same(p, q) -> bool:
    if isinstance(p, list) or isinstance(q, list):
        return isinstance(p, list) and isinstance(q, list) and len(p) == len(q) and all(map(_same, p, q))
    if isinstance(p, int) and isinstance(q, int):
        return p == q
    return abs(p - q) <= PROB_TOL


def differences(a: dict, b: dict) -> list[str]:
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"runs differ in workload or seed: {a['workload']}/{a['seed']} vs {b['workload']}/{b['seed']}"]
    ops = min(len(a["modelled"]), len(b["modelled"]))
    if ops == 0:
        return ["no ops to compare"]
    out = []
    for i in range(ops):
        x, y = a["modelled"][i], b["modelled"][i]
        if x.keys() != y.keys():
            out.append(f"op {i}: statistics {sorted(x)} vs {sorted(y)}")
            continue
        out += [f"op {i} {key}: {x[key]} vs {y[key]}" for key in x if not _same(x[key], y[key])]
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    found = differences(a, b)
    for line in found[:20]:
        print(line)
    ops = min(len(a["modelled"]), len(b["modelled"]))
    print(f"{len(found)} differences over {ops} ops" if found else f"identical over {ops} ops")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
