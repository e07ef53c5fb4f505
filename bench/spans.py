"""Span tracing of qdescent from outside the program.

`Tracer.install` replaces the public functions of the six modules with timing
wrappers.  It patches every module attribute that holds the original object:
in the defining module, in modules that bound the name with
``from ... import``, and among the package's re-exports in
``qdescent/__init__``.
`Tracer.uninstall` puts every original back, so untraced ops and the
correctness checks run the pristine program.  Class construction is traced for the classes in `CLASSES` by
wrapping their ``__init__``.

A span's self time is its duration minus the durations of its child spans,
kept on a stack of open spans.  Observers derive counts (modelled success
probabilities, computed flops and bytes) from a call's bound arguments and
result; their own time is kept out of every span's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

MODULES = ("cli", "experiment", "lcu", "sim", "poly", "mds")
CLASSES = ("poly.UnitaryFactor",)

# Functions counted together as one span name.
GROUPS = {
    "sim.to_density": "sim.density",
    "sim.depolarize": "sim.density",
    "sim.fidelity": "sim.density",
    "sim.purify": "sim.density",
}

_COMPLEX_BYTES = 16
_COMPLEX_MAC_FLOPS = 8  # one complex multiply-add: 4 real multiplies, 4 real adds


def _gate_counts(counts, state, u, n_controls: int) -> None:
    """Computed work of one gate from its shapes alone (no cache effects).

    The unitarity check u @ u^H is a dense d x d x d product.  Applying the
    gate multiplies the d x d matrix into the 2^q / 2^c amplitudes that match
    the control pattern.  Bytes: the gate read twice (check and apply), its
    check product written, the full state copied once into the new state, and
    the controlled block read and written.
    """
    d = len(u)
    size = 2**state.num_qubits
    block = size >> n_controls
    counts["sim.check_flops"] += _COMPLEX_MAC_FLOPS * d**3
    counts["sim.apply_flops"] += _COMPLEX_MAC_FLOPS * d * block
    counts["sim.bytes_computed"] += _COMPLEX_BYTES * (3 * d * d + 2 * size + 2 * block)


def _observe_apply_unitary(a, result, counts) -> None:
    _gate_counts(counts, a["state"], a["u"], 0)


def _observe_apply_controlled(a, result, counts) -> None:
    _gate_counts(counts, a["state"], a["u"], len(a["controls"]))


def _observe_postselect(a, result, counts) -> None:
    block = 2 ** (a["state"].num_qubits - len(a["qubits"]))
    counts["sim.bytes_computed"] += _COMPLEX_BYTES * 2 * block  # block read, kept state written


def _observe_run_lcu_step(a, result, counts) -> None:
    prob = result[1]
    counts["lcu.steps"] += 1
    counts["lcu.success_prob_sum"] += prob
    counts["lcu.expected_reps_sum"] += 1.0 / prob


def _observe_optimize(a, result, counts) -> None:
    counts["lcu.trajectories"] += 1
    counts["lcu.expected_reps_product_sum"] += math.prod(1.0 / r.success_prob for r in result)


def _observe_mds_optimize(a, result, counts) -> None:
    counts["mds.descent_iters_sum"] += len(result) - 1


def _observe_column_demo(a, result, counts) -> None:
    counts["mds.pauli_terms_sum"] += len(result.labels)


OBSERVERS = {
    "sim.apply_unitary": _observe_apply_unitary,
    "sim.apply_controlled": _observe_apply_controlled,
    "sim.postselect": _observe_postselect,
    "lcu.run_lcu_step": _observe_run_lcu_step,
    "lcu.optimize": _observe_optimize,
    "mds.mds_optimize": _observe_mds_optimize,
    "mds.lcu_column_demo": _observe_column_demo,
}


class Tracer:
    """Per-name call counts and self times, plus observer counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [0.0]  # child time of each open span; index 0 is the root
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    def _wrap(self, name: str, fn):
        tracer = self
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                tracer.self_s[name] += duration - children
                tracer.calls[name] += 1
            if observer is not None:
                # observer time is tracing cost: keep it out of the parent's self time
                start = clock()
                observer(signature.bind(*args, **kwargs).arguments, result, tracer.counts)
                stack[-1] += clock() - start
            return result

        return wrapper

    def _build_wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every public function."""
        out = {}
        for short in MODULES:
            mod = importlib.import_module(f"qdescent.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                out[id(obj)] = (obj, self._wrap(GROUPS.get(name, name), obj))
        return out

    def _wrapper_for(self, obj):
        hit = self._wrappers.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "qdescent" or n.startswith("qdescent.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrapper_for(obj)
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for name in CLASSES:
            short, cls_name = name.split(".")
            cls = getattr(sys.modules[f"qdescent.{short}"], cls_name)
            self._patched.append((cls, "__init__", cls.__dict__["__init__"]))
            cls.__init__ = self._wrap(name, cls.__init__)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
