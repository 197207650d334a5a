"""Span recording for the traced run, and the per-layer metrics derived from it.

A span is (name, start, end, parent). Spans are kept in memory in parallel
lists and written out once, when the run ends. The timing wrappers are
installed only while a traced round runs, on the names each caller in
``wlra`` actually resolves (the modules use ``from .x import y``, so
wrapping ``wlra.geometry.retract`` alone would miss the solvers' calls).
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from workloads import RUNS

# (module, attribute, span name). A cost function gets one span name for all
# three variants; ``model.cost_unregularized`` is left unwrapped so that the
# cost_manifold/cost_euclidean spans are not split into nested cost spans.
PATCHES = [
    ("solvers", "sample_index", "model.sample_index"),
    ("solvers", "stoch_grad_manifold", "model.stoch_grad_manifold"),
    ("solvers", "stoch_grad_euclidean", "model.stoch_grad_euclidean"),
    ("solvers", "stoch_grad_pw", "model.stoch_grad_pw"),
    ("solvers", "full_grad_manifold", "model.full_grad_manifold"),
    ("solvers", "full_grad_euclidean", "model.full_grad_euclidean"),
    ("solvers", "full_grad_pw", "model.full_grad_pw"),
    ("solvers", "cost_unregularized", "model.cost_eval"),
    ("solvers", "cost_manifold", "model.cost_eval"),
    ("solvers", "cost_euclidean", "model.cost_eval"),
    ("solvers", "retract", "geometry.retract"),
    ("solvers", "project_tangent", "geometry.project_tangent"),
    ("solvers", "adaptive_A_B", "step_policy.adaptive_A_B"),
    ("solvers", "armijo_step", "solvers.armijo_step"),
    ("model", "project_tangent", "geometry.project_tangent"),
    ("geometry", "qf", "geometry.qf"),
    ("model.FactorPair", "add_scaled", "model.FactorPair.add_scaled"),
]

# Layer functions whose calls and self time are reported.
COUNTED = [
    "geometry.qf",
    "geometry.retract",
    "geometry.project_tangent",
    "model.sample_index",
    "model.stoch_grad_manifold",
    "model.stoch_grad_euclidean",
    "model.stoch_grad_pw",
    "model.FactorPair.add_scaled",
    "model.cost_eval",
    "solvers.bookkeeping_cost",
    "model.full_grad_manifold",
    "model.full_grad_euclidean",
    "model.full_grad_pw",
    "solvers.armijo_step",
    "step_policy.adaptive_A_B",
]
# Calls made by the benchmark itself, once per round: total seconds.
TOP_LEVEL = [
    "data_io.load_triplets",
    "data_io.problem_from_triplets",
    "svd_init.fill_missing_column_mean",
    "svd_init.truncated_svd_init",
    "step_policy.make_policy",
    "cli.write_trace_csv",
]
SGD_MANIFOLD_RUNS = ("sgd_manifold", "sgd_manifold_adaptive", "sgd_pw")

# name -> (unit, better); the traced run emits exactly these.
PER_LAYER = {}
for _name in COUNTED:
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
PER_LAYER["solvers.armijo_step.backtracks"] = ("count", "lower")
PER_LAYER["solvers.armijo.accept_ratio"] = ("ratio", "higher")
PER_LAYER["geometry.retract.retry_ratio"] = ("ratio", "lower")
PER_LAYER["solvers.iters_to_target"] = ("count", "lower")
PER_LAYER["solvers.iterations"] = ("count", "lower")
for _label in RUNS:
    PER_LAYER[f"solvers.{_label}.self_s"] = ("s", "lower")
for _name in TOP_LEVEL:
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
# Untraced end-to-end figures of the positive-weights runs, which exist only
# on fully observed workloads (0 elsewhere), so they cannot be end-to-end
# metrics that every workload reports.
PER_LAYER["e2e.sgd_pw_us_per_iter"] = ("us", "lower")
PER_LAYER["e2e.als_pw_time_to_target_s"] = ("s", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["trace.unaccounted_s"] = ("s", "lower")
PER_LAYER["trace.spans"] = ("count", "lower")


class NullRecorder:
    """Untraced rounds: call straight through."""

    def call(self, name, fn, *args):
        return fn(*args)


class Recorder:
    """In-memory span store; ``call`` and the installed wrappers add spans."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.backtracks: dict[int, int] = {}
        self._stack = [-1]

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        if name == "solvers.armijo_step":

            def wrapper(*args, **kwargs):
                idx = len(self.names)
                result = self.call(name, fn, *args, **kwargs)
                self.backtracks[idx] = result[1]
                return result

        else:

            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)

        return wrapper

    def root_s(self) -> float:
        """Time covered by top-level spans, which equals every span's self
        time summed."""
        return sum(
            self.ends[i] - self.starts[i] for i, p in enumerate(self.parents) if p < 0
        )

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": self.starts[i],
                            "end": self.ends[i],
                            "parent": self.parents[i],
                        }
                    )
                    + "\n"
                )


@contextmanager
def installed(rec: Recorder, wlra):
    """Wrap every PATCHES target for the duration of the block; returns the
    list of targets the program no longer has (left unwrapped)."""
    saved, missing = [], []
    try:
        for owner_path, attr, name in PATCHES:
            owner = wlra
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            saved.append((owner, attr, fn))
            setattr(owner, attr, rec.wrap(name, fn))
        yield missing
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(rec: Recorder, iterations: dict[str, int], iters_to_target: int) -> dict:
    """Per-layer figures of one traced round.

    Self time is a span's duration minus the time its child spans cover.
    ``iterations`` maps each run label of the round to its iteration count.
    """
    n = len(rec.names)
    dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(rec.parents):
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total: dict[str, float] = {}
    solver_spans = {f"solvers.{label}" for label in RUNS}
    sgd_manifold_spans = {f"solvers.{label}" for label in SGD_MANIFOLD_RUNS}
    retracts_in_sgd = 0

    def add(name, i):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        total[name] = total.get(name, 0.0) + dur[i]

    for i, name in enumerate(rec.names):
        add(name, i)
        parent = rec.names[rec.parents[i]] if rec.parents[i] >= 0 else None
        if name == "model.cost_eval" and parent in solver_spans:
            add("solvers.bookkeeping_cost", i)
        if name == "geometry.retract" and parent in sgd_manifold_spans:
            retracts_in_sgd += 1

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    backtracks = sum(rec.backtracks.values())
    armijo_calls = calls.get("solvers.armijo_step", 0)
    out["solvers.armijo_step.backtracks"] = backtracks
    out["solvers.armijo.accept_ratio"] = (
        armijo_calls / (armijo_calls + backtracks) if armijo_calls else 0.0
    )
    sgd_manifold_iters = sum(iterations.get(label, 0) for label in SGD_MANIFOLD_RUNS)
    out["geometry.retract.retry_ratio"] = (
        retracts_in_sgd / sgd_manifold_iters if sgd_manifold_iters else 0.0
    )
    out["solvers.iters_to_target"] = iters_to_target
    out["solvers.iterations"] = sum(iterations.values())
    for label in RUNS:
        out[f"solvers.{label}.self_s"] = self_s.get(f"solvers.{label}", 0.0)
    for name in TOP_LEVEL:
        out[f"{name}.s"] = total.get(name, 0.0)
    out["trace.spans"] = n
    return out
