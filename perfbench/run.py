"""wlra benchmark: per-algorithm throughput and time-to-target on seeded workloads.

    python3 perfbench/run.py --workload completion-tall --seed 3 --seconds 30 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/``. One process, one client, closed loop: each call starts when the
previous one has returned. A run generates the workload's instance from
``--seed``, writes it as a triplet CSV, then repeats *rounds* until
``--seconds`` have passed (at least three). A round is what
``wlra.cli.run_experiment`` does, once per algorithm: load the CSV, build
weights, impute, truncated-SVD init, then ``make_policy`` plus the solver,
and the trace-CSV export. Every call is timed from outside and scaled to a
reference machine speed (see SpeedProbe); metrics are medians over the
rounds. Every output is checked; see README.md.

With ``--trace 1`` the run alternates untraced and traced rounds and
reports per-layer metrics from the spans instead. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: steadier timings on a small
# shared machine, and the same setting on both sides of a comparison.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import (  # noqa: E402
    BIG_K,
    LAM,
    RUNS,
    TRACE_EVERY_ALS,
    TRACE_EVERY_SGD,
    WORKLOADS,
    imputed,
    make_instance,
    reference_init_cost,
    write_csv,
)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
ORTHO_TOL = 1e-8  # orthonormality defect ||X^T X - I||_F of U and V
INIT_RTOL = 1e-6  # set-up cost against the LAPACK reference
TRACE_COST_RTOL = 1e-9  # last trace cost against the benchmark's own cost
UNACCOUNTED_FLOOR_S = 0.01  # timer and glue slack in the span accounting check
# Median time of one SpeedProbe.run() on the reference machine (2-core VM,
# numpy 2.4.6, one OpenBLAS thread).
PROBE_REFERENCE_S = 0.015

# name -> (unit, better, bound); every workload reports all of them.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "sgd_manifold_us_per_iter": ("us", "lower", 0.25),
    "sgd_manifold_adaptive_us_per_iter": ("us", "lower", 0.25),
    "sgd_euclidean_us_per_iter": ("us", "lower", 0.25),
    "als_manifold_time_to_target_s": ("s", "lower", 0.25),
    "als_euclidean_time_to_target_s": ("s", "lower", 0.25),
    "total_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.1),
}


def import_wlra():
    """Import the program from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import wlra
        import wlra.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import wlra from {src}: {exc}")
    if Path(wlra.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: wlra imported from {wlra.__file__}, not {src}")
    return wlra


class SpeedProbe:
    """Fixed work owned by the benchmark, timed between the calls of every
    round to measure how fast the machine is running at the moment.

    The machine is shared: its speed drifts by tens of percent over
    seconds to minutes, moving every timing of a round together, which
    medians cannot remove. Timings are therefore reported at the reference
    speed: each time measured in a round is multiplied by
    PROBE_REFERENCE_S / (median probe time of that round). The probe mixes
    what the library does: small-array calls from a Python loop, a tall QR,
    a small SVD and an ``np.add.at`` scatter. It never calls the program,
    so a change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tall = rng.standard_normal((2000, 8))
        self.square = rng.standard_normal((200, 60))
        self.idx = rng.integers(0, 2000, 30000)
        self.vals = rng.standard_normal((30000, 8))

    def run(self) -> float:
        t0 = time.perf_counter()
        tall, acc = self.tall, 0.0
        for _ in range(2):
            for i in range(600):
                g = np.zeros_like(tall[:64])
                g[i % 64] = tall[i] * tall[i + 1].sum()
                acc += float(g[i % 64] @ tall[i])
            np.linalg.qr(tall)
            np.linalg.svd(self.square, full_matrices=False)
            np.add.at(np.zeros_like(tall), self.idx, self.vals)
        return time.perf_counter() - t0


@dataclass
class Solved:
    label: str
    final: object
    trace: object
    policy: object = None
    target: float | None = None
    error: str | None = None  # set when the trace export raised


@dataclass
class Round:
    total_s: float = 0.0
    setup_s: float = 0.0
    call_s: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that brings this round's times to the reference speed."""
        return PROBE_REFERENCE_S / median(self.probes)
    setup: object = None
    solved: list = field(default_factory=list)


class Bench:
    """One workload instance and the operations the benchmark makes on it."""

    def __init__(self, wlra, workload, seed: int):
        self.w = wlra
        self.wl = workload
        self.seed = seed
        self.inst = make_instance(workload, seed)
        self.csv = OUT_DIR / f"{workload.name}-seed{seed}.csv"
        write_csv(self.inst, self.csv)
        self.ref_cost = reference_init_cost(self.inst)
        self.ref_dense = imputed(self.inst)
        self.iota = wlra.cli.resolve_iota(
            wlra.cli.ExperimentSpec(
                algorithm="als-manifold", k=workload.k, seed=seed,
                budget=wlra.Budget(max_iterations=1), lam=LAM,
            )
        )
        self.budgets = dict(workload.sgd_iters)
        self.targets = {label: r * self.ref_cost for label, r in workload.targets.items()}
        self.ops: list[tuple[str, str | None]] = []
        self.probe = SpeedProbe()

    # -- operations ---------------------------------------------------------

    def setup(self, rec):
        w, inst = self.w, self.inst
        tm = rec.call("data_io.load_triplets", w.data_io.load_triplets, self.csv)
        data = rec.call(
            "data_io.problem_from_triplets", w.data_io.problem_from_triplets,
            tm, inst.k, inst.raw_weights,
        )
        dense = rec.call(
            "svd_init.fill_missing_column_mean", w.fill_missing_column_mean, data
        )
        point0, pair0 = rec.call(
            "svd_init.truncated_svd_init", w.truncated_svd_init, dense, inst.k
        )
        return tm, data, dense, point0, pair0

    def solve(self, label: str, setup, iters: int, rec) -> Solved:
        w = self.w
        _, data, _, point0, pair0 = setup
        algorithm, adaptive = RUNS[label]
        budget = w.Budget(max_iterations=iters)
        if algorithm.startswith("als"):
            params = w.ArmijoParams(iota=self.iota)
            if algorithm == "als_manifold":
                args = (point0, data, LAM, params, budget, TRACE_EVERY_ALS)
            elif algorithm == "als_euclidean":
                args = (pair0, data, LAM, params, budget, TRACE_EVERY_ALS)
            else:
                args = (point0, data, params, budget, TRACE_EVERY_ALS)
            final, trace = rec.call(f"solvers.{label}", getattr(w, algorithm), *args)
            return Solved(label, final, trace, target=self.targets[label])
        if algorithm == "sgd_euclidean":
            kind, init, lam = w.PolicyKind.EUCLIDEAN, pair0, LAM
            init_sq = w.confinement_euclidean(pair0)
        else:
            pw = algorithm == "sgd_pw"
            kind = w.PolicyKind.POSITIVE_WEIGHTS if pw else w.PolicyKind.MANIFOLD
            init, lam = point0, None if pw else LAM
            init_sq = w.confinement_manifold(point0)
        policy = rec.call(
            "step_policy.make_policy", w.make_policy, kind, data, init_sq, lam, BIG_K
        )
        config = w.SolverConfig(
            kind=kind, policy=policy, budget=budget, seed=self.seed,
            trace_every=TRACE_EVERY_SGD, adaptive=adaptive,
        )
        final, trace = rec.call(f"solvers.{label}", getattr(w, algorithm), init, data, config)
        return Solved(label, final, trace, policy=policy)

    def export(self, solved: Solved, rec) -> None:
        path = OUT_DIR / f"{self.wl.name}-{solved.label}-trace.csv"
        rec.call("cli.write_trace_csv", self.w.cli.write_trace_csv, solved.trace, path)

    # -- correctness --------------------------------------------------------

    def cost(self, it) -> float:
        inst = self.inst
        if hasattr(it, "u"):
            pred = np.einsum("tk,k,tk->t", it.u[inst.rows], it.x, it.v[inst.cols])
        else:
            pred = np.einsum("tk,tk->t", it.x[inst.rows], it.y[inst.cols])
        return float(np.dot(inst.weights, (inst.vals - pred) ** 2))

    @staticmethod
    def ortho_defect(it) -> float:
        if not hasattr(it, "u"):
            return 0.0
        k = it.x.size
        return max(
            float(np.linalg.norm(f.T @ f - np.eye(k))) for f in (it.u, it.v)
        )

    def check_setup(self, setup) -> str | None:
        tm, _, dense, point0, pair0 = setup
        inst = self.inst
        if not (
            np.array_equal(tm.rows, inst.rows)
            and np.array_equal(tm.cols, inst.cols)
            and np.array_equal(tm.vals, inst.vals)
        ):
            return "load_triplets did not return the triplets written"
        if not np.allclose(dense, self.ref_dense, rtol=1e-12, atol=1e-12):
            return "column-mean imputation differs from the reference"
        if self.ortho_defect(point0) > ORTHO_TOL:
            return f"init orthonormality defect {self.ortho_defect(point0):.3e}"
        for name, it in (("point", point0), ("pair", pair0)):
            c = self.cost(it)
            if not abs(c - self.ref_cost) <= INIT_RTOL * self.ref_cost:
                return f"init {name} cost {c!r} vs LAPACK reference {self.ref_cost!r}"
        return None

    def check_solved(self, s: Solved, iters: int) -> str | None:
        costs = s.trace.costs
        if not np.all(np.isfinite(costs)):
            return "non-finite trace cost"
        if s.trace.records[-1].t != iters:
            return f"trace ends at t={s.trace.records[-1].t}, budget {iters}"
        own = self.cost(s.final)
        if not abs(own - costs[-1]) <= TRACE_COST_RTOL * max(own, 1e-300):
            return f"final trace cost {costs[-1]!r} vs recomputed {own!r}"
        defect = self.ortho_defect(s.final)
        if defect > ORTHO_TOL:
            return f"orthonormality defect {defect:.3e}"
        if s.policy is not None:
            f = s.final
            rho = float(f.x @ f.x) if hasattr(f, "u") else float(np.sum(f.x**2) + np.sum(f.y**2))
            if rho > s.policy.rho1:
                return f"confinement {rho!r} > rho1 {s.policy.rho1!r}"
            lo, hi = self.wl.sgd_final[s.label]
            ratio = own / self.ref_cost
            if not lo <= ratio <= hi:
                return f"final cost {ratio:.6f} x reference init cost, outside [{lo}, {hi}]"
        elif not costs[-1] <= s.target:
            return f"final cost {costs[-1]!r} above target {s.target!r}"
        return None

    def op(self, name: str, fn):
        """Run one operation; an exception marks it failed. Returns the
        result, or None on failure."""
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            traceback.print_exc(file=sys.stderr)
            self.record(name, f"raised {type(exc).__name__}: {exc}")
            return None
        return result

    def record(self, name: str, reason: str | None) -> None:
        self.ops.append((name, reason))
        if reason is not None:
            print(f"perfbench: FAILED {self.wl.name} {name}: {reason}", file=sys.stderr)

    # -- phases -------------------------------------------------------------

    def find_targets(self) -> None:
        """Untimed warm-up: the iteration budget of each time-to-target call
        is the first traced iteration at or below the target. ALS draws no
        random numbers, so that iteration is deterministic."""
        rec = spans.NullRecorder()
        setup = self.op("setup", lambda: self.setup(rec))
        if setup is None:
            raise SystemExit("perfbench: set-up failed; nothing to measure")
        self.record("setup", self.check_setup(setup))
        for label in self.wl.targets:
            s = self.op(label, lambda: self.solve(label, setup, self.wl.als_cap, rec))
            if s is None:
                continue
            reason = None
            hits = [r.t for r in s.trace.records if r.cost_unregularized <= s.target]
            if not np.all(np.isfinite(s.trace.costs)):
                reason = "non-finite trace cost"
            elif not hits:
                reason = (
                    f"target {s.target!r} not reached within {self.wl.als_cap} "
                    f"iterations (best {min(s.trace.costs)!r})"
                )
            else:
                self.budgets[label] = hits[0]
            self.record(f"{label} warm-up", reason)

    def round(self, rec) -> Round:
        rnd = Round()
        rnd.probes.append(self.probe.run())
        t0 = time.perf_counter()
        rnd.setup = self.op("setup", lambda: self.setup(rec))
        rnd.setup_s = time.perf_counter() - t0
        rnd.probes.append(self.probe.run())
        if rnd.setup is None:
            raise SystemExit("perfbench: set-up failed; nothing to measure")
        for label in self.wl.runs:
            if label not in self.budgets:
                continue
            a = time.perf_counter()
            s = self.op(label, lambda: self.solve(label, rnd.setup, self.budgets[label], rec))
            b = time.perf_counter()
            if s is None:
                continue
            rnd.call_s[label] = b - a
            rnd.solved.append(s)
            try:
                self.export(s, rec)
            except Exception as exc:  # noqa: BLE001 - fails the solver's operation
                s.error = f"trace export raised {type(exc).__name__}: {exc}"
            rnd.probes.append(self.probe.run())
        rnd.total_s = time.perf_counter() - t0 - sum(rnd.probes[1:])
        return rnd

    def check_round(self, rnd: Round) -> None:
        self.record("setup", self.check_setup(rnd.setup))
        for s in rnd.solved:
            self.record(s.label, s.error or self.check_solved(s, self.budgets[s.label]))
        rnd.setup = None
        rnd.solved = []

    def rounds(self, seconds: float, trace: bool):
        """Rounds until the time is up, starting none that would overrun it.
        In trace mode rounds alternate untraced / traced."""
        plain, traced, recorders = [], [], []
        start = time.perf_counter()
        while True:
            if trace and len(traced) < len(plain):
                rec = spans.Recorder()
                with spans.installed(rec, self.w) as missing:
                    rnd = self.round(rec)
                recorders.append((rec, missing))
                traced.append(rnd)
            else:
                rnd = self.round(spans.NullRecorder())
                plain.append(rnd)
            self.check_round(rnd)
            elapsed = time.perf_counter() - start
            if trace:
                enough = len(traced) == len(plain)
                next_s = 2 * elapsed / (len(plain) + len(traced))
            else:
                enough = len(plain) >= MIN_ROUNDS
                next_s = elapsed / len(plain)
            if enough and elapsed + next_s > seconds:
                return plain, traced, recorders


def end_to_end(bench: Bench, plain: list[Round], scaled: bool = True) -> dict:
    """Medians over the rounds of each time, scaled to the reference speed
    round by round unless ``scaled`` is false."""

    def med(times):
        return median(t * (r.scale if scaled else 1.0) for r, t in times if t is not None)

    m = {"setup_s": med((r, r.setup_s) for r in plain)}
    for label in bench.wl.runs:
        if not any(label in r.call_s for r in plain):
            continue
        t = med((r, r.call_s.get(label)) for r in plain)
        if label in bench.wl.sgd_iters:
            m[f"{label}_us_per_iter"] = t / bench.budgets[label] * 1e6
        else:
            m[f"{label}_time_to_target_s"] = t
    m["total_s"] = med((r, r.total_s) for r in plain)
    m["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def per_layer(bench: Bench, plain, traced, recorders) -> tuple[dict, str | None]:
    iters = {label: bench.budgets[label] for label in bench.wl.runs if label in bench.budgets}
    to_target = sum(bench.budgets[label] for label in bench.wl.targets if label in bench.budgets)
    per_round = [spans.layer_metrics(rec, iters, to_target) for rec, _ in recorders]
    out = {name: median([r[name] for r in per_round]) for name in per_round[0]}
    e2e = end_to_end(bench, plain)
    out["e2e.sgd_pw_us_per_iter"] = e2e.get("sgd_pw_us_per_iter", 0.0)
    out["e2e.als_pw_time_to_target_s"] = e2e.get("als_pw_time_to_target_s", 0.0)
    out["trace.overhead_s"] = median([r.total_s * r.scale for r in traced]) - median(
        [r.total_s * r.scale for r in plain]
    )
    # Every span's self time summed is the root spans' time; what the round
    # spent outside any span is benchmark glue and must stay within the
    # tracing overhead.
    unaccounted = [r.total_s - rec.root_s() for r, (rec, _) in zip(traced, recorders)]
    out["trace.unaccounted_s"] = median(unaccounted)
    problem = None
    if out["trace.unaccounted_s"] > max(out["trace.overhead_s"], 0.0) + UNACCOUNTED_FLOOR_S:
        problem = (
            f"spans leave {out['trace.unaccounted_s']:.4f} s of the traced round "
            f"unaccounted, more than the overhead {out['trace.overhead_s']:.4f} s"
        )
    return out, problem


def environment(wlra) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "wlra": getattr(wlra, "__version__", "?"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wlra = import_wlra()
    OUT_DIR.mkdir(exist_ok=True)
    bench = Bench(wlra, WORKLOADS[args.workload], args.seed)
    try:
        bench.find_targets()
        plain, traced, recorders = bench.rounds(args.seconds, bool(args.trace))
    finally:
        bench.csv.unlink(missing_ok=True)

    problem = None
    if args.trace:
        values, problem = per_layer(bench, plain, traced, recorders)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        recorders[-1][0].dump(spans_path)
    else:
        values = end_to_end(bench, plain)
        units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)

    failed = sum(1 for _, reason in bench.ops if reason is not None)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    correct = failed == 0 and problem is None and len(metrics) == len(units)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops_attempted": len(bench.ops),
        "ops_failed": failed,
        "failures": [f"{n}: {r}" for n, r in bench.ops if r is not None],
        "iteration_budgets": bench.budgets,
        "samples": {
            "setup_s": [r.setup_s for r in plain],
            "total_s": [r.total_s for r in plain],
            **{label: [r.call_s.get(label) for r in plain] for label in bench.wl.runs},
        },
        "raw_metrics": end_to_end(bench, plain, scaled=False),
        "probes": [r.probes for r in plain],
        "reference_init_cost": bench.ref_cost,
        "unwrapped": sorted({name for _, missing in recorders for name in missing}),
        "environment": environment(wlra),
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    for name, mv in metrics.items():
        print(f"{args.workload:>16} {name:<44} {mv['value']:>14.6g} {mv['unit']}")
    print(json.dumps({k: detail[k] for k in ("ops_attempted", "ops_failed", "environment")}))
    print(
        json.dumps(
            {"correct": correct, "attempted": len(bench.ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
