"""Benchmark harness: experiment specs, trace export, and the command line.

Subcommands: ingest, sample, synth, init-svd, run, compare. Trace CSVs have
the header ``t,elapsed_seconds,cost_unregularized``. By default the elapsed
column is written as 0.0 so that a fixed seed yields byte-identical output;
pass --wall-clock to export measured times instead.
"""

from __future__ import annotations

import argparse
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial

from .data_io import (
    TripletMatrix,
    load_triplets,
    problem_from_triplets,
    read_utf8,
    sample_submatrix,
    synth_lowrank,
    write_triplets,
)
from .errors import BacktrackLimit, LambdaOutOfRange, MismatchedData, ShapeMismatch, WlraError
from .model import (
    ProblemData,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    require_positive_weights,
)
from .solvers import (
    ArmijoParams,
    Budget,
    IterTrace,
    SolverConfig,
    als_euclidean,
    als_manifold,
    als_pw,
    sgd_euclidean,
    sgd_manifold,
    sgd_pw,
)
from .step_policy import PolicyKind, check_big_k, make_policy
from .svd_init import fill_missing_column_mean, truncated_svd_init

# Each algorithm's solver, the step-policy kind of its family, and the family keys it reads.
_SOLVERS = {
    "sgd-manifold": (sgd_manifold, PolicyKind.MANIFOLD, ("lambda", "bigK", "adaptive")),
    "sgd-euclidean": (sgd_euclidean, PolicyKind.EUCLIDEAN, ("lambda", "bigK", "adaptive")),
    "sgd-pw": (sgd_pw, PolicyKind.POSITIVE_WEIGHTS, ("lambda", "bigK", "adaptive")),
    "als-manifold": (als_manifold, PolicyKind.MANIFOLD, ("lambda", "iota", "alpha-bar", "beta")),
    "als-euclidean": (als_euclidean, PolicyKind.EUCLIDEAN, ("lambda", "iota", "alpha-bar", "beta")),
    "als-pw": (als_pw, PolicyKind.POSITIVE_WEIGHTS, ("iota", "alpha-bar", "beta")),
}
ALGORITHMS = tuple(_SOLVERS)
_FAMILY_KEYS = {key for *_, keys in _SOLVERS.values() for key in keys}

# Line-search iota values tuned for lambda in {1e-2, 1e-4, 1e-6}; they were
# fitted to one specific ratings sample and are only starting points.
IOTA_PRESETS = {
    1e-2: 108.0 / 270000.0,
    1e-4: 11.0 / 270000000.0,
    1e-6: 1.0 / 54000000000.0,
}
DEFAULT_IOTA = 1e-4

# K values tuned per algorithm on the same sample; see --bigK preset.
BIGK_PRESETS = {
    "sgd-manifold": {1e-2: 1e3, 1e-4: 1e3, 1e-6: 1e4},
    "sgd-euclidean": {1e-2: 1e4, 1e-4: 1.0, 1e-6: 1.0},
}


# The flag of each parameter that StepPolicy's and ArmijoParams' refusals name.
_FLAGS = {"K": "--bigK", "iota": "--iota", "alpha_bar": "--alpha-bar", "beta": "--beta"}


def _solver_entry(algorithm: str, values: dict) -> tuple:
    """`_SOLVERS[algorithm]`; refuses an unknown one, or a key set in `values` it does not read."""
    if algorithm not in _SOLVERS:
        raise MismatchedData(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    for key, value in values.items():
        if key in _FAMILY_KEYS and key not in _SOLVERS[algorithm][2] and value is not None:
            raise MismatchedData(f"--{key}: {algorithm} does not read it")
    return _SOLVERS[algorithm]


@dataclass(frozen=True)
class ExperimentSpec:
    """One run, every value checked when it is built. None is the solver's default (alpha_bar,
    beta, trace cadence, K = 1, not adaptive) or `resolve_iota`'s; an unread value must be None."""

    algorithm: str
    k: int
    seed: int
    budget: Budget
    lam: float | None = None
    big_k: float | None = None
    iota: float | None = None
    alpha_bar: float | None = None
    beta: float | None = None
    trace_every: int | None = None
    adaptive: bool | None = None
    name: str | None = None

    def __post_init__(self):
        given = {"lambda": self.lam, "bigK": self.big_k, "adaptive": self.adaptive,
                 "iota": self.iota, "alpha-bar": self.alpha_bar, "beta": self.beta}
        kind = _solver_entry(self.algorithm, given)[1]
        # `or 0.0` refuses None; the chained test refuses nan as well.
        if kind is not PolicyKind.POSITIVE_WEIGHTS and not 0 < (self.lam or 0.0) < math.inf:
            raise MismatchedData(f"--lambda must be positive and finite, got {self.lam}")
        if self.k < 1:
            raise MismatchedData(f"--k: need k >= 1, got {self.k}")
        if self.seed < 0:
            raise MismatchedData(f"--seed must be non-negative, got {self.seed}")
        if self.trace_every is not None and self.trace_every < 1:
            raise MismatchedData(f"--trace-every must be >= 1, got {self.trace_every}")
        try:  # by StepPolicy's and ArmijoParams' rules; what the run does not read is None
            check_big_k(1.0 if self.big_k is None else self.big_k)
            self.armijo_params()
        except (LambdaOutOfRange, ShapeMismatch) as exc:
            words = str(exc).split()
            flag = next(flag for name, flag in _FLAGS.items() if name in words)
            raise MismatchedData(f"{flag}: {exc}") from None

    @property
    def label(self) -> str:
        return self.name or self.algorithm

    def armijo_params(self) -> ArmijoParams:
        """The line search's parameters; alpha_bar or beta left None is ArmijoParams'."""
        given = {"alpha_bar": self.alpha_bar, "beta": self.beta}
        return ArmijoParams(resolve_iota(self), **{p: v for p, v in given.items() if v is not None})


def _lookup_preset(table: dict, lam: float | None, default=None):
    """The value of the key within 1e-15 (relative) of lam, else `default`."""
    if lam is None:
        return default
    return next((v for x, v in table.items() if abs(lam - x) <= 1e-15 * max(1.0, x)), default)


def resolve_iota(spec: ExperimentSpec) -> float:
    if spec.iota is not None:
        return spec.iota
    return _lookup_preset(IOTA_PRESETS, spec.lam, DEFAULT_IOTA)


def _check_k(tm: TripletMatrix, k: int) -> None:
    """Refuse a rank outside 1 <= k <= min(m, n), naming --k; the bound is
    known only once the triplets are loaded."""
    if k < 1:
        raise MismatchedData(f"--k: need k >= 1, got {k}")
    if k > min(tm.m, tm.n):
        raise MismatchedData(f"--k: need k <= min(m, n) = {min(tm.m, tm.n)}, got {k}")


def _set_up(tm: TripletMatrix, k: int) -> tuple:
    """Problem data, and the truncated-SVD init (point, pair) of its imputation."""
    _check_k(tm, k)
    data = problem_from_triplets(tm, k)
    point0, pair0 = truncated_svd_init(fill_missing_column_mean(data), k)
    return data, point0, pair0


def _solver_call(spec: ExperimentSpec, data: ProblemData, point0, pair0) -> partial:
    """`spec`'s solver call from the shared set-up, after the checks that need
    the data: the positive-weights requirement, and the policy and SolverConfig
    or the ArmijoParams. An unset trace_every keeps the solver's cadence."""
    solver, kind, reads = _SOLVERS[spec.algorithm]
    if kind is PolicyKind.POSITIVE_WEIGHTS:
        require_positive_weights(data)
    euclidean = kind is PolicyKind.EUCLIDEAN
    init = pair0 if euclidean else point0
    every = {} if spec.trace_every is None else {"trace_every": spec.trace_every}
    if "iota" in reads:
        lam = (spec.lam,) if "lambda" in reads else ()
        return partial(solver, init, data, *lam, spec.armijo_params(), spec.budget, **every)
    init_sq = confinement_euclidean(init) if euclidean else confinement_manifold(init)
    try:  # the spec checked K, so a refusal here is of lambda, or of lambda with a large K
        policy = make_policy(kind, data, init_sq, spec.lam, spec.big_k or 1.0)  # None is K = 1
    except LambdaOutOfRange as exc:
        flags = "--lambda" if spec.big_k in (None, 1.0) else "--lambda, --bigK"
        raise MismatchedData(f"{flags}: {exc}") from None
    adaptive = bool(spec.adaptive)
    config = SolverConfig(kind, policy, spec.budget, spec.seed, adaptive=adaptive, **every)
    return partial(solver, init, data, config)


def _run_specs(specs: list[ExperimentSpec], tm: TripletMatrix) -> list[IterTrace]:
    """Set up once, build every spec's solver call, and only then run them in order."""
    setup = _set_up(tm, specs[0].k)
    calls = [_solver_call(spec, *setup) for spec in specs]
    try:  # raised by a line search only, whose first trial is --alpha-bar long
        return [call()[1] for call in calls]
    except BacktrackLimit as exc:
        raise MismatchedData(f"--alpha-bar, --beta: {exc}") from None


def run_experiment(spec: ExperimentSpec, tm: TripletMatrix) -> IterTrace:
    """Impute, initialize from the truncated SVD, and run the chosen solver."""
    return _run_specs([spec], tm)[0]


def write_trace_csv(trace: IterTrace, path, wall_clock: bool = False) -> None:
    """Locale-independent CSV: '.' decimals, LF endings, repr round-tripping."""
    with open(path, "w", newline="\n") as fh:
        fh.write("t,elapsed_seconds,cost_unregularized\n")
        for rec in trace.records:
            elapsed = float(rec.elapsed_seconds) if wall_clock else 0.0
            fh.write(f"{rec.t},{elapsed!r},{float(rec.cost_unregularized)!r}\n")


# ---------------------------------------------------------------------------
# Trace merging for `compare`.

# Rows a time-aligned merge may build: 10^6 rows of two runs take about 6 s to form and write.
MAX_TIME_ROWS = 10**6


def check_alignment(align: str, bin_width: float) -> None:
    """Refuse an unknown alignment, or a bin not positive and finite (NaN too) under seconds."""
    if align not in ("iterations", "seconds"):
        raise MismatchedData(f"unknown alignment {align!r}")
    if align == "seconds" and not 0 < bin_width < math.inf:
        raise MismatchedData(f"--bin must be positive and finite, got {bin_width}")


def merge_on_iterations(
    traces: list[IterTrace], names: list[str]
) -> tuple[list[str], list[list[float]]]:
    """Align traces on iteration number; missing rows carry the last cost forward."""
    grid = sorted({int(rec.t) for tr in traces for rec in tr.records})
    return ["t"] + list(names), _carried_forward(traces, lambda r: r.t, grid)


def merge_on_time(
    traces: list[IterTrace], names: list[str], bin_width: float, horizon: float | None = None
) -> tuple[list[str], list[list[float]]]:
    """Align traces on elapsed-time bins (last observation carried forward)."""
    check_alignment("seconds", bin_width)
    if horizon is None:
        horizon = max(tr.records[-1].elapsed_seconds for tr in traces)
    nbins = horizon / bin_width + 1e-9  # checked before flooring, as it may be inf
    if nbins >= MAX_TIME_ROWS + 1:
        raise MismatchedData(f"--bin {bin_width} gives {nbins:.3g} rows (at most {MAX_TIME_ROWS})")
    edges = [b * bin_width for b in range(1, int(nbins) + 1)]
    return ["seconds"] + list(names), _carried_forward(traces, lambda r: r.elapsed_seconds, edges)


def _carried_forward(traces: list[IterTrace], key, grid: list) -> list[list[float]]:
    """One row per grid value: the value, then each trace's cost at its last
    record with key <= the value (its first record if none is that small).
    `IterTrace.append` keeps both keys non-decreasing, so one bisection finds it."""
    keyed = [([key(rec) for rec in tr.records], tr.records) for tr in traces]
    return [
        [g] + [recs[max(bisect_right(keys, g) - 1, 0)].cost_unregularized for keys, recs in keyed]
        for g in grid
    ]


def compare_experiments(
    specs: list[ExperimentSpec], tm: TripletMatrix, out, align: str = "iterations",
    bin_width: float = 0.1,
) -> tuple[list[str], list[list[float]]]:
    """Run several specs from one shared set-up and write one merged cost CSV."""
    check_alignment(align, bin_width)
    if not specs:
        raise MismatchedData("compare needs at least one run spec")
    if len({s.k for s in specs}) != 1:
        raise MismatchedData("compare runs must share the same k")
    traces = _run_specs(specs, tm)
    names = [s.label for s in specs]
    if align == "iterations":
        header, rows = merge_on_iterations(traces, names)
    else:
        header, rows = merge_on_time(traces, names, bin_width)
    with open(out, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            first = str(int(row[0])) if align == "iterations" else repr(float(row[0]))
            fh.write(",".join([first] + [repr(float(v)) for v in row[1:]]) + "\n")
    return header, rows


# ---------------------------------------------------------------------------
# Command line.


def _bool(raw: str) -> bool:
    """1/0, true/false or yes/no, in any case; any other value is malformed."""
    value = raw.lower()
    if value not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(raw)
    return value in ("1", "true", "yes")


# Keys of `run` flags, config lines and `--run` specs, with their casts.
# Each but `name` (a `compare` label) is also the `run` flag --<key>.
_RUN_KEYS = {
    "algorithm": str,
    "k": int,
    "lambda": float,
    "bigK": str,
    "iota": float,
    "alpha-bar": float,
    "beta": float,
    "seed": int,
    "iters": int,
    "seconds": float,
    "trace-every": int,
    "adaptive": _bool,
    "name": str,
}


def _cast(key: str, raw: str, cast=None, where: str = "") -> object:
    """`raw` cast to `key`'s type (or by `cast`); a malformed value names the
    key, after the prefix `where`."""
    try:
        return (cast or _RUN_KEYS[key])(raw.strip())
    except ValueError:
        raise MismatchedData(f"{where}bad value {raw!r} for {key}") from None


def _read_pairs(parts) -> dict:
    """Values of (where, "key=value") parts, cast by `_RUN_KEYS`. A part
    without "=" or with an unknown key is refused; messages begin with `where`."""
    values = {}
    for where, part in parts:
        key, eq, raw = part.partition("=")
        key = key.strip()
        if not eq:
            raise MismatchedData(f"{where}: expected key=value, got {part!r}")
        if key not in _RUN_KEYS:
            raise MismatchedData(f"{where}: unknown key {key!r}")
        values[key] = _cast(key, raw, where=f"{where}: ")
    return values


def _read_config(path) -> dict:
    """A config file's key=value lines; blank lines and # comments are skipped."""
    lines = (line.strip() for line in read_utf8(path, f"{path}:").splitlines())
    return _read_pairs(
        (f"{path}:{n}", line)
        for n, line in enumerate(lines, start=1)
        if line and not line.startswith("#")
    )


def _resolve_bigk(raw: str, algorithm: str, lam: float | None) -> float:
    if raw.strip().lower() != "preset":
        return _cast("bigK", raw, float)
    preset = _lookup_preset(BIGK_PRESETS.get(algorithm, {}), lam)
    if preset is None:
        raise MismatchedData(
            f"--bigK preset: no preset for {algorithm} at lambda={lam}; pass a number"
        )
    print(
        f"warning: K preset {preset:g} was tuned on one specific ratings "
        "sample and may not transfer",
        file=sys.stderr,
    )
    return preset


def _spec_from_values(values: dict, config: dict) -> ExperimentSpec:
    """`values`' spec. A family key its algorithm does not read is refused (before the
    K preset lookup, which would miss) in `values`, and dropped from the defaults `config`."""
    algorithm = values.get("algorithm", config.get("algorithm"))
    if algorithm is None:
        raise MismatchedData("--algorithm is required")
    reads = _solver_entry(algorithm, values)[2]
    values = {k: v for k, v in config.items() if k in reads or k not in _FAMILY_KEYS} | values
    if "k" not in values:
        raise MismatchedData("--k is required")
    raw = values.get("bigK")
    try:
        budget = Budget(max_iterations=values.get("iters"), max_seconds=values.get("seconds"))
    except ShapeMismatch as exc:
        # Budget checks the values; the message names the flags the user typed.
        message = str(exc).replace("max_iterations", "--iters")
        raise MismatchedData(message.replace("max_seconds", "--seconds")) from None
    return ExperimentSpec(
        algorithm=algorithm,
        k=values["k"],
        seed=values.get("seed", 0),
        budget=budget,
        lam=values.get("lambda"),
        big_k=None if raw is None else _resolve_bigk(raw, algorithm, values.get("lambda")),
        iota=values.get("iota"),
        alpha_bar=values.get("alpha-bar"),
        beta=values.get("beta"),
        trace_every=values.get("trace-every"),
        adaptive=values.get("adaptive"),
        name=values.get("name"),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlra",
        description="Weighted low-rank approximation benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--in", dest="infile", required=True, help="triplet CSV input")
        p.add_argument("--one-based", action="store_true", help="input uses 1-based indices")
        p.add_argument("--rows", type=int, default=None, help="declared row count")
        p.add_argument("--cols", type=int, default=None, help="declared column count")

    p = sub.add_parser("ingest", help="validate a triplet file and rewrite it 0-based")
    add_input(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sample", help="restrict to a random row/column submatrix")
    add_input(p)
    p.add_argument("--sample-rows", type=int, required=True)
    p.add_argument("--sample-cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a noisy low-rank instance")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--observe-prob", type=float, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("init-svd", help="report the truncated-SVD initial costs")
    add_input(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("run", help="run one algorithm and export its trace")
    add_input(p)
    extra = {"algorithm": {"choices": ALGORITHMS}, "bigK": {"help": "1 <= K < inf, or 'preset'"}}
    for key, cast in _RUN_KEYS.items():
        if key == "adaptive":
            p.add_argument("--adaptive", action="store_true", default=argparse.SUPPRESS)
        elif key != "name":
            p.add_argument(
                f"--{key}", dest=key, type=cast, default=argparse.SUPPRESS, **extra.get(key, {})
            )
    p.add_argument("--wall-clock", action="store_true", help="export measured times")
    p.add_argument("--config", default=None, help="key=value defaults file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="run several specs and merge their costs")
    add_input(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--align", choices=("iterations", "seconds"), default="iterations")
    p.add_argument("--bin", type=float, default=0.1, help="bin width for --align seconds")
    p.add_argument(
        "--run",
        action="append",
        required=True,
        metavar="KVS",
        help="comma-separated key=value pairs, e.g. "
        "'name=m,algorithm=sgd-manifold,lambda=1e-2,seed=0,iters=1000'",
    )
    p.add_argument("--out", required=True)

    return parser


def _cmd_ingest(args) -> int:
    tm = load_triplets(args.infile, args.one_based, args.rows, args.cols)
    write_triplets(tm, args.out)
    print(f"{tm.m}x{tm.n}, {tm.nnz} observations, density {tm.density:.4%}")
    return 0


def _cmd_sample(args) -> int:
    tm = load_triplets(args.infile, args.one_based, args.rows, args.cols)
    sub_tm = sample_submatrix(tm, args.sample_rows, args.sample_cols, args.seed)
    write_triplets(sub_tm, args.out)
    print(f"{sub_tm.m}x{sub_tm.n}, {sub_tm.nnz} observations kept")
    return 0


def _cmd_synth(args) -> int:
    tm = synth_lowrank(args.rows, args.cols, args.rank, args.observe_prob, args.noise, args.seed)
    write_triplets(tm, args.out)
    print(f"{tm.m}x{tm.n}, {tm.nnz} observations, density {tm.density:.4%}")
    return 0


def _cmd_init_svd(args) -> int:
    tm = load_triplets(args.infile, args.one_based, args.rows, args.cols)
    _check_k(tm, args.k)
    data = problem_from_triplets(tm, args.k)
    dense = fill_missing_column_mean(data)
    point0, pair0, trunc_err = truncated_svd_init(dense, args.k, with_error=True)
    print(f"weighted_init_cost={cost_unregularized(point0, data)!r}")
    print(f"factored_init_cost={cost_unregularized(pair0, data)!r}")
    print(f"imputed_truncation_error={trunc_err!r}")
    return 0


def _cmd_run(args) -> int:
    config = _read_config(args.config) if args.config else {}
    spec = _spec_from_values({key: v for key, v in vars(args).items() if key in _RUN_KEYS}, config)
    tm = load_triplets(args.infile, args.one_based, args.rows, args.cols)
    trace = run_experiment(spec, tm)
    write_trace_csv(trace, args.out, wall_clock=args.wall_clock)
    print(f"wrote {args.out} ({len(trace.records)} rows, final cost {trace.final_cost()!r})")
    return 0


def _cmd_compare(args) -> int:
    tm = load_triplets(args.infile, args.one_based, args.rows, args.cols)
    specs = []
    for text in args.run:
        values = _read_pairs(("--run", part.strip()) for part in text.split(",") if part.strip())
        spec = _spec_from_values(values, {"k": args.k})
        if spec.k != args.k:
            raise MismatchedData(f"--run: k={spec.k} differs from --k {args.k}")
        specs.append(spec)
    header, rows = compare_experiments(specs, tm, args.out, args.align, args.bin)
    print(f"wrote {args.out} ({len(rows)} rows, columns {header})")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "sample": _cmd_sample,
    "synth": _cmd_synth,
    "init-svd": _cmd_init_svd,
    "run": _cmd_run,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (WlraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
