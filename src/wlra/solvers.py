"""Iterative solvers: stochastic gradient descent and accelerated line search.

Every solver returns (final iterate, IterTrace). Traces record the
unregularized cost, which is the quantity all benchmark output plots,
regardless of which regularized objective the solver descends.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import BacktrackLimit, InitNotConfined, LambdaOutOfRange, RankDeficient, ShapeMismatch
from .geometry import FactoredPoint, ProductPoint, ProductTangent, retract
from .model import (
    FactorPair,
    ProblemData,
    ScaledPair,
    check_iterate_shape,
    check_lambda_pw,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    full_grad_euclidean,
    full_grad_manifold,
    full_grad_pw,
    require_positive_weights,
    sample_index,
    stoch_grad_euclidean,
    stoch_grad_manifold,
    stoch_grad_pw,
)
from .step_policy import EMPTY_RHO, PolicyKind, StepPolicy, adaptive_A_B, phi_t, settled_rho

# Trials an Armijo step halves through (by beta) before it gives up.
MAX_BACKTRACKS = 60
# Samples an SGD run draws, and whose triplets it reads, at once.
SAMPLE_BLOCK = 1024


@dataclass(frozen=True)
class Budget:
    """Either an iteration count or a limit on algorithm seconds; exactly one is set."""

    max_iterations: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if (self.max_iterations is None) == (self.max_seconds is None):
            raise ShapeMismatch("set exactly one of max_iterations / max_seconds")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ShapeMismatch(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.max_seconds is not None and not 0 < self.max_seconds < np.inf:
            raise ShapeMismatch(f"need 0 < max_seconds < inf, got {self.max_seconds}")


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking parameters; alpha_bar and beta follow the usual defaults."""

    iota: float
    alpha_bar: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        for name, upper in (("alpha_bar", np.inf), ("beta", 1.0), ("iota", 1.0)):
            value = getattr(self, name)
            if not 0 < value < upper:  # NaN fails it
                raise ShapeMismatch(f"need 0 < {name} < {upper:g}, got {value}")


class TraceRecord(NamedTuple):
    t: int
    elapsed_seconds: float
    cost_unregularized: float
    grad_norm: float | None = None
    phi: float | None = None
    rho: float | None = None
    objective: float | None = None
    backtracks: int | None = None


@dataclass
class IterTrace:
    """Trace records in iteration order. `elapsed_seconds` counts algorithm
    time only; the time spent building the records is `bookkeeping_seconds`."""

    records: list[TraceRecord] = field(default_factory=list)
    bookkeeping_seconds: float = 0.0

    def append(self, rec: TraceRecord) -> None:
        if self.records:
            last = self.records[-1]
            if rec.t <= last.t:
                raise ShapeMismatch("trace iteration numbers must increase")
            if rec.elapsed_seconds < last.elapsed_seconds:
                raise ShapeMismatch("trace elapsed times must not decrease")
        self.records.append(rec)

    @property
    def costs(self) -> np.ndarray:
        return np.array([r.cost_unregularized for r in self.records])

    @property
    def iterations(self) -> np.ndarray:
        return np.array([r.t for r in self.records], dtype=np.int64)

    def final_cost(self) -> float:
        return self.records[-1].cost_unregularized


@dataclass(frozen=True)
class SolverConfig:
    kind: PolicyKind
    policy: StepPolicy
    budget: Budget
    seed: int
    trace_every: int = 10
    adaptive: bool = False
    record_rho: bool = False

    def __post_init__(self):
        if self.trace_every < 1:
            raise ShapeMismatch("trace_every must be >= 1")
        if self.kind is not self.policy.kind:
            raise ShapeMismatch(f"{self.kind.value} config with a {self.policy.kind.value} policy")


def _check_start(
    init, data: ProblemData, config: SolverConfig, kind: PolicyKind, rho_fn: Callable
) -> None:
    """Reject an init of the wrong shape or unconfined, and a config of another family."""
    check_iterate_shape(init, data)
    if config.kind is not kind:
        raise ShapeMismatch(f"{kind.value} solver given a {config.kind.value} config")
    rho_init, rho0 = rho_fn(init), config.policy.rho0
    if rho_init > rho0 * (1.0 + 1e-12) + 1e-12:
        raise InitNotConfined(f"initial confinement {rho_init} exceeds rho0 {rho0}")


def _iterate(advance: Callable, record: Callable, budget: Budget, trace_every: int) -> IterTrace:
    """The iteration loop of every solver: `advance(t)` takes step t, and
    `record(t, elapsed)` builds the trace record after t steps, at t = 0,
    every `trace_every` steps and after the last step. Time spent in
    `record` is left out of later `elapsed_seconds` and of the `max_seconds`
    test (made at trace points), and summed in `bookkeeping_seconds`."""
    if trace_every < 1:
        raise ShapeMismatch("trace_every must be >= 1")
    trace = IterTrace()
    start = time.perf_counter()

    def emit(t: int) -> float:
        mark = time.perf_counter()
        elapsed = mark - start - trace.bookkeeping_seconds
        trace.append(record(t, elapsed))
        trace.bookkeeping_seconds += time.perf_counter() - mark
        return elapsed

    emit(0)
    t = 0
    while budget.max_iterations is None or t < budget.max_iterations:
        advance(t)
        t += 1
        if t % trace_every == 0:
            elapsed = emit(t)
            if budget.max_seconds is not None and elapsed > budget.max_seconds:
                break
    if trace.records[-1].t != t:
        emit(t)
    return trace


def _run_sgd(
    state,
    data: ProblemData,
    config: SolverConfig,
    grad_fn: Callable,
    view_fn: Callable,
    rho_fn: Callable,
    extra: tuple = (),
) -> tuple[object, IterTrace]:
    """The SGD step. Samples come SAMPLE_BLOCK at a time (fewer at the end of
    an iteration budget), in the sequence of one `sample_index` call a step;
    `grad_fn(state, i, j, a, *entries)` is the per-sample gradient at the
    cell (i, j), of value a and with its entries of the arrays `extra`, and
    `state.step(i, j, grad, step)` moves the state in place along it. Trace
    costs price `state.factors()`; `view_fn(state)` is the iterate the exact
    safeguard, recorded rho and the caller see; `rho_fn` reads the
    confinement of the state and of its view alike. An adaptive step whose
    rho lies in the run's `settled_rho` set takes phi_t's floor
    max{c_t / theta, phi_min} directly; any other calls `phi_t`. A record
    has the phi_t of the step before it. The sampler and the settled set are
    built before the clock."""
    data.sampler
    policy = config.policy
    last = math.inf if config.budget.max_iterations is None else config.budget.max_iterations
    adaptive, phi_min, theta = config.adaptive, policy.phi_min, policy.theta
    settled = settled_rho(policy, data.k) if adaptive else (EMPTY_RHO, EMPTY_RHO)
    (lo, hi), (lo_floored, hi_floored) = settled
    rng = np.random.default_rng(config.seed)
    columns = (data.rows, data.cols, data.a_vals, *extra)
    block = iter(())
    phi = None

    def exact() -> tuple[float, float]:
        return adaptive_A_B(view_fn(state), data, policy)

    def advance(t: int) -> None:
        nonlocal phi, block
        sample = next(block, None)
        if sample is None:
            drawn = sample_index(data, rng, min(SAMPLE_BLOCK, last - t))
            block = zip(*(column[drawn].tolist() for column in columns))
            sample = next(block)
        c = policy.schedule(t)
        if not adaptive:
            phi = phi_min
        else:
            rho = rho_fn(state)
            if lo <= rho <= hi or lo_floored <= rho <= hi_floored:
                phi = max(c / theta, phi_min)
            else:
                phi = phi_t(policy, t, rho, data.k, exact)
        state.step(sample[0], sample[1], grad_fn(state, *sample), -c / phi)

    def record(t: int, elapsed: float) -> TraceRecord:
        return TraceRecord(
            t=t,
            elapsed_seconds=elapsed,
            cost_unregularized=cost_unregularized(state, data),
            phi=phi,
            rho=rho_fn(view_fn(state)) if config.record_rho else None,
        )

    trace = _iterate(advance, record, config.budget, config.trace_every)
    return view_fn(state), trace


def sgd_manifold(
    init: ProductPoint, data: ProblemData, config: SolverConfig
) -> tuple[ProductPoint, IterTrace]:
    """Stochastic descent of the regularized objective on the product manifold.

    Constant mode divides the schedule by phi_min; adaptive mode takes
    phi_t = max{A_t, B_t, c_t / theta, phi_min} every iteration, and runs
    the exact pass for A_t, B_t only when their O(1) upper bounds reach
    the floor max{c_t / theta, phi_min}. With `make_policy`'s scales that
    happens only past the confinement ceiling rho1, so a confined adaptive
    run takes the same steps as the exact safeguard without the pass. The
    rho at which the bounds settle phi_t are found once per run
    (`settled_rho`); a step whose rho lies there takes the floor at the
    cost of reading rho, and any other falls back to `phi_t`.

    The iterate is kept as a FactoredPoint: each step makes one per-sample
    gradient call, which reads row i of U and row j of V once as a (2, k)
    array, and one stacked O(k^3) Cholesky-QR update of the factored U and
    V. A factor whose update is refused folds on its own (see
    `FactoredPoint`). Trace points price its factors, U and V not multiplied out.
    """
    lam = config.policy.lam
    _check_start(init, data, config, PolicyKind.MANIFOLD, confinement_manifold)
    return _run_sgd(
        FactoredPoint(init),
        data,
        config,
        grad_fn=lambda p, i, j, a: stoch_grad_manifold(p, i, j, a, lam),
        view_fn=FactoredPoint.point,
        rho_fn=confinement_manifold,
    )


def sgd_euclidean(
    init: FactorPair, data: ProblemData, config: SolverConfig
) -> tuple[FactorPair, IterTrace]:
    """Stochastic descent of the factored objective; retraction is addition.

    The iterate is kept as a ScaledPair, X = a Xb and Y = a Yb, so the
    penalty's shrink of both factors is one scalar multiply and a step
    rewrites only row i of Xb and row j of Yb: O(k) per step, whatever m
    and n are. A step whose shrink 1 + 2 s lam is not positive, or would take
    the scale below FOLD_SCALE, folds the scale back into the factors and
    is taken densely there (see `ScaledPair`). Trace points price its
    factors; (X, Y) is multiplied out only for the exact safeguard pass when
    the bounds do not settle phi_t, a recorded rho and the returned pair.
    Adaptive mode reads rho = a^2 (||Xb||^2 + ||Yb||^2) each step and takes
    phi_t's floor inside the run's `settled_rho` set, else calls `phi_t`,
    as `sgd_manifold` does.
    """
    _check_start(init, data, config, PolicyKind.EUCLIDEAN, confinement_euclidean)
    return _run_sgd(
        ScaledPair(init, config.policy.lam),
        data,
        config,
        grad_fn=stoch_grad_euclidean,
        view_fn=ScaledPair.pair,
        rho_fn=confinement_euclidean,
    )


def sgd_pw(
    init: ProductPoint, data: ProblemData, config: SolverConfig
) -> tuple[ProductPoint, IterTrace]:
    """Positive-weights stochastic descent; the traced objective is the raw cost.

    The steps are `sgd_manifold`'s with the tilted per-sample gradient, and
    adaptive mode settles phi_t from the run's `settled_rho` set, falling
    back to `phi_t` outside it, as there."""
    w0 = require_positive_weights(data)
    lam = config.policy.lam
    _check_start(init, data, config, PolicyKind.POSITIVE_WEIGHTS, confinement_manifold)
    check_lambda_pw(lam, w0)
    return _run_sgd(
        FactoredPoint(init),
        data,
        config,
        grad_fn=lambda p, i, j, a, inv_w: stoch_grad_pw(p, i, j, a, lam, inv_w),
        view_fn=FactoredPoint.point,
        rho_fn=confinement_manifold,
        extra=(data.inv_w,),
    )


# ---------------------------------------------------------------------------
# Armijo backtracking and accelerated line search.


def armijo_step(
    cost: Callable,
    grad: ProductTangent | FactorPair,
    point,
    params: ArmijoParams,
    retractor: Callable,
    f0: float,
    grad_sq: float,
) -> tuple[float, int, object, float]:
    """Steepest descent: the least m with f(x) - f(R_x(-tau grad)) >= iota tau ||grad||^2,
    tau = beta^m * alpha_bar, given f0 = f(x) and grad_sq = ||grad||^2 > 0.

    Returns (tau, m, trial, f_trial), trial = R_x(grad.scaled(-tau)) and
    f_trial its cost; the accepted trial is the last point `cost` is called
    on. Raises BacktrackLimit once MAX_BACKTRACKS + 1 trials have failed.
    """
    tau = params.alpha_bar
    for m in range(MAX_BACKTRACKS + 1):
        try:  # a trial too far out to retract, or whose cost overflows, fails the test
            with np.errstate(over="ignore"):
                trial = retractor(point, grad.scaled(-tau))
                f_trial = cost(trial)
        except RankDeficient:
            f_trial = math.inf
        if f0 - f_trial >= params.iota * tau * grad_sq:
            return tau, m, trial, f_trial
        tau *= params.beta
    raise BacktrackLimit(
        f"no Armijo step within {MAX_BACKTRACKS} backtracks from alpha_bar="
        f"{params.alpha_bar} (too long a first step, or gradient and cost inconsistent)"
    )


def _run_als(
    point,
    data: ProblemData,
    lam: float,
    grad_fn: Callable,
    retract_fn: Callable,
    rho_fn: Callable,
    params: ArmijoParams,
    budget: Budget,
    trace_every: int,
) -> tuple[object, IterTrace]:
    """The line-search step. The objective is the unregularized cost plus
    lam * rho_fn, so each point's cost and objective come from one
    evaluation; both are kept for the current point, and so is its residual
    a - p, which `grad_fn(point, residual)` takes and overwrites (the next
    evaluation refills the buffer). An iteration forms
    predictions once per Armijo trial and for nothing else. The initial
    evaluations are set-up, before the trace clock starts. lam must be
    non-negative and finite (0 is the positive-weights search's)."""
    if not 0 <= lam < math.inf:  # NaN fails it
        raise LambdaOutOfRange(f"need 0 <= lambda < inf, got {lam}")
    check_iterate_shape(point, data)
    unreg = 0.0
    backtracks = 0
    residual = np.empty(data.nnz)

    def objective(pt) -> float:
        nonlocal unreg
        unreg = cost_unregularized(pt, data, residual)
        return unreg + lam * rho_fn(pt)

    f = objective(point)
    g = grad_fn(point, residual)
    g_sq = g.sq_norm()
    eps = np.finfo(float).eps

    def advance(t: int) -> None:
        nonlocal point, f, g, g_sq, backtracks
        # Once the full step's first-order decrease alpha_bar ||g||^2 is
        # below float noise in f, no trial's decrease can be told from
        # round-off: freeze the iterate instead of exhausting backtracks.
        # iota only sets the share of that decrease the Armijo test demands.
        if params.alpha_bar * g_sq > 1024.0 * eps * max(1.0, abs(f)):
            # `objective` saw the accepted trial last, so `unreg` and
            # `residual` are its own.
            _, m, point, f = armijo_step(objective, g, point, params, retract_fn, f, g_sq)
            backtracks += m
            g = grad_fn(point, residual)
            g_sq = g.sq_norm()

    def record(t: int, elapsed: float) -> TraceRecord:
        nonlocal backtracks
        m, backtracks = backtracks, 0
        return TraceRecord(
            t=t,
            elapsed_seconds=elapsed,
            cost_unregularized=unreg,
            grad_norm=math.sqrt(g_sq),
            rho=rho_fn(point),
            objective=f,
            backtracks=m,
        )

    trace = _iterate(advance, record, budget, trace_every)
    return point, trace


def als_manifold(
    init: ProductPoint,
    data: ProblemData,
    lam: float,
    params: ArmijoParams,
    budget: Budget,
    trace_every: int = 1,
) -> tuple[ProductPoint, IterTrace]:
    """Line search along the negative full gradient of the regularized objective."""
    return _run_als(
        init, data, lam,
        grad_fn=lambda p, r: full_grad_manifold(p, data, lam, r),
        retract_fn=retract,
        rho_fn=confinement_manifold,
        params=params,
        budget=budget,
        trace_every=trace_every,
    )


def als_euclidean(
    init: FactorPair,
    data: ProblemData,
    lam: float,
    params: ArmijoParams,
    budget: Budget,
    trace_every: int = 1,
) -> tuple[FactorPair, IterTrace]:
    """Line search on the factor pair with the additive retraction."""
    return _run_als(
        init, data, lam,
        grad_fn=lambda f, r: full_grad_euclidean(f, data, lam, r),
        retract_fn=lambda f, d: f.add_scaled(d, 1.0),
        rho_fn=confinement_euclidean,
        params=params,
        budget=budget,
        trace_every=trace_every,
    )


def als_pw(
    init: ProductPoint,
    data: ProblemData,
    params: ArmijoParams,
    budget: Budget,
    trace_every: int = 1,
) -> tuple[ProductPoint, IterTrace]:
    """Positive-weights line search; the objective is the raw cost itself."""
    require_positive_weights(data)
    return _run_als(
        init, data, 0.0,
        grad_fn=lambda p, r: full_grad_pw(p, data, r),
        retract_fn=retract,
        rho_fn=confinement_manifold,
        params=params,
        budget=budget,
        trace_every=trace_every,
    )
