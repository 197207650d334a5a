"""Iterative solvers: stochastic gradient descent and accelerated line search.

Every solver returns (final iterate, IterTrace). Traces record the
unregularized cost, which is the quantity all benchmark output plots,
regardless of which regularized objective the solver descends.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import BacktrackLimit, InitNotConfined, ShapeMismatch
from .geometry import FactoredPoint, ProductPoint, ProductTangent, retract
from .model import (
    FactorPair,
    ProblemData,
    ScaledPair,
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
from .step_policy import PolicyKind, StepPolicy, adaptive_A_B, phi_t, tilde_A_B_of_rho

# The O(1) bounds settle phi_t only when both sit below the floor
# max(c_t / theta, phi_min) by this relative margin, which absorbs the
# rounding between the bounds and the exact pass they bound.
BOUND_GATE_MARGIN = 1e-9


@dataclass(frozen=True)
class Budget:
    """Either an iteration count or a limit on algorithm seconds; exactly one is set."""

    max_iterations: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if (self.max_iterations is None) == (self.max_seconds is None):
            raise ShapeMismatch("set exactly one of max_iterations / max_seconds")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ShapeMismatch("max_iterations must be >= 0")
        if self.max_seconds is not None and not 0 < self.max_seconds < np.inf:
            raise ShapeMismatch(f"need 0 < max_seconds < inf, got {self.max_seconds}")


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking parameters; alpha_bar and beta follow the usual defaults."""

    iota: float
    alpha_bar: float = 1.0
    beta: float = 0.5
    max_backtracks: int = 60

    def __post_init__(self):
        if not 0 < self.alpha_bar < np.inf:
            raise ShapeMismatch(f"need 0 < alpha_bar < inf, got {self.alpha_bar}")
        if not 0 < self.beta < 1 or not 0 < self.iota < 1:
            raise ShapeMismatch("need beta, iota in (0, 1)")


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
    record_grad_norm: bool = False
    record_rho: bool = False

    def __post_init__(self):
        if self.trace_every < 1:
            raise ShapeMismatch("trace_every must be >= 1")
        if self.kind is not self.policy.kind:
            raise ShapeMismatch(f"{self.kind.value} config with a {self.policy.kind.value} policy")


def _check_start(config: SolverConfig, kind: PolicyKind, rho_init: float) -> None:
    """Reject a config of another solver family and an unconfined init."""
    if config.kind is not kind:
        raise ShapeMismatch(f"{kind.value} solver given a {config.kind.value} config")
    rho0 = config.policy.rho0
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
    full_grad_norm_fn: Callable,
) -> tuple[object, IterTrace]:
    """The SGD step. `grad_fn(state, t)` is the per-sample gradient at
    triplet index t, and `state.step(i, j, grad, step)` moves the state in
    place along it at cell (i, j); `view_fn(state)` gives the iterate that
    traces, the exact safeguards and the caller see; `rho_fn` reads the
    confinement of the state and of its view alike. A record carries the
    phi_t of the step before it."""
    policy = config.policy
    rng = np.random.default_rng(config.seed)
    phi = None

    def advance(t: int) -> None:
        nonlocal phi
        s = sample_index(data, rng)
        if config.adaptive:
            floor = max(policy.schedule(t) / policy.theta, policy.phi_min)
            limit = floor * (1.0 - BOUND_GATE_MARGIN)
            a_t, b_t = tilde_A_B_of_rho(rho_fn(state), data.k, policy)
            # Below the floor, phi_t is the floor whatever A_t <= A~_t and
            # B_t <= B~_t are. Each bound is tested on its own so that NaN
            # takes the exact pass.
            if not (a_t <= limit and b_t <= limit):
                a_t, b_t = adaptive_A_B(view_fn(state), data, policy)
            phi = phi_t(policy, a_t, b_t, t)
        else:
            phi = policy.phi_min
        state.step(data.rows[s], data.cols[s], grad_fn(state, s), -policy.schedule(t) / phi)

    def record(t: int, elapsed: float) -> TraceRecord:
        pt = view_fn(state)
        return TraceRecord(
            t=t,
            elapsed_seconds=elapsed,
            cost_unregularized=cost_unregularized(pt, data),
            grad_norm=full_grad_norm_fn(pt) if config.record_grad_norm else None,
            phi=phi,
            rho=rho_fn(pt) if config.record_rho else None,
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
    run takes the same steps as the exact safeguard without the pass.

    The iterate is kept as a FactoredPoint: each step makes one per-sample
    gradient call, which reads row i of U and row j of V once as a (2, k)
    array, and one stacked O(k^3) Cholesky-QR update of the factored U and
    V. A factor whose update is refused folds on its own, re-orthonormalizing
    its base (see `FactoredPoint`).
    """
    lam = config.policy.lam
    _check_start(config, PolicyKind.MANIFOLD, confinement_manifold(init))
    return _run_sgd(
        FactoredPoint(init),
        data,
        config,
        grad_fn=lambda p, t: stoch_grad_manifold(p, t, data, lam),
        view_fn=FactoredPoint.point,
        rho_fn=confinement_manifold,
        full_grad_norm_fn=lambda p: full_grad_manifold(p, data, lam).norm(),
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
    is taken densely there (see `ScaledPair`). (X, Y) is multiplied out
    only for trace points, for the exact safeguard pass when the bounds do
    not settle phi_t, and for the returned pair.
    """
    policy = config.policy
    _check_start(config, PolicyKind.EUCLIDEAN, confinement_euclidean(init))
    return _run_sgd(
        ScaledPair(init, policy.lam),
        data,
        config,
        grad_fn=lambda f, t: stoch_grad_euclidean(f, t, data, policy.lam),
        view_fn=ScaledPair.pair,
        rho_fn=confinement_euclidean,
        full_grad_norm_fn=lambda f: full_grad_euclidean(f, data, policy.lam).norm(),
    )


def sgd_pw(
    init: ProductPoint, data: ProblemData, config: SolverConfig
) -> tuple[ProductPoint, IterTrace]:
    """Positive-weights stochastic descent; the traced objective is the raw cost."""
    require_positive_weights(data)
    lam = config.policy.lam
    _check_start(config, PolicyKind.POSITIVE_WEIGHTS, confinement_manifold(init))
    return _run_sgd(
        FactoredPoint(init),
        data,
        config,
        grad_fn=lambda p, t: stoch_grad_pw(p, t, data, lam),
        view_fn=FactoredPoint.point,
        rho_fn=confinement_manifold,
        full_grad_norm_fn=lambda p: full_grad_pw(p, data).norm(),
    )


# ---------------------------------------------------------------------------
# Armijo backtracking and accelerated line search.


def armijo_step(
    cost: Callable,
    grad: ProductTangent | FactorPair,
    point,
    direction: ProductTangent | FactorPair,
    params: ArmijoParams,
    retractor: Callable,
    f0: float | None = None,
) -> tuple[float, int, object, float | None]:
    """Smallest m with f(x) - f(R_x(beta^m abar eta)) >= -iota <grad, beta^m abar eta>.

    Returns (tau, m, trial, f_trial) with tau = beta^m * alpha_bar, trial =
    R_x(tau eta) and f_trial its cost; the accepted trial is the last point
    `cost` is called on. `f0`, when given, is f(x) and is not evaluated
    again. `grad` and `direction` are ProductTangents or FactorPairs. The
    direction must be a descent direction or zero; a zero direction accepts
    immediately with trial x and cost f0.
    """
    if direction.norm() == 0.0:
        return params.alpha_bar, 0, point, f0
    slope = grad.inner(direction)
    if f0 is None:
        f0 = cost(point)
    tau = params.alpha_bar
    for m in range(params.max_backtracks + 1):
        trial = retractor(point, direction.scaled(tau))
        f_trial = cost(trial)
        if f0 - f_trial >= -params.iota * tau * slope:
            return tau, m, trial, f_trial
        tau *= params.beta
    raise BacktrackLimit(
        f"no Armijo step within {params.max_backtracks} backtracks "
        "(gradient and cost may be inconsistent)"
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
    evaluation; both are kept for the current point, and an iteration costs
    one gradient and one evaluation per Armijo trial. The initial
    evaluations are set-up, before the trace clock starts."""
    unreg = 0.0
    backtracks = 0

    def objective(pt) -> float:
        nonlocal unreg
        unreg = cost_unregularized(pt, data)
        return unreg + lam * rho_fn(pt)

    f = objective(point)
    g = grad_fn(point)
    gnorm = g.norm()
    eps = np.finfo(float).eps

    def advance(t: int) -> None:
        nonlocal point, f, g, gnorm, backtracks
        # Once the full-step sufficient decrease drops below float noise no
        # backtracked step can satisfy the Armijo test, so the iterate is
        # numerically stationary; freeze it instead of exhausting backtracks.
        decrease_scale = params.iota * params.alpha_bar * gnorm**2
        if decrease_scale > 1024.0 * eps * max(1.0, abs(f)):
            eta = g.scaled(-1.0)
            # `objective` saw the accepted trial last, so `unreg` is its cost.
            _, m, point, f = armijo_step(objective, g, point, eta, params, retract_fn, f0=f)
            backtracks += m
            g = grad_fn(point)
            gnorm = g.norm()

    def record(t: int, elapsed: float) -> TraceRecord:
        nonlocal backtracks
        m, backtracks = backtracks, 0
        return TraceRecord(
            t=t,
            elapsed_seconds=elapsed,
            cost_unregularized=unreg,
            grad_norm=gnorm,
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
        grad_fn=lambda p: full_grad_manifold(p, data, lam),
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
        grad_fn=lambda f: full_grad_euclidean(f, data, lam),
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
        grad_fn=lambda p: full_grad_pw(p, data),
        retract_fn=retract,
        rho_fn=confinement_manifold,
        params=params,
        budget=budget,
        trace_every=trace_every,
    )
