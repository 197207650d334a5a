"""Weighted low-rank approximation via confined stochastic gradient descent
on the product manifold V_k(R^m) x R^k x V_k(R^n), with Euclidean baselines,
a positive-weights variant, and accelerated line searches."""

from .errors import (
    BacktrackLimit,
    DuplicateEntry,
    EmptySupport,
    IndexOutOfBounds,
    InitNotConfined,
    InvalidDimensions,
    LambdaOutOfRange,
    MismatchedData,
    NonPositiveWeight,
    ParseError,
    RankDeficient,
    ShapeMismatch,
    WlraError,
)
from .geometry import (
    ProductPoint,
    ProductTangent,
    qf,
    retract,
    tangent_project,
)
from .model import (
    FactorPair,
    ProblemData,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    full_grad_euclidean,
    full_grad_manifold,
    full_grad_pw,
    sample_index,
    stoch_grad_euclidean,
    stoch_grad_manifold,
    stoch_grad_pw,
)
from .solvers import (
    ArmijoParams,
    Budget,
    IterTrace,
    SolverConfig,
    als_euclidean,
    als_manifold,
    als_pw,
    armijo_step,
    sgd_euclidean,
    sgd_manifold,
    sgd_pw,
)
from .step_policy import (
    PolicyKind,
    StepPolicy,
    adaptive_A_B,
    alpha_of,
    compute_phi_min,
    compute_rho0,
    make_policy,
    phi_t,
)
from .svd_init import (
    fill_missing_column_mean,
    truncated_svd_init,
)

__version__ = "0.1.0"
