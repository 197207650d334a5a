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
from .geometry import ProductPoint
from .model import (
    FactorPair,
    ProblemData,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
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
from .step_policy import PolicyKind, make_policy
from .svd_init import fill_missing_column_mean, truncated_svd_init

__version__ = "0.1.0"
