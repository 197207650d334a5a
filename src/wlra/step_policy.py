"""Step-size safeguards for the stochastic descent algorithms.

The step actually taken at iteration t is c_t / phi_t, where c_t is the
preferred schedule and phi_t = max{A_t, B_t, c_t / theta, phi_min} shrinks
it enough to keep the iterates confined. A_t and B_t are per-iteration
quantities (a confinement inner product and a Hessian bound maximized over
the observed support, O(nnz k)); the tilde variants are closed-form upper
bounds in rho = ||x||^2 (or ||X||^2 + ||Y||^2), alpha and k, O(1), and
phi_min alone suffices in the constant-step regime.

With `make_policy`'s scales the tilde bounds stay at or below phi_min / K
while rho <= rho1, so there phi_t is the floor max{c_t / theta, phi_min}.
The SGD loop therefore checks the tilde bounds first and runs the exact
pass only when one of them reaches that floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import LambdaOutOfRange, ShapeMismatch
from .geometry import ProductPoint
from .model import (
    SUPPORT_BLOCK,
    FactorPair,
    ProblemData,
    check_lambda_pw,
    confinement_euclidean,
    confinement_manifold,
    require_positive_weights,
)

DEFAULT_C = 1.0
DEFAULT_SIGMA = math.pi**2 / 6.0


def default_schedule(t: int) -> float:
    """Preferred step sizes c_t = 1 / (t + 1)."""
    return 1.0 / (t + 1)


class PolicyKind(Enum):
    MANIFOLD = "manifold"
    EUCLIDEAN = "euclidean"
    POSITIVE_WEIGHTS = "positive-weights"


def _rho_floor(kind: PolicyKind, alpha: float, lam: float, w0: float | None) -> float:
    """The lam-based floor of rho0; at or above it the A_t bound is 0."""
    if kind is PolicyKind.MANIFOLD:
        return alpha / (4.0 * lam)
    if kind is PolicyKind.EUCLIDEAN:
        return alpha / (2.0 * lam)
    if w0 is None:
        raise LambdaOutOfRange("positive-weights mode needs w0")
    check_lambda_pw(lam, w0)
    return alpha / (4.0 * lam * (1.0 - lam / w0))


def compute_rho0(
    kind: PolicyKind,
    init_norm_sq: float,
    alpha: float,
    lam: float,
    w0: float | None = None,
) -> float:
    """Confinement threshold: the larger of the initial size and a lam-based floor."""
    return max(init_norm_sq, _rho_floor(kind, alpha, lam, w0))


def compute_phi_min(
    kind: PolicyKind,
    big_k: float,
    lam: float,
    alpha: float,
    k: int,
    rho0: float,
    w0: float | None = None,
    c: float = DEFAULT_C,
    sigma: float = DEFAULT_SIGMA,
) -> float:
    """Constant step-size safeguard, scaled by the tuning factor K >= 1.

    The schedule enters through the tail 2 c + sigma (c + sigma for the
    positive-weights kind); the default schedule (c = 1, sigma = pi^2 / 6)
    gives the paper's (pi^2 + 12)/6 and (pi^2 + 6)/6 constants. Squares
    are written as products: float ** raises OverflowError where a product
    gives inf, which `make_policy` refuses.
    """
    tail = 2.0 * c + sigma
    if kind is PolicyKind.MANIFOLD:
        return big_k * max(
            (lam + 2.0 * math.sqrt(lam) + 1.0) * alpha,
            math.sqrt(
                32.0 * k * alpha * lam
                + 8.0 * k * (2.0 + lam * lam) * (2.0 * lam * rho0 + tail)
            ),
        )
    if kind is PolicyKind.EUCLIDEAN:
        h = 2.0 * math.sqrt(alpha) + rho0 + tail / (2.0 * lam)
        return big_k * max(
            2.0 * alpha * math.sqrt(alpha) + alpha * alpha / (2.0 * lam) + 2.0 * lam * alpha,
            math.sqrt((h * h + 4.0 * lam * lam) * (2.0 * lam * rho0 + tail)),
        )
    if w0 is None:
        raise LambdaOutOfRange("positive-weights mode needs w0")
    check_lambda_pw(lam, w0)
    return big_k * max(
        4.0 * alpha * (w0 / 2.0 + 2.0 * math.sqrt(w0 / 2.0) + 1.0),
        math.sqrt(
            16.0 * k * (2.0 * alpha * w0 + (2.0 + w0 * w0 / 4.0) * (w0 * rho0 + (c + sigma)))
        ),
    )


def check_big_k(big_k: float) -> None:
    """The tuning factor's rule, 1 <= K < inf (NaN fails it)."""
    if not big_k >= 1.0:
        raise LambdaOutOfRange(f"need K >= 1, got {big_k}")
    if big_k == math.inf:  # phi_min = K times a finite bound would be inf
        raise LambdaOutOfRange(f"need K < inf, got {big_k}")


@dataclass(frozen=True)
class StepPolicy:
    """Everything fixed about step sizes for one solver run."""

    kind: PolicyKind
    lam: float
    a: float
    b: float
    theta: float
    phi_min: float
    big_k: float
    alpha: float
    rho0: float
    schedule: Callable[[int], float] = default_schedule
    c: float = DEFAULT_C
    sigma: float = DEFAULT_SIGMA
    w0: float | None = None

    def __post_init__(self):
        check_big_k(self.big_k)
        # Written so that nan fails it: nan compares False.
        if not all(v > 0 for v in (self.lam, self.a, self.b, self.theta, self.phi_min)):
            raise LambdaOutOfRange("policy scalars must be positive")

    @property
    def rho1(self) -> float:
        """Confinement ceiling rho0 + c*a + b^2 * sigma / 2."""
        return self.rho0 + self.c * self.a + self.b**2 * self.sigma / 2.0


def make_policy(
    kind: PolicyKind,
    data: ProblemData,
    init_norm_sq: float,
    lam: float | None,
    big_k: float,
    schedule: Callable[[int], float] = default_schedule,
    c: float = DEFAULT_C,
    sigma: float = DEFAULT_SIGMA,
) -> StepPolicy:
    """Build a StepPolicy with the standard scale choices.

    Regularized kinds take a = 1/lam and b = 1/sqrt(lam); the
    positive-weights kind defaults lam to w0/2 and uses a = 1/w0,
    b = 1/sqrt(w0).
    """
    alpha = data.alpha
    w0 = None
    if kind is PolicyKind.POSITIVE_WEIGHTS:
        w0 = require_positive_weights(data)
        if lam is None:
            lam = w0 / 2.0
        a, b = 1.0 / w0, 1.0 / math.sqrt(w0)
    else:
        if lam is None or not lam > 0:
            raise LambdaOutOfRange("lam must be positive")
        a, b = 1.0 / lam, 1.0 / math.sqrt(lam)
    rho0 = compute_rho0(kind, init_norm_sq, alpha, lam, w0)
    phi_min = compute_phi_min(kind, big_k, lam, alpha, data.k, rho0, w0, c, sigma)
    theta = c / phi_min
    if phi_min == math.inf or theta == 0:  # an extreme lambda overflows phi_min
        raise LambdaOutOfRange(
            f"lambda={lam!r} gives phi_min={phi_min!r} and theta={theta!r}; "
            "both must be positive and finite"
        )
    return StepPolicy(
        kind=kind,
        lam=lam,
        a=a,
        b=b,
        theta=theta,
        phi_min=phi_min,
        big_k=big_k,
        alpha=alpha,
        rho0=rho0,
        schedule=schedule,
        c=c,
        sigma=sigma,
        w0=w0,
    )


def adaptive_A_B(
    iterate: ProductPoint | FactorPair, data: ProblemData, policy: StepPolicy
) -> tuple[float, float]:
    """Exact per-iteration safeguards of the policy's kind, maximized over the
    weighted support."""
    kind, lam = policy.kind, policy.lam
    if kind is PolicyKind.EUCLIDEAN:
        if not isinstance(iterate, FactorPair):
            raise ShapeMismatch("euclidean policy needs a FactorPair iterate")
        rho = confinement_euclidean(iterate)
    else:
        if not isinstance(iterate, ProductPoint):
            raise ShapeMismatch("manifold policy needs a ProductPoint iterate")
        rho = confinement_manifold(iterate)
    sup = data.support
    # max_t (a_t - c) is max_t a_t - c exactly, so the constant term of the
    # A_t cells is subtracted once per block.
    a_shift = 4.0 * lam * rho
    a_max = b_max = 0.0
    for start in range(0, sup.size, SUPPORT_BLOCK):
        t = sup[start : start + SUPPORT_BLOCK]
        rows, cols, a = data.rows.take(t), data.cols.take(t), data.a_vals.take(t)
        if kind is PolicyKind.EUCLIDEAN:
            xr, yr = iterate.x.take(rows, axis=0), iterate.y.take(cols, axis=0)
            p = np.einsum("tk,tk->t", xr, yr)
            r = a - p
            a_terms = 8.0 * r * p
            xr *= xr
            yr *= yr
            row_sq = np.sum(xr, axis=1) + np.sum(yr, axis=1)
            b_inner = 4.0 * (r**2 * row_sq + 4.0 * lam * r * p + lam**2 * rho)
            b_terms = np.sqrt(np.maximum(b_inner, 0.0))
        else:
            ur, vr = iterate.u.take(rows, axis=0), iterate.v.take(cols, axis=0)
            p = np.einsum("tk,k,tk->t", ur, iterate.x, vr)
            if kind is PolicyKind.POSITIVE_WEIGHTS:
                r = a - (1.0 - lam / data.w_vals.take(t)) * p
            else:
                r = a - p
            a_terms = 4.0 * r * p
            # m = -r (u o v) + lam x, built and squared in the gathered U rows
            m = np.multiply(ur, vr, out=ur)
            m *= -r[:, None]
            m += lam * iterate.x
            m *= m
            b_terms = np.sqrt(8.0 * np.sum(m, axis=1))
        a_max = max(a_max, float(a_terms.max()) - a_shift)
        b_max = max(b_max, float(b_terms.max()))
    return a_max / policy.a, b_max / policy.b


def tilde_A_B_of_rho(rho: float, k: int, policy: StepPolicy) -> tuple[float, float]:
    """Closed-form upper bounds on the policy's A_t and B_t from rho, alpha
    and k alone, in O(1).

    rho is ||x||^2 for the manifold kinds and ||X||^2 + ||Y||^2 for the
    Euclidean kind. A non-finite rho gives a non-finite bound.
    """
    kind, lam, alpha = policy.kind, policy.lam, policy.alpha
    # Written so that a NaN rho, which compares False, gets a NaN A_t.
    floored = rho >= _rho_floor(kind, alpha, lam, policy.w0)
    if kind is PolicyKind.EUCLIDEAN:
        h = math.sqrt(alpha) + rho / 2.0
        a_t = 0.0 if floored else 4.0 * (h * rho + lam * rho) / policy.a
        # h * h, not h ** 2: float ** raises OverflowError on a diverging rho
        b_t = math.sqrt(8.0 * h * h * rho + 8.0 * lam**2 * rho) / policy.b
        return a_t, b_t
    xn = math.sqrt(rho)
    a_t = 0.0 if floored else (4.0 * (math.sqrt(alpha) + xn) * xn + 4.0 * lam * rho) / policy.a
    b_t = math.sqrt(16.0 * k * (2.0 * alpha + (2.0 + lam**2) * rho)) / policy.b
    return a_t, b_t


def phi_t(policy: StepPolicy, a_t: float, b_t: float, t: int) -> float:
    """Per-iteration shrink factor max{A_t, B_t, c_t / theta, phi_min}."""
    if min(a_t, b_t) < 0:
        raise ShapeMismatch("A_t and B_t must be non-negative")
    return max(a_t, b_t, policy.schedule(t) / policy.theta, policy.phi_min)
