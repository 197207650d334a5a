"""Random points, tangents and draws, a tangency check, and the full and
per-sample objectives whose gradients the solvers step along, for the tests."""

import numpy as np

from wlra.geometry import ProductPoint, ProductTangent, project_tangent, qf
from wlra.model import (
    AliasSampler,
    FactorPair,
    ProblemData,
    check_lambda_pw,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    require_positive_weights,
)


def random_stiefel(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return qf(rng.standard_normal((n, k)))


def random_point(m: int, n: int, k: int, rng: np.random.Generator) -> ProductPoint:
    return ProductPoint(
        random_stiefel(m, k, rng), rng.standard_normal(k), random_stiefel(n, k, rng)
    )


def random_tangent(
    p: ProductPoint, rng: np.random.Generator, scale: float = 1.0
) -> ProductTangent:
    ambient = ProductTangent(
        scale * rng.standard_normal(p.u.shape),
        scale * rng.standard_normal(p.x.shape),
        scale * rng.standard_normal(p.v.shape),
    )
    return project_tangent(p, ambient)


def zero_tangent(p: ProductPoint) -> ProductTangent:
    return ProductTangent(np.zeros_like(p.u), np.zeros_like(p.x), np.zeros_like(p.v))


def tangent_defect(x: np.ndarray, z: np.ndarray) -> float:
    """Frobenius norm of X^T Z + Z^T X (zero iff Z is tangent at X)."""
    s = x.T @ z
    return float(np.linalg.norm(s + s.T))


def draw_many(sampler: AliasSampler, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` alias-table draws at once, vectorized."""
    idx = rng.integers(0, sampler.accept.size, size=count)
    take = rng.random(count) < sampler.accept[idx]
    return np.where(take, idx, sampler.alias[idx])


def predicted_entry(p: ProductPoint, i: int, j: int) -> float:
    """p_ij = sum_l u_il x_l v_jl, computed without materializing the matrix."""
    return float(np.dot(p.u[i] * p.x, p.v[j]))


def regularized_cost(source: ProductPoint | FactorPair, data: ProblemData, lam: float) -> float:
    """The objective the manifold and Euclidean solvers descend: the
    unregularized cost plus lam times the confinement of `source`."""
    if isinstance(source, FactorPair):
        return cost_unregularized(source, data) + lam * confinement_euclidean(source)
    return cost_unregularized(source, data) + lam * confinement_manifold(source)


def sample_cost_manifold(p: ProductPoint, t: int, data: ProblemData, lam: float) -> float:
    """Per-sample objective (a_t - p_ij)^2 + lam * ||x||^2 at triplet index t."""
    r = data.a_vals[t] - predicted_entry(p, data.rows[t], data.cols[t])
    return r * r + lam * float(np.dot(p.x, p.x))


def sample_cost_euclidean(f: FactorPair, t: int, data: ProblemData, lam: float) -> float:
    """Per-sample Euclidean objective at triplet index t."""
    r = data.a_vals[t] - float(np.dot(f.x[data.rows[t]], f.y[data.cols[t]]))
    return r * r + lam * (float(np.sum(f.x**2)) + float(np.sum(f.y**2)))


def sample_cost_pw(p: ProductPoint, t: int, data: ProblemData, lam: float) -> float:
    """Per-sample positive-weights objective at triplet index t; its
    expectation is the raw cost."""
    check_lambda_pw(lam, require_positive_weights(data))
    pv = predicted_entry(p, data.rows[t], data.cols[t])
    r = data.a_vals[t] - pv
    return r * r - (lam / data.w_vals[t]) * pv * pv + lam * float(np.dot(p.x, p.x))
