"""Geometry of the product manifold V_k(R^m) x R^k x V_k(R^n).

Points on a Stiefel factor are plain (n, k) arrays with orthonormal
columns; tangent vectors at X are (n, k) arrays Z with X^T Z + Z^T X = 0.
The product point/tangent pairs are small frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ShapeMismatch

ORTHO_TOL = 1e-10
RANK_TOL = 1e-12


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d array, got shape {a.shape}")
    return a


def orthonormality_defect(x: np.ndarray) -> float:
    """Frobenius norm of X^T X - I_k."""
    x = _as_matrix(x)
    k = x.shape[1]
    return float(np.linalg.norm(x.T @ x - np.eye(k)))


def tangent_defect(x: np.ndarray, z: np.ndarray) -> float:
    """Frobenius norm of X^T Z + Z^T X (zero iff Z is tangent at X)."""
    s = x.T @ z
    return float(np.linalg.norm(s + s.T))


@dataclass(frozen=True)
class ProductPoint:
    """An iterate (U, x, V): U is m-by-k, x has length k, V is n-by-k."""

    u: np.ndarray
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = _as_matrix(self.u)
        v = _as_matrix(self.v)
        x = np.asarray(self.x, dtype=float).reshape(-1)
        if u.shape[1] != x.size or v.shape[1] != x.size:
            raise ShapeMismatch(
                f"inconsistent rank: U {u.shape}, x {x.shape}, V {v.shape}"
            )
        if u.shape[0] < u.shape[1] or v.shape[0] < v.shape[1]:
            raise ShapeMismatch("Stiefel factors need at least as many rows as columns")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "v", v)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.u.shape[0], self.v.shape[0], self.x.size


@dataclass(frozen=True)
class ProductTangent:
    """A tangent vector (dU, dx, dV) at some ProductPoint."""

    du: np.ndarray
    dx: np.ndarray
    dv: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "du", _as_matrix(self.du))
        object.__setattr__(self, "dx", np.asarray(self.dx, dtype=float).reshape(-1))
        object.__setattr__(self, "dv", _as_matrix(self.dv))

    def scaled(self, c: float) -> "ProductTangent":
        return ProductTangent(c * self.du, c * self.dx, c * self.dv)

    def norm(self) -> float:
        return float(
            np.sqrt(
                np.sum(self.du**2) + np.sum(self.dx**2) + np.sum(self.dv**2)
            )
        )


def tangent_inner(a: ProductTangent, b: ProductTangent) -> float:
    """Riemannian (embedded Euclidean) inner product of two product tangents."""
    return float(
        np.sum(a.du * b.du) + np.sum(a.dx * b.dx) + np.sum(a.dv * b.dv)
    )


def zero_tangent(p: ProductPoint) -> ProductTangent:
    return ProductTangent(np.zeros_like(p.u), np.zeros_like(p.x), np.zeros_like(p.v))


def qf(c) -> np.ndarray:
    """Q factor of the thin QR decomposition with positive diagonal R.

    LAPACK Householder QR (``np.linalg.qr``), with each column of Q flipped
    so that diag(R) > 0. Raises RankDeficient when some |R_jj| is at most
    RANK_TOL * max(||c_j||, 1).
    """
    c = _as_matrix(c)
    n, k = c.shape
    if k > n:
        raise ShapeMismatch(f"need k <= n, got shape {c.shape}")
    q, r = np.linalg.qr(c)
    diag = np.diagonal(r)
    # ||c_j|| = ||r_j|| since Q has orthonormal columns; O(k^2) instead of O(nk).
    col_scales = np.maximum(np.linalg.norm(r, axis=0), 1.0)
    dependent = np.flatnonzero(np.abs(diag) <= RANK_TOL * col_scales)
    if dependent.size:
        j = int(dependent[0])
        raise RankDeficient(
            f"column {j} is numerically dependent (pivot {abs(diag[j]):.3e})"
        )
    q *= np.sign(diag)
    return q


def tangent_project(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Orthogonal projection of an ambient matrix onto the tangent space at X.

    Pi_X(xi) = xi - X (X^T xi + xi^T X) / 2.
    """
    x = _as_matrix(x)
    xi = _as_matrix(xi)
    if x.shape != xi.shape:
        raise ShapeMismatch(f"point {x.shape} and direction {xi.shape} disagree")
    s = x.T @ xi
    return xi - 0.5 * x @ (s + s.T)


def project_tangent(p: ProductPoint, v: ProductTangent) -> ProductTangent:
    """Project each slot of an ambient product direction onto the tangent space."""
    return ProductTangent(
        tangent_project(p.u, v.du), v.dx, tangent_project(p.v, v.dv)
    )


def retract(p: ProductPoint, v: ProductTangent) -> ProductPoint:
    """QR retraction: (qf(U + dU), x + dx, qf(V + dV))."""
    if v.du.shape != p.u.shape or v.dv.shape != p.v.shape or v.dx.size != p.x.size:
        raise ShapeMismatch("tangent not based at the given point")
    return ProductPoint(qf(p.u + v.du), p.x + v.dx, qf(p.v + v.dv))


def assemble(p: ProductPoint) -> np.ndarray:
    """Dense m-by-n matrix U diag(x) V^T represented by a product point."""
    return (p.u * p.x) @ p.v.T


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
