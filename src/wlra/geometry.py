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
# `qf` takes Cholesky-QR when ||c^T c - I||_F <= NEAR_TOL.
NEAR_TOL = 0.5


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

    def sq_norm(self) -> float:
        return float(np.sum(self.du**2) + np.sum(self.dx**2) + np.sum(self.dv**2))

    def norm(self) -> float:
        return float(np.sqrt(self.sq_norm()))

    def inner(self, other: "ProductTangent") -> float:
        """Riemannian (embedded Euclidean) inner product with another tangent."""
        return float(
            np.sum(self.du * other.du) + np.sum(self.dx * other.dx) + np.sum(self.dv * other.dv)
        )


def qf(c) -> np.ndarray:
    """Q factor of the thin QR decomposition with positive diagonal R.

    That factor is unique, so two kernels give it. When the Gram matrix
    G = c^T c is within NEAR_TOL of I (Frobenius), Cholesky-QR returns
    c L^-T with L L^T = G; its loss of orthogonality grows like
    eps cond(c)^2, and the gate holds cond(c)^2 <= 3 with every eigenvalue
    of G at least 1 - NEAR_TOL, so no column is near dependence there.
    Otherwise (a NaN or inf Gram included), or when the factorization
    fails, LAPACK Householder QR (``np.linalg.qr``), with each column of Q
    flipped so that diag(R) > 0. That path raises RankDeficient when some
    |R_jj| is at most RANK_TOL * max(||c_j||, 1).
    """
    c = _as_matrix(c)
    n, k = c.shape
    if k > n:
        raise ShapeMismatch(f"need k <= n, got shape {c.shape}")
    with np.errstate(over="ignore"):  # a Gram or gate that overflows is inf
        g = c.T @ c
        near = np.linalg.norm(g - np.eye(k)) <= NEAR_TOL  # NaN and inf fail it
    if near:
        try:
            return c @ np.linalg.inv(np.linalg.cholesky(g)).T
        except np.linalg.LinAlgError:
            pass
    q, r = np.linalg.qr(c)
    diag = np.diagonal(r)
    # ||c_j|| = ||r_j|| as Q is orthonormal; hypot does not square, so cannot overflow.
    col_scales = np.maximum(np.hypot.reduce(r, axis=0), 1.0)
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


# A factor of a FactoredPoint folds T back into its base, re-orthonormalizing
# with `qf`, when the condition number of T passes FOLD_COND (row updates
# divide by T, so their round-off grows with it) or after FOLD_STEPS steps.
# The Cholesky-QR step takes U^T U = I instead of forming U^T U, so it does not
# restore orthonormality the way `qf` does: under tiny steps ||U^T U - I||_F
# drifts up by about 1.5e-16 per step.
FOLD_COND = 100.0
FOLD_STEPS = 1000


class FactoredPoint:
    """A product point (U, x, V) with U = B_u T_u and V = B_v T_v kept in
    factored form for single-sample steps.

    The bases B_u (m-by-k) and B_v (n-by-k) are `bases`; T_u and T_v are
    stacked in the (2, k, k) array `t`, so that every k-by-k operation of a
    step is one numpy call for both factors. For one factor U, the step
    U + s Pi_U(e_i a^T) equals U M + s e_i a^T with
    M = I - s (u_i a^T + a u_i^T) / 2, and its QR retraction
    (U M + s e_i a^T) R^-1 comes from the Cholesky factor R of the k-by-k
    Gram matrix G = M^T M + s (M^T u_i a^T + a u_i^T M) + s^2 a a^T, which
    holds because U^T U = I. The new point is B T' with T' = T M R^-1 and
    only row i of B rewritten, so a step costs O(k^3) instead of the
    O(m k^2) of `retract`. V takes the same step at row j.

    Each factor folds on its own, B = qf(U M + s e_i a^T) and T = I, when
    its update is unavailable (some Cholesky pivot R_jj is at most
    RANK_TOL * max(sqrt(G_jj), 1), the rule of `qf`, or cond(T') passes
    FOLD_COND) or after FOLD_STEPS steps since its last fold. A LinAlgError
    of a batched factorization or inverse does not say which factor failed,
    so both fold. A fold is the same point, as qf(A R^-1) = qf(A) for an
    upper-triangular R with positive diagonal.

    `point()` materializes the ProductPoint, O((m + n) k^2); it is cached
    until the next step, and the first one is the point the state was built
    from.
    """

    def __init__(self, p: ProductPoint):
        k = p.x.size
        self.bases = [np.array(p.u, dtype=float), np.array(p.v, dtype=float)]
        self.t = np.tile(np.eye(k), (2, 1, 1))
        self.steps = [0, 0]  # per factor, since its last fold
        self.x = p.x
        self._eye = np.eye(k)
        self._base_rows = np.empty((2, 1, k))
        self._point = p

    def rows(self, i: int, j: int) -> np.ndarray:
        """Row i of U and row j of V, as one (2, k) array."""
        buf = self._base_rows
        buf[0, 0] = self.bases[0][i]
        buf[1, 0] = self.bases[1][j]
        return (buf @ self.t)[:, 0]

    def point(self) -> ProductPoint:
        if self._point is None:
            u, v = (base @ t for base, t in zip(self.bases, self.t))
            self._point = ProductPoint(u, self.x, v)
        return self._point

    def step(self, i: int, j: int, grad: tuple, s: float) -> None:
        """Retract along s times the projection of an ambient direction.

        `grad` is (rows, a, dx): `rows` the (2, k) array of row i of U and
        row j of V, as `rows(i, j)` read them, `a` the (2, k) array of the
        direction's U row i and V row j, and `dx` its x slot.
        """
        rows, a, dx = grad
        b = rows[:, :, None] * a[:, None, :]
        m = self._eye - (0.5 * s) * (b + b.transpose(0, 2, 1))
        w = (rows[:, None] @ m)[:, 0]  # M^T u_i, as M is symmetric
        q = w + s * a  # row i of U M + s e_i a^T
        tm = self.t @ m
        steps = self.steps = [n + 1 for n in self.steps]
        t_new, ok = self.t, (False, False)
        if min(steps) < FOLD_STEPS:
            try:
                t_new, new_rows, ok = self._update(tm, m, w, q)
            except np.linalg.LinAlgError:
                pass  # which factor failed is unknown, so both fold
        self.t = t_new
        for f, cell in enumerate((i, j)):
            if ok[f] and steps[f] < FOLD_STEPS:
                self.bases[f][cell] = new_rows[f]
            else:
                u = self.bases[f] @ tm[f]
                u[cell] = q[f]
                self.bases[f] = qf(u)
                self.t[f] = self._eye
                steps[f] = 0
        self.x = self.x + s * dx
        self._point = None

    def _update(self, tm, m, w, q) -> tuple:
        """(T', R^-T q T'^-1, ok) for both factors; ok[f] is False where
        factor f fails the pivot or the FOLD_COND rule. Raises LinAlgError
        when a batched Cholesky factorization or inverse fails."""
        # M^T M + s (w a^T + a w^T) + s^2 a a^T, written as M^T M + q q^T - w w^T
        g = m @ m + (q[:, :, None] * q[:, None, :] - w[:, :, None] * w[:, None, :])
        l = np.linalg.cholesky(g)
        pivots = l.diagonal(0, 1, 2) / np.maximum(np.sqrt(g.diagonal(0, 1, 2)), 1.0)
        r_inv = np.linalg.inv(l).transpose(0, 2, 1)
        t_new = tm @ r_inv
        t_new_inv = np.linalg.inv(t_new)
        # cond(T') as ||T'||_F ||T'^-1||_F / k: 1 for orthogonal T', and between
        # cond_2(T') / k and cond_2(T') in general; an SVD would cost more than
        # the step. Compared squared; NaN folds too.
        cond_sq = np.square(t_new).sum((1, 2)) * np.square(t_new_inv).sum((1, 2))
        ok = (pivots.min(1) > RANK_TOL) & (cond_sq <= (FOLD_COND * q.shape[1]) ** 2)
        return t_new, (q[:, None] @ r_inv @ t_new_inv)[:, 0], ok
