"""Random points and tangents, a tangency check, an inner product and a norm,
the full and per-sample objectives whose gradients the solvers step along,
and the dense references the library is checked against, for the tests."""

import dataclasses

import numpy as np

import wlra.geometry
from wlra.errors import ShapeMismatch
from wlra.geometry import (
    RANK_TOL,
    FactoredPoint,
    ProductPoint,
    ProductTangent,
    project_tangent,
    qf,
)
from wlra.model import (
    FactorPair,
    ProblemData,
    ScaledPair,
    check_lambda_pw,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    require_positive_weights,
    stoch_grad_euclidean,
    stoch_grad_pw,
)


def householder_qf(c) -> np.ndarray:
    """Q factor with positive diagonal R by LAPACK Householder QR alone: the
    kernel `qf` used for every argument before its Cholesky-QR path, kept as
    that path's reference."""
    q, r = np.linalg.qr(np.asarray(c, dtype=float))
    return q * np.sign(np.diagonal(r))


def lapack_svd_init(dense, k: int, with_error: bool = False) -> tuple:
    """Rank-k truncated SVD init from LAPACK's thin SVD of the whole matrix,
    all min(m, n) triplets: the kernel `truncated_svd_init` used before its
    Gram eigenproblem, kept as that route's reference. The error is the sum
    of the trailing squared singular values."""
    dense = np.asarray(dense, dtype=float)
    m, n = dense.shape
    if not 1 <= k <= min(m, n):
        raise ShapeMismatch(f"need 1 <= k <= min(m, n), got k={k}")
    u, s, vt = np.linalg.svd(dense, full_matrices=False)
    lead = s[:k]
    u, v = u[:, :k], vt[:k].T
    point = ProductPoint(u.copy(), lead.copy(), v.copy())
    root = np.sqrt(lead)
    pair = FactorPair(u * root, v * root)
    if with_error:
        return point, pair, float(np.sum(s[k:] ** 2))
    return point, pair


def grid_cells(data: ProblemData) -> np.ndarray:
    """The grid index rows * n + cols of each triplet."""
    return data.rows * data.n + data.cols


def full_grid_entries(left, scale, right, data: ProblemData, out=None) -> np.ndarray:
    """Dense-route predictions of the factors (L, s, R) from one m-by-n GEMM
    L diag(s) R^T read at `grid_cells(data)`: the kernel `_grid_entries` used
    outside grid order before its row blocks, kept as their reference."""
    left = left if scale is None else left * scale
    return np.ravel(left @ right.T).take(grid_cells(data), out=out, mode="clip")


def reference_fold_rule(pivots, t_new, t_new_inv) -> np.ndarray:
    """Per factor, whether `FactoredPoint` keeps its update, from two
    separate norm reductions and numpy comparisons: the fold test the step
    made before it took one stacked reduction, kept as its reference."""
    cond_sq = np.square(t_new).sum((1, 2)) * np.square(t_new_inv).sum((1, 2))
    bound = (wlra.geometry.FOLD_COND * t_new.shape[1]) ** 2
    return (pivots.min(1) > RANK_TOL) & (cond_sq <= bound)


def reference_update(self, tm, m, w, q) -> tuple:
    """`FactoredPoint._update` with `reference_fold_rule` and T' and T'^-1
    in arrays of their own, as the step made it before; a drop-in
    replacement for the method."""
    g = m @ m + (q[:, :, None] * q[:, None, :] - w[:, :, None] * w[:, None, :])
    l = np.linalg.cholesky(g)
    pivots = l.diagonal(0, 1, 2) / np.maximum(np.sqrt(g.diagonal(0, 1, 2)), 1.0)
    inv = np.linalg.inv(np.concatenate((l, tm)))
    t_new = tm @ inv[:2].transpose(0, 2, 1)
    t_new_inv = l.transpose(0, 2, 1) @ inv[2:]
    ok = reference_fold_rule(pivots, t_new, t_new_inv)
    return t_new, (q[:, None] @ inv[2:])[:, 0], ok


def per_pass_blocks(data: ProblemData):
    """(r0, r1, triplets, cells) per block of `data.grid_blocks`, the cells
    numbered within the block afresh on each call: what the dense route did
    on every pass before the plan cached them, kept as its reference."""
    cells = grid_cells(data)
    for r0, r1, at, _ in data.grid_blocks:
        yield r0, r1, at, cells[at] - r0 * data.n


def per_pass_grid_entries(left, scale, right, data: ProblemData, out=None) -> np.ndarray:
    """`_grid_entries` outside grid order on `per_pass_blocks`."""
    left = left if scale is None else left * scale
    right_t = np.ascontiguousarray(right.T)
    out = np.empty(data.nnz) if out is None else out
    for r0, r1, at, cells in per_pass_blocks(data):
        block = left[r0:r1] @ right_t
        if isinstance(at, slice):
            block.take(cells, out=out[at], mode="clip")
        else:
            out[at] = block.take(cells, mode="clip")
    return out


def per_pass_grid_sums(e, left, right, data: ProblemData, diag: bool) -> tuple:
    """`_support_sums` outside grid order on `per_pass_blocks`."""
    k = left.shape[1]
    g_left, g_right = np.empty((data.m, k)), np.zeros((data.n, k))
    for r0, r1, at, cells in per_pass_blocks(data):
        block = np.bincount(cells, e[at], (r1 - r0) * data.n).reshape(r1 - r0, data.n)
        np.matmul(block, right, out=g_left[r0:r1])
        g_right += block.T @ left[r0:r1]
    return g_left, g_right, np.einsum("ik,ik->k", left, g_left) if diag else None


def point_entries(p: ProductPoint, rows, cols) -> np.ndarray:
    """Gather-route predictions of a ProductPoint by one three-operand einsum
    over U, x and V: the kernel the gather route used for points before the
    passes took factor pairs, kept as its reference."""
    return np.einsum("tk,k,tk->t", p.u.take(rows, axis=0), p.x, p.v.take(cols, axis=0))


def full_grid_sums(e, left, right, data: ProblemData, diag: bool) -> tuple:
    """Dense-route support sums over the whole m-by-n grid E of e, one
    bincount and two GEMMs: the kernel `_support_sums` used outside grid
    order before its row blocks, kept as their reference."""
    grid = np.bincount(grid_cells(data), e, data.m * data.n).reshape(data.m, data.n)
    g_left = grid @ right
    g_diag = np.einsum("ik,ik->k", left, g_left) if diag else None
    return g_left, grid.T @ left, g_diag


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


def dense(data: ProblemData) -> np.ndarray:
    """Dense m-by-n matrix of observed values, zeros elsewhere."""
    a = np.zeros((data.m, data.n))
    a[data.rows, data.cols] = data.a_vals
    return a


def assemble(p: ProductPoint) -> np.ndarray:
    """Dense m-by-n matrix U diag(x) V^T represented by a product point."""
    return (p.u * p.x) @ p.v.T


def best_rank_k(a, k: int) -> tuple[np.ndarray, float]:
    """Best rank-<=k approximation in Frobenius norm and its squared error.

    The optimum is the truncation of the SVD; the error is the sum of the
    squared trailing singular values. When the k-th and (k+1)-th singular
    values tie, the minimizer is not unique and the truncation of this
    deterministic SVD is returned.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {a.shape}")
    if k < 0:
        raise ShapeMismatch("k must be >= 0")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = min(k, s.size)
    p = (u[:, :k] * s[:k]) @ vt[:k]
    return p, float(np.sum(s[k:] ** 2))


def check_stationarity(a, p, tol: float) -> bool:
    """True iff A^T P = P^T P and P A^T = P P^T hold within tol (Frobenius)."""
    a = np.asarray(a, dtype=float)
    p = np.asarray(p, dtype=float)
    if a.shape != p.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {p.shape} disagree")
    left = np.linalg.norm(a.T @ p - p.T @ p)
    right = np.linalg.norm(p @ a.T - p @ p.T)
    return bool(left <= tol and right <= tol)


# Dense per-sample gradients: the references for the library's row forms
# at a FactoredPoint and a ScaledPair.


def _placed_tangent(
    p: ProductPoint, i: int, j: int, g: np.ndarray, gx: np.ndarray
) -> ProductTangent:
    """The ambient direction with U row i g[0], V row j g[1] and x slot gx,
    zero elsewhere, projected onto the tangent space at p."""
    gu = np.zeros_like(p.u)
    gv = np.zeros_like(p.v)
    gu[i] = g[0]
    gv[j] = g[1]
    return project_tangent(p, ProductTangent(gu, gx, gv))


def _placed_pair(f: FactorPair, i: int, j: int, lam: float, gx_i, gy_j) -> FactorPair:
    """2 lam (X, Y) with gx_i added to row i of X and gy_j to row j of Y."""
    g = f.scaled(2.0 * lam)
    g.x[i] += gx_i
    g.y[j] += gy_j
    return g


def _dense_sample_gradient(
    p: ProductPoint, i: int, j: int, rows: np.ndarray, r: float, lam: float
) -> ProductTangent:
    """Gradient whose only data term sits at (i, j), with residual r.

    With coefficient c = -2 * r and rows = (U_i, V_j), the ambient U and V
    gradients have the single rows (c x) * (V_j, U_i), and the x gradient
    is c * (U_i * V_j) + 2 * lam * x. They are placed in dense factors and
    projected onto the tangent space.
    """
    coeff = -2.0 * r
    x = p.x
    g = (coeff * x) * rows[::-1]
    gx = coeff * (rows[0] * rows[1]) + 2.0 * lam * x
    return _placed_tangent(p, i, j, g, gx)


def dense_stoch_grad_manifold(
    p: ProductPoint, t: int, data: ProblemData, lam: float
) -> ProductTangent:
    """Projected gradient of the per-sample regularized objective at triplet index t."""
    i, j = data.rows[t], data.cols[t]
    rows = np.stack((p.u[i], p.v[j]))
    r = data.a_vals[t] - float(np.dot(rows[0] * p.x, rows[1]))
    return _dense_sample_gradient(p, i, j, rows, r, lam)


def dense_stoch_grad_pw(p: ProductPoint, t: int, data: ProblemData, lam: float) -> ProductTangent:
    """Projected positive-weights per-sample gradient at triplet index t: the
    residual uses a tilted prediction."""
    check_lambda_pw(lam, require_positive_weights(data))
    i, j = data.rows[t], data.cols[t]
    rows = np.stack((p.u[i], p.v[j]))
    pv = float(np.dot(rows[0] * p.x, rows[1]))
    r = data.a_vals[t] - (1.0 - lam * data.inv_w[t]) * pv
    return _dense_sample_gradient(p, i, j, rows, r, lam)


def dense_stoch_grad_euclidean(f: FactorPair, t: int, data: ProblemData, lam: float) -> FactorPair:
    """Gradient of the per-sample Euclidean objective at triplet index t."""
    return dense_cell_grad_euclidean(f, *sample_cell(data, t), lam)


def dense_cell_grad_euclidean(f: FactorPair, i: int, j: int, a: float, lam: float) -> FactorPair:
    """Gradient of the per-sample Euclidean objective at the cell (i, j) with value a."""
    x_i, y_j = f.x[i], f.y[j]
    coeff = -2.0 * (a - float(np.dot(x_i, y_j)))
    return _placed_pair(f, i, j, lam, coeff * y_j, coeff * x_i)


# The library's per-sample gradients at a fresh SGD state, placed in the
# dense forms above. A fresh state reads the point's own rows, so these
# equal the dense references bit for bit.


def sample_cell(data: ProblemData, t: int) -> tuple:
    """(i, j, a) of triplet t as Python numbers, as the SGD loop hands a
    sample to the per-sample gradients."""
    return int(data.rows[t]), int(data.cols[t]), float(data.a_vals[t])


def sampled_tangent(grad, p: ProductPoint, t: int, data: ProblemData, lam: float) -> ProductTangent:
    """`grad` (stoch_grad_manifold or stoch_grad_pw) at FactoredPoint(p), its
    ambient rows placed at row i of U and row j of V, (i, j) the cell of t,
    and projected onto the tangent space at p."""
    i, j, a = sample_cell(data, t)
    inv_w = (float(data.inv_w[t]),) if grad is stoch_grad_pw else ()
    _, g, gx = grad(FactoredPoint(p), i, j, a, lam, *inv_w)
    return _placed_tangent(p, i, j, g, gx)


def sampled_pair(f: FactorPair, t: int, data: ProblemData, lam: float) -> FactorPair:
    """stoch_grad_euclidean at ScaledPair(f, lam), its data rows added at
    row i of 2 lam X and row j of 2 lam Y, (i, j) the cell of t."""
    i, j, a = sample_cell(data, t)
    return _placed_pair(f, i, j, lam, *stoch_grad_euclidean(ScaledPair(f, lam), i, j, a))


def inner(a, b) -> float:
    """The embedded Euclidean inner product of two ProductTangents, or of two
    FactorPairs: the entrywise products of their slots, summed."""
    return float(
        sum(np.sum(getattr(a, f.name) * getattr(b, f.name)) for f in dataclasses.fields(a))
    )


def norm(a) -> float:
    """The embedded Euclidean norm of a ProductTangent or a FactorPair."""
    return float(np.sqrt(a.sq_norm()))
