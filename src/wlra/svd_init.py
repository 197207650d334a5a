"""Column-mean imputation, truncated-SVD initialization, and the best
rank-k approximation used as a test oracle.

Both SVDs are LAPACK thin SVDs (``np.linalg.svd``). No sign convention is
imposed on the singular vectors: flipping a pair (u_j, v_j) leaves
U diag(x) V^T unchanged, and the QR retraction commutes with column sign
flips, so the solvers' costs do not depend on the signs LAPACK returns.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDimensions, ShapeMismatch
from .geometry import ProductPoint
from .model import FactorPair, ProblemData


def fill_missing_column_mean(data: ProblemData) -> np.ndarray:
    """Dense copy of the observations with each missing cell set to its
    column's observed mean (zero for all-missing columns). Raises
    InvalidDimensions when numpy cannot form the m-by-n grid."""
    counts = np.bincount(data.cols, minlength=data.n)
    sums = np.bincount(data.cols, weights=data.a_vals, minlength=data.n)
    means = np.divide(sums, counts, out=np.zeros(data.n), where=counts > 0)
    try:
        out = np.tile(means, (data.m, 1))
    except (MemoryError, ValueError, OverflowError) as exc:
        raise InvalidDimensions(
            f"cannot form the dense {data.m}x{data.n} imputation: {exc}"
        ) from exc
    out[data.rows, data.cols] = data.a_vals
    return out


def truncated_svd_init(dense, k: int, with_error: bool = False) -> tuple:
    """Rank-k truncated SVD as starting iterates for both parametrizations.

    The factor pair splits the singular values evenly: X0 = U0 sqrt(diag(x0))
    and Y0 = V0 sqrt(diag(x0)), so X0 Y0^T equals the assembled product point.
    Returns (point, pair); with `with_error`, (point, pair, error), where
    error is the squared Frobenius error of the truncation, the sum of the
    trailing squared singular values of the same SVD (`best_rank_k`'s error).
    """
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
