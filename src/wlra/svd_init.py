"""Column-mean imputation and truncated-SVD initialization.

The SVD is LAPACK's thin SVD (``np.linalg.svd``). No sign convention is
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
    trailing squared singular values of the same SVD.
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
