"""Column-mean imputation and truncated-SVD initialization.

The truncated SVD comes from the Gram eigenproblem of the smaller side,
through LAPACK (``numpy.linalg``) alone:

1. A is scaled by the power of two 2^-e that puts max |a| in [0.5, 1). The
   scaling is exact, no Gram entry can overflow, and a square that
   underflows is below 2^-1022 of the largest.
2. ``eigh`` of the Gram matrix A^T A (A A^T when m < n, with the roles of
   U and V swapped) gives its top k eigenvectors V_k.
3. One Rayleigh-Ritz step: with Q from the QR of A V_k, the SVD of the
   k-by-n matrix Q^T A = U_b diag(s) V_b^T gives U = Q U_b, x = 2^e s and
   V = V_b.

The truncation error is the sum of the Gram matrix's trailing eigenvalues,
times 4^e; past the float range it is inf. No sign convention is imposed on
the singular vectors: flipping a pair (u_j, v_j) leaves U diag(x) V^T
unchanged, and the QR retraction commutes with column sign flips, so the
solvers' costs do not depend on the signs LAPACK returns.
"""

from __future__ import annotations

import math

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
    error is the squared Frobenius error of the truncation: the sum of the
    Gram matrix's trailing eigenvalues (the squared trailing singular
    values), clipped at 0.
    """
    dense = np.asarray(dense, dtype=float)
    m, n = dense.shape
    if not 1 <= k <= min(m, n):
        raise ShapeMismatch(f"need 1 <= k <= min(m, n), got k={k}")
    wide = m < n
    a = dense.T if wide else dense
    e = math.frexp(max(float(a.max()), -float(a.min())))[1]
    a = np.ldexp(a, -e)
    evals, evecs = np.linalg.eigh(a.T @ a)  # ascending
    q = np.linalg.qr(a @ evecs[:, : -k - 1 : -1])[0]
    ub, s, vbt = np.linalg.svd(q.T @ a, full_matrices=False)
    u, v = q @ ub, vbt.T
    if wide:
        u, v = v, u
    x = np.ldexp(s, e)
    point = ProductPoint(np.ascontiguousarray(u), x, np.ascontiguousarray(v))
    root = np.sqrt(x)
    # Y column-major, so that Y^T is row-major: a dense-route cost pass,
    # X @ Y^T a block of rows at a time, takes 0.29 ms against 0.34 with
    # Y row-major at 1500x150, k = 8, and sgd_euclidean keeps its start's
    # layout for the whole solve.
    pair = FactorPair(np.ascontiguousarray(u * root), np.asfortranarray(v * root))
    if with_error:
        with np.errstate(over="ignore"):
            return point, pair, max(float(np.ldexp(np.sum(evals[:-k]), 2 * e)), 0.0)
    return point, pair
