"""Problem data, cost functions, sampling, and gradients.

The data matrix is stored as triplets over its observed support; costs and
gradients sum over observed entries only (by GEMMs over the grid when the
support fills it; see DENSE_FILL). Three parametrizations are
supported: the product manifold (U, x, V), the Euclidean factor pair
(X, Y), and the positive-weights variant of the manifold problem.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptySupport,
    LambdaOutOfRange,
    NonPositiveWeight,
    ShapeMismatch,
)
from .geometry import FactoredPoint, ProductPoint, ProductTangent, project_tangent

# Observed cells per block when a cost or a safeguard walks the support.
# Whole-support temporaries run to megabytes, which the allocator returns to
# the system when they are freed, so every call would page them in again;
# blocks of this size are reused.
SUPPORT_BLOCK = 4096

# Support passes take the dense route when m * n <= DENSE_FILL * nnz. At 4000x400, k = 10, the
# dense gradient was 1.9x / 1.2x / 0.68x as fast as gather with 1 in 16 / 24 / 32 cells observed.
DENSE_FILL = 16


@dataclass(frozen=True)
class ProblemData:
    """Observed entries of an m-by-n matrix with probability weights.

    rows/cols/a_vals hold the observed triplets; w_vals are non-negative
    weights on the same support summing to one. k is the rank cap.
    """

    m: int
    n: int
    k: int
    rows: np.ndarray
    cols: np.ndarray
    a_vals: np.ndarray
    w_vals: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).reshape(-1)
        cols = np.asarray(self.cols, dtype=np.int64).reshape(-1)
        a_vals = np.asarray(self.a_vals, dtype=float).reshape(-1)
        w_vals = np.asarray(self.w_vals, dtype=float).reshape(-1)
        if not (rows.size == cols.size == a_vals.size == w_vals.size):
            raise ShapeMismatch("triplet arrays must have equal lengths")
        if rows.size == 0:
            raise EmptySupport("no observed entries")
        if self.k > min(self.m, self.n) or self.k < 1:
            raise ShapeMismatch(f"need 1 <= k <= min(m, n), got k={self.k}")
        if rows.min() < 0 or rows.max() >= self.m or cols.min() < 0 or cols.max() >= self.n:
            raise ShapeMismatch("triplet indices out of range")
        # Written so that NaN fails each check. A min or max is NaN when any
        # value is, so the checks make no temporary the size of the support.
        if not w_vals.min() >= 0:
            raise NonPositiveWeight("weights must be non-negative")
        if not abs(w_vals.sum() - 1.0) <= 1e-12:
            raise ShapeMismatch(f"weights sum to {w_vals.sum()!r}, expected 1")
        if not (np.isfinite(a_vals.min()) and np.isfinite(a_vals.max())):
            raise ShapeMismatch("observed values must be finite")
        for name, arr in (("rows", rows), ("cols", cols), ("a_vals", a_vals), ("w_vals", w_vals)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def nnz(self) -> int:
        return self.rows.size

    @cached_property
    def support(self) -> np.ndarray:
        """Indices of triplets with strictly positive weight (the set Delta)."""
        idx = np.flatnonzero(self.w_vals > 0)
        idx.setflags(write=False)
        return idx

    @cached_property
    def inv_w(self) -> np.ndarray:
        """Reciprocal weights, defined only when every cell is positively weighted."""
        require_positive_weights(self)
        inv = 1.0 / self.w_vals
        inv.setflags(write=False)
        return inv

    @cached_property
    def neg_2w(self) -> np.ndarray:
        """-2 w_t, the factor that turns residuals into the full gradients' weights."""
        neg = -2.0 * self.w_vals
        neg.setflags(write=False)
        return neg

    @cached_property
    def min_weight(self) -> float:
        """Smallest weight over all observed cells."""
        return float(self.w_vals.min())

    @cached_property
    def cells(self) -> np.ndarray | None:
        """Grid index rows * n + cols of each triplet on the dense route, else None."""
        if self.m * self.n > DENSE_FILL * self.nnz:
            return None
        cells = self.rows * self.n + self.cols
        cells.setflags(write=False)
        return cells

    @cached_property
    def sampler(self) -> "AliasSampler":
        return AliasSampler(self.w_vals[self.support])

    def dense(self) -> np.ndarray:
        """Dense m-by-n matrix of observed values, zeros elsewhere."""
        a = np.zeros((self.m, self.n))
        a[self.rows, self.cols] = self.a_vals
        return a


def require_positive_weights(data: ProblemData) -> float:
    """Check the all-positive-weights regime; returns w0 = min weight."""
    if data.nnz != data.m * data.n:
        raise NonPositiveWeight(
            "positive-weights mode needs every cell observed and weighted"
        )
    w0 = data.min_weight
    if w0 <= 0:
        raise NonPositiveWeight("positive-weights mode needs all weights > 0")
    return w0


def check_lambda_pw(lam: float, w0: float) -> None:
    if not 0 < lam < w0:
        raise LambdaOutOfRange(f"need 0 < lambda < w0, got lambda={lam}, w0={w0}")


@dataclass(frozen=True)
class FactorPair:
    """Euclidean iterate (X, Y) with X m-by-k and Y n-by-k; doubles as a tangent."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
            raise ShapeMismatch(f"bad factor shapes {x.shape}, {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def add_scaled(self, d: "FactorPair", c: float) -> "FactorPair":
        return FactorPair(self.x + c * d.x, self.y + c * d.y)

    def scaled(self, c: float) -> "FactorPair":
        return FactorPair(c * self.x, c * self.y)

    def sq_norm(self) -> float:
        return float(np.sum(self.x**2) + np.sum(self.y**2))

    def norm(self) -> float:
        return float(np.sqrt(self.sq_norm()))

    def inner(self, other: "FactorPair") -> float:
        return float(np.sum(self.x * other.x) + np.sum(self.y * other.y))


# A ScaledPair step whose scale would fall below FOLD_SCALE folds the scale
# back into the factors, long before a^2, in every residual, could underflow
# (near 1e-154).
FOLD_SCALE = 1e-100
# A ScaledPair recomputes its running ||Xb||^2 + ||Yb||^2 from the bases
# after SYNC_STEPS row-by-row updates, which bounds their round-off.
SYNC_STEPS = 1000


class ScaledPair:
    """A factor pair X = a Xb, Y = a Yb kept with one shared scale a.

    The SGD step X + s (2 lam X + e_i g^T), and its Y twin, is
    a' = a (1 + 2 s lam) with rows i of Xb and j of Yb moved by s / a' times
    the data rows, so it costs O(k) instead of the O((m + n) k) of a dense
    step. When a' is not finite or falls below FOLD_SCALE (a shrink
    1 + 2 s lam <= 0 included), the step folds: it is taken densely on the
    bases, Xb = a' Xb plus s times the data row, and a = 1. `pair()`
    materializes the FactorPair (a Xb, a Yb); it is cached until the next
    step, and the first one is the pair the state was built from.

    `sq_norm()` is ||Xb||_F^2 + ||Yb||_F^2, computed from the bases on the
    first read, after a fold and after SYNC_STEPS steps; in between, each
    step adds the change of its two rows, O(k).
    """

    def __init__(self, f: FactorPair, lam: float):
        self.x_base = np.array(f.x, dtype=float)
        self.y_base = np.array(f.y, dtype=float)
        self.lam = lam
        self.scale = 1.0
        self._pair = f
        self._sq_norm = 0.0
        self._sq_left = 0  # row-by-row updates left before a recompute

    def pair(self) -> FactorPair:
        if self._pair is None:
            self._pair = FactorPair(self.scale * self.x_base, self.scale * self.y_base)
        return self._pair

    def sq_norm(self) -> float:
        if not self._sq_left:
            x, y = self.x_base, self.y_base
            self._sq_norm = float(np.vdot(x, x) + np.vdot(y, y))
            self._sq_left = SYNC_STEPS
        return self._sq_norm

    def step(self, i: int, j: int, rows: tuple, s: float) -> None:
        """Step along s times the gradient with data rows `rows` (X row i,
        Y row j) and penalty 2 lam (X, Y)."""
        gx_i, gy_j = rows
        scale = self.scale * (1.0 + 2.0 * s * self.lam)
        if FOLD_SCALE <= scale < np.inf:
            self.scale = scale
            s /= scale  # the bases move by s / a' times the data rows
        else:  # a' outside [FOLD_SCALE, inf), NaN included
            self.x_base *= scale
            self.y_base *= scale
            self.scale = 1.0
            self._sq_left = 0
        dx, dy = s * gx_i, s * gy_j
        if self._sq_left:  # ||r + d||^2 - ||r||^2 = d . (2 r + d) for each moved row r
            self._sq_left -= 1
            self._sq_norm += float(
                np.dot(dx, 2.0 * self.x_base[i] + dx) + np.dot(dy, 2.0 * self.y_base[j] + dy)
            )
        self.x_base[i] += dx
        self.y_base[j] += dy
        self._pair = None


class AliasSampler:
    """Walker alias table for sampling an index with fixed probabilities.

    One draw consumes one `integers` and one `random` call of the supplied
    generator, in that order, so sequences are reproducible per seed.
    """

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if probs.size == 0 or probs.min() <= 0:
            raise EmptySupport("sampler needs at least one positive probability")
        n = probs.size
        # Pair on stdlib arrays: reading them cell by cell is several times
        # faster than reading numpy arrays, and unlike lists they hold no
        # Python object per cell. Each is allocated once, at full size, and
        # filled and read through a numpy view, so the build makes few
        # temporaries. One stack array holds the small cells in [0, ns),
        # top at ns - 1, and the large cells in [top, n), top at `top`, each
        # in the order the pairing pops them.
        left = array("d", [0.0]) * n
        scaled = np.frombuffer(left)
        np.multiply(probs, n / probs.sum(), out=scaled)
        is_small = scaled < 1.0
        ns = int(np.count_nonzero(is_small))
        stack = array("q", [0]) * n
        order = np.frombuffer(stack, dtype=np.int64)
        order[:ns] = np.flatnonzero(is_small)
        order[ns:] = np.flatnonzero(~is_small)[::-1]
        alias = array("q", [0]) * n
        top = ns
        while ns and top < n:
            ns -= 1
            s = stack[ns]
            l = stack[top]
            alias[s] = l
            left[l] -= 1.0 - left[s]
            if left[l] < 1.0:  # l moves to the small stack
                stack[ns] = l
                ns += 1
                top += 1
        # A cell is popped as `s` at most once and only `l` entries change
        # afterwards, so a paired cell's final entry is its acceptance
        # probability; the cells left on either stack accept always.
        self.accept = scaled
        self.alias = np.frombuffer(alias, dtype=np.int64)
        for unpaired in (order[:ns], order[top:]):
            self.accept[unpaired] = 1.0
            self.alias[unpaired] = unpaired

    def draw(self, rng: np.random.Generator) -> int:
        i = int(rng.integers(0, self.accept.size))
        if rng.random() < self.accept[i]:
            return i
        return int(self.alias[i])


def sample_index(data: ProblemData, rng: np.random.Generator) -> int:
    """Draw an observed triplet index t (cell rows[t], cols[t]) with probability w_t."""
    return int(data.support[data.sampler.draw(rng)])


# ---------------------------------------------------------------------------
# Predicted entries restricted to the observed support.


# `take` gathers the same rows as fancy indexing, at about half the cost.


def _point_entries(p: ProductPoint, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.einsum("tk,k,tk->t", p.u.take(rows, axis=0), p.x, p.v.take(cols, axis=0))


def _pair_entries(f: FactorPair, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.einsum("tk,tk->t", f.x.take(rows, axis=0), f.y.take(cols, axis=0))


def _entries(source, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    if isinstance(source, ProductPoint):
        return _point_entries(source, rows, cols)
    return _pair_entries(source, rows, cols)


def _grid_entries(source, data: ProblemData, out: np.ndarray | None = None) -> np.ndarray:
    """Dense route: one m-by-n GEMM read at `data.cells` (into `out`, when given)."""
    if isinstance(source, ProductPoint):
        grid = (source.u * source.x) @ source.v.T
    else:
        grid = source.x @ source.y.T
    # The cells are in range by construction; mode "raise" would buffer `out`.
    return np.ravel(grid).take(data.cells, out=out, mode="clip")


# ---------------------------------------------------------------------------
# Costs.


def cost_unregularized(
    source: ProductPoint | FactorPair, data: ProblemData, residual: np.ndarray | None = None
) -> float:
    """Weighted squared error over the observed support.

    The dense route makes one GEMM; else the cells go in SUPPORT_BLOCK blocks.
    `residual`, when given, is an array of nnz floats that receives
    a_t - p_t, which the full gradients take instead of forming the
    predictions again.
    """
    if data.cells is not None:
        res = _grid_entries(source, data, residual)
        np.subtract(data.a_vals, res, out=res)
        return float(np.dot(data.w_vals, np.square(res, out=res if residual is None else None)))
    total = 0.0
    for start in range(0, data.nnz, SUPPORT_BLOCK):
        cells = slice(start, start + SUPPORT_BLOCK)
        pred = _entries(source, data.rows[cells], data.cols[cells])
        out = None if residual is None else residual[cells]
        res = np.subtract(data.a_vals[cells], pred, out=out)
        total += float(np.dot(data.w_vals[cells], res**2))
    return total


# ---------------------------------------------------------------------------
# Stochastic gradients (single sampled entry).


def _sample_rows(
    p: ProductPoint | FactoredPoint, t: int, data: ProblemData
) -> tuple[int, int, np.ndarray]:
    """Cell (i, j) of triplet index t, with row i of U and row j of V as one
    (2, k) array."""
    i, j = data.rows[t], data.cols[t]
    if isinstance(p, FactoredPoint):
        return i, j, p.rows(i, j)
    return i, j, np.stack((p.u[i], p.v[j]))


def _sample_gradient(
    p: ProductPoint | FactoredPoint, i: int, j: int, rows: np.ndarray, r: float, lam: float
):
    """Gradient whose only data term sits at (i, j), with residual r.

    With coefficient c = -2 * r and rows = (U_i, V_j), the ambient U and V
    gradients have the single rows (c x) * (V_j, U_i), and the x gradient
    is c * (U_i * V_j) + 2 * lam * x. At a ProductPoint they are placed in
    dense factors and projected onto the tangent space.
    """
    coeff = -2.0 * r
    x = p.x
    g = (coeff * x) * rows[::-1]
    gx = coeff * (rows[0] * rows[1]) + 2.0 * lam * x
    if isinstance(p, FactoredPoint):
        return rows, g, gx
    gu = np.zeros_like(p.u)
    gv = np.zeros_like(p.v)
    gu[i] = g[0]
    gv[j] = g[1]
    return project_tangent(p, ProductTangent(gu, gx, gv))


def stoch_grad_manifold(
    p: ProductPoint | FactoredPoint, t: int, data: ProblemData, lam: float
):
    """Gradient of the per-sample regularized objective at triplet index t.

    At a ProductPoint, the projected ProductTangent. At a FactoredPoint, in
    O(k) after one read of U row i and V row j: the tuple (those rows as a
    (2, k) array, the (2, k) array of the non-zero ambient U and V gradient
    rows, the x gradient), which `FactoredPoint.step` projects and retracts
    without reading the rows again.
    """
    i, j, rows = _sample_rows(p, t, data)
    r = data.a_vals[t] - float(np.dot(rows[0] * p.x, rows[1]))
    return _sample_gradient(p, i, j, rows, r, lam)


def stoch_grad_euclidean(f: FactorPair | ScaledPair, t: int, data: ProblemData, lam: float):
    """Gradient of the per-sample Euclidean objective at triplet index t.

    At a FactorPair, the dense FactorPair. At a ScaledPair, only the data
    rows (-2 r Y_j, -2 r X_i) in O(k); `ScaledPair.step` applies the
    penalty term 2 lam (X, Y) to the scale.
    """
    i, j = data.rows[t], data.cols[t]
    lazy = isinstance(f, ScaledPair)
    x_i, y_j = (f.scale * f.x_base[i], f.scale * f.y_base[j]) if lazy else (f.x[i], f.y[j])
    coeff = -2.0 * (data.a_vals[t] - float(np.dot(x_i, y_j)))
    if lazy:
        return coeff * y_j, coeff * x_i
    g = f.scaled(2.0 * lam)
    g.x[i] += coeff * y_j
    g.y[j] += coeff * x_i
    return g


def stoch_grad_pw(
    p: ProductPoint | FactoredPoint, t: int, data: ProblemData, lam: float
):
    """Positive-weights per-sample gradient at triplet index t: the residual
    uses a tilted prediction. Returns what `stoch_grad_manifold` returns for
    the same kind of point."""
    check_lambda_pw(lam, require_positive_weights(data))
    i, j, rows = _sample_rows(p, t, data)
    pv = float(np.dot(rows[0] * p.x, rows[1]))
    r = data.a_vals[t] - (1.0 - lam * data.inv_w[t]) * pv
    return _sample_gradient(p, i, j, rows, r, lam)


# ---------------------------------------------------------------------------
# Full gradients (sums over the observed support).


def _residual_weights(source, data: ProblemData, residual: np.ndarray | None) -> np.ndarray:
    """e_t = -2 w_t (a_t - p_t) on every observed cell, written over
    `residual` (a_t - p_t at `source`) when it is given, else from a cost pass."""
    if residual is None:
        residual = np.empty(data.nnz)
        cost_unregularized(source, data, residual)
    return np.multiply(residual, data.neg_2w, out=residual)


def _support_sums(
    e: np.ndarray, left: np.ndarray, right: np.ndarray, data: ProblemData, diag: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Weighted sums over the observed cells.

    Column l of the first result (m-by-k) is bincount(rows, e * right[cols, l]),
    column l of the second (n-by-k) is bincount(cols, e * left[rows, l]), and,
    with `diag`, entry l of the third is sum_t e_t left[rows_t, l] right[cols_t, l].
    The dense route forms them as E right, E^T left and the column sums of
    left * (E right), E the m-by-n grid of e (duplicate cells add up); the
    gather route one rank column at a time, each gathered by a 1-D `take`."""
    if data.cells is not None:
        grid = np.bincount(data.cells, e, data.m * data.n).reshape(data.m, data.n)
        g_left = grid @ right
        g_diag = np.einsum("ik,ik->k", left, g_left) if diag else None
        return g_left, grid.T @ left, g_diag
    rows, cols = data.rows, data.cols
    k = left.shape[1]
    g_left = np.empty((data.m, k))
    g_right = np.empty((data.n, k))
    g_diag = np.empty(k) if diag else None
    left_t, right_t = left.T.copy(), right.T.copy()
    by_row, by_col = np.empty(data.nnz), np.empty(data.nnz)
    for l in range(k):
        np.take(right_t[l], cols, out=by_row)
        np.take(left_t[l], rows, out=by_col)
        by_row *= e
        g_left[:, l] = np.bincount(rows, weights=by_row, minlength=data.m)
        if diag:
            g_diag[l] = np.dot(by_row, by_col)
        by_col *= e
        g_right[:, l] = np.bincount(cols, weights=by_col, minlength=data.n)
    return g_left, g_right, g_diag


def full_grad_manifold(
    p: ProductPoint, data: ProblemData, lam: float, residual: np.ndarray | None = None
) -> ProductTangent:
    """Gradient of the regularized manifold objective, O(nnz * k) (dense route: O(mnk)).

    With residual weights e_t = -2 w_t (a_t - p_t), the ambient U slot is
    (sum over the cells of row i of e_t V_j) * x, the V slot is
    (sum over the cells of column j of e_t U_i) * x, and the x slot is
    sum_t e_t (U_i * V_j) + 2 lam x; the sums are GEMMs or column-wise
    bincounts (`_support_sums`). The result is projected onto the tangent space.
    `residual`, when given, is a_t - p_t at p (see `cost_unregularized`);
    the call overwrites it with e.
    """
    e = _residual_weights(p, data, residual)
    gu, gv, gx = _support_sums(e, p.u, p.v, data, diag=True)
    gu *= p.x
    gv *= p.x
    return project_tangent(p, ProductTangent(gu, gx + 2.0 * lam * p.x, gv))


def full_grad_euclidean(
    f: FactorPair, data: ProblemData, lam: float, residual: np.ndarray | None = None
) -> FactorPair:
    """Gradient of the regularized Euclidean objective, O(nnz * k) (dense route: O(mnk)).

    With residual weights e_t = -2 w_t (a_t - p_t), the X slot is the sum
    over the cells of row i of e_t Y_j, plus 2 lam X, and the Y slot the sum
    over the cells of column j of e_t X_i, plus 2 lam Y; the sums are GEMMs
    or column-wise bincounts (`_support_sums`). `residual`, when given, is
    a_t - p_t at f (see `cost_unregularized`); the call overwrites it with e.
    """
    e = _residual_weights(f, data, residual)
    gx, gy, _ = _support_sums(e, f.x, f.y, data, diag=False)
    gx += 2.0 * lam * f.x
    gy += 2.0 * lam * f.y
    return FactorPair(gx, gy)


def full_grad_pw(
    p: ProductPoint, data: ProblemData, residual: np.ndarray | None = None
) -> ProductTangent:
    """Gradient of the raw (unregularized) cost on the manifold: the lam = 0
    manifold gradient of a fully observed matrix (always the dense route)."""
    require_positive_weights(data)
    return full_grad_manifold(p, data, 0.0, residual)


# ---------------------------------------------------------------------------
# Confinement functions.


def confinement_manifold(p: ProductPoint) -> float:
    """Squared norm of x, which equals the squared Frobenius norm of the iterate.

    Reads only `p.x`, so a `geometry.FactoredPoint` works as well."""
    return float(np.dot(p.x, p.x))


def confinement_euclidean(f: FactorPair | ScaledPair) -> float:
    """||X||_F^2 + ||Y||_F^2; at a ScaledPair a^2 (||Xb||^2 + ||Yb||^2) from
    its running `sq_norm`, O(k) per step."""
    if isinstance(f, ScaledPair):
        return f.scale**2 * f.sq_norm()
    return f.sq_norm()
