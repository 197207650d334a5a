"""Problem data, cost functions, sampling, and gradients.

The data matrix is stored as triplets over its observed support; costs and
gradients sum over observed entries only (by GEMMs over the row blocks of
`ProblemData.grid_blocks` when the support fills the grid, one block read in
place in grid order; see DENSE_FILL). Three parametrizations are
supported: the product manifold (U, x, V), the Euclidean factor pair
(X, Y), and the positive-weights variant of the manifold problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# Grid cells per block of whole rows when the dense route fills the grid: a
# block stays in cache between its GEMM and its reads, and no pass makes an
# m-by-n temporary.
GRID_BLOCK = 32768

# Support passes take the dense route when m * n <= DENSE_FILL * nnz. At 4000x400, k = 10, its
# gradient was 3.7x / 2.5x / 1.9x as fast as gather with 1 in 16 / 24 / 32 cells observed.
DENSE_FILL = 16


@dataclass(frozen=True)
class ProblemData:
    """Observed entries of an m-by-n matrix with probability weights.

    rows/cols/a_vals hold the observed triplets; w_vals are non-negative
    weights on the same support summing to one. k is the rank cap. alpha,
    set from a_vals, is the largest squared observed value.
    """

    m: int
    n: int
    k: int
    rows: np.ndarray
    cols: np.ndarray
    a_vals: np.ndarray
    w_vals: np.ndarray
    alpha: float = field(init=False, repr=False, compare=False)

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
        lo, hi = float(a_vals.min()), float(a_vals.max())
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ShapeMismatch("observed values must be finite")
        big = hi if hi >= -lo else lo
        alpha = big * big  # max a^2, as squaring is monotone in |a|
        if alpha == math.inf:  # alpha enters every step-size bound
            raise ShapeMismatch(f"observed value {big!r} overflows when squared")
        object.__setattr__(self, "alpha", alpha)
        # Writable views for take/bincount, which copy a read-only index array;
        # never written. A read-only input (another ProblemData's, say) is copied once.
        rows, cols = (i if i.flags.writeable else i.copy() for i in (rows, cols))
        object.__setattr__(self, "_rows", rows.view())
        object.__setattr__(self, "_cols", cols.view())
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
    def grid_blocks(self) -> tuple | None:
        """The support passes' block plan, built on the first pass: None when
        m * n > DENSE_FILL * nnz (the gather route), else (r0, r1, at, cells) per
        block, rows r0:r1 holding the triplets `at` (a slice, or indices of the
        stable row order, in which repeated cells keep theirs) at `cells`,
        numbered within the block (nnz int64 in all). In grid order (every cell
        once, row-major: rows * n + cols is 0..mn-1) the plan is one block
        (0, m, slice(0, nnz), None), read and written in place. A block has two
        rows or more when m does: numpy makes a one-row product by GEMV, whose
        round-off differs from the GEMM of a taller block."""
        rows, cols, n = self._rows, self._cols, self.n
        if self.m * n > DENSE_FILL * self.nnz:
            return None
        if self.nnz == self.m * n and np.array_equal(rows * n + cols, np.arange(self.nnz)):
            return ((0, self.m, slice(0, self.nnz), None),)
        order = None if np.all(rows[1:] >= rows[:-1]) else np.argsort(rows, kind="stable")
        bounds = [*range(0, max(self.m - 1, 1), max(2, GRID_BLOCK // n)), self.m]
        ends = np.searchsorted(rows if order is None else rows[order], bounds).tolist()
        plan = []  # cells left writable: take and bincount copy a read-only index array
        for r0, r1, c0, c1 in zip(bounds, bounds[1:], ends, ends[1:]):
            at = slice(c0, c1) if order is None else order[c0:c1]
            plan.append((r0, r1, at, (rows[at] - r0) * n + cols[at]))
        return tuple(plan)

    @cached_property
    def sampler(self) -> "CdfSampler":
        """Draws triplet indices: over all triplets if no weight is 0, else over `support`."""
        if self.min_weight > 0:
            return CdfSampler(self.w_vals)
        return CdfSampler(self.w_vals[self.support], self.support)


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


def check_iterate_shape(source, data: ProblemData) -> tuple:
    """`source.factors()`; refuses an iterate whose U (X) row count is not m,
    or whose V (Y) row count is not n."""
    factors = source.factors()
    if (len(factors[0]), len(factors[2])) != (data.m, data.n):
        raise ShapeMismatch(
            f"iterate factors have {len(factors[0])} and {len(factors[2])} rows, "
            f"data {data.m}x{data.n}"
        )
    return factors


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

    def factors(self) -> tuple:
        return self.x, None, self.y

    def add_scaled(self, d: "FactorPair", c: float) -> "FactorPair":
        return FactorPair(self.x + c * d.x, self.y + c * d.y)

    def scaled(self, c: float) -> "FactorPair":
        return FactorPair(c * self.x, c * self.y)

    def sq_norm(self) -> float:
        return float(np.sum(self.x**2) + np.sum(self.y**2))


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
    materializes the FactorPair (a Xb, a Yb), cached until the next step (the
    first is the pair the state was built from); trace costs read `factors()`.

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

    def factors(self) -> tuple:
        """(Xb, None, a^2 Yb): X Y^T in O(n k)."""
        return self.x_base, None, self.scale**2 * self.y_base

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
        x_i, y_j = self.x_base[i], self.y_base[j]  # views, moved in place
        if self._sq_left:  # ||r + d||^2 - ||r||^2 = d . (2 r + d) for each moved row r
            self._sq_left -= 1
            self._sq_norm += float(dx.dot(2.0 * x_i + dx) + dy.dot(2.0 * y_j + dy))
        x_i += dx
        y_j += dy
        self._pair = None


class CdfSampler:
    """Sampling of an index with fixed probabilities by inverse CDF.

    A draw inverts the cumulative sums by binary search (Devroye 1986,
    §III.2): index i when r * total lands in [cdf[i-1], cdf[i]). `head` omits
    the last sum, so no draw reaches n, even where r * total rounds to total.
    Equal probabilities draw one `integers(0, n)` value and search nothing.
    `draws(rng, size)` makes `size` draws by one `integers(0, n, size)` call,
    or by one search of one `random(size)` call: numpy returns the values of
    `size` scalar calls and leaves the generator where they would. `index`,
    when given, maps each drawn position to the index returned.
    """

    def __init__(self, probs: np.ndarray, index: np.ndarray | None = None):
        probs = np.asarray(probs, dtype=float)
        lo = probs.min() if probs.size else 0.0
        if lo <= 0:
            raise EmptySupport("sampler needs at least one positive probability")
        self.n, self.head, self.total, self.index = probs.size, None, 0.0, index
        if lo != probs.max():
            cdf = np.cumsum(probs)
            self.head, self.total = cdf[:-1], float(cdf[-1])

    def draw(self, rng: np.random.Generator) -> int:
        if self.head is None:
            i = int(rng.integers(0, self.n))
        else:
            i = int(self.head.searchsorted(rng.random() * self.total, "right"))
        return i if self.index is None else int(self.index[i])

    def draws(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.head is None:
            drawn = rng.integers(0, self.n, size)
        else:
            drawn = self.head.searchsorted(rng.random(size) * self.total, "right")
        return drawn if self.index is None else self.index[drawn]


def sample_index(data: ProblemData, rng: np.random.Generator, size=None) -> int | np.ndarray:
    """Draw an observed triplet index t (cell rows[t], cols[t]) with probability w_t;
    with `size`, an array of the `size` indices that as many calls draw in turn."""
    return data.sampler.draw(rng) if size is None else data.sampler.draws(rng, size)


# ---------------------------------------------------------------------------
# Predicted entries restricted to the observed support.


# Passes price `factors()` (L, s, R): L diag(s) R^T, or L R^T for s None. `take` is 2x x[rows].


def _entries(left, scale, right, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Gather route: the predictions at the cells (rows, cols), s inside the einsum."""
    left, right = left.take(rows, axis=0), right.take(cols, axis=0)
    if scale is None:
        return np.einsum("tk,tk->t", left, right)
    return np.einsum("tk,k,tk->t", left, scale, right)


def _grid_entries(left, scale, right, data: ProblemData, out=None) -> np.ndarray:
    """Dense route: the predictions at the observed cells (into `out`, when
    given). Each row block of the plan is one GEMM of L diag(s) and one
    C-contiguous R^T, formed once per pass, read at the block's cells; a block
    with no cells (grid order) is written in place as its triplets' slice."""
    left = left if scale is None else left * scale
    right_t = np.ascontiguousarray(right.T)
    out = np.empty(data.nnz) if out is None else out
    # The caller checked the shape, so the cells are in range.
    for r0, r1, at, cells in data.grid_blocks:
        if cells is None:
            np.matmul(left[r0:r1], right_t, out=out[at].reshape(r1 - r0, data.n))
        elif isinstance(at, slice):
            (left[r0:r1] @ right_t).take(cells, out=out[at], mode="clip")
        else:
            out[at] = (left[r0:r1] @ right_t).take(cells, mode="clip")
    return out


# ---------------------------------------------------------------------------
# Costs.


def cost_unregularized(source, data: ProblemData, residual: np.ndarray | None = None) -> float:
    """Weighted squared error over the observed support.

    Priced from `source.factors()`, an SGD state's too; the dense route makes
    GEMMs, else the cells go in SUPPORT_BLOCK blocks. `residual`, when given, is
    an array of nnz floats that receives a_t - p_t, which the full gradients take
    instead of forming the predictions again. A wrong-shaped iterate raises ShapeMismatch.
    """
    left, scale, right = check_iterate_shape(source, data)
    if data.grid_blocks is not None:
        res = _grid_entries(left, scale, right, data, residual)
        np.subtract(data.a_vals, res, out=res)
        return float(np.dot(data.w_vals, np.square(res, out=res if residual is None else None)))
    total = 0.0
    for start in range(0, data.nnz, SUPPORT_BLOCK):
        cells = slice(start, start + SUPPORT_BLOCK)
        pred = _entries(left, scale, right, data._rows[cells], data._cols[cells])
        out = None if residual is None else residual[cells]
        res = np.subtract(data.a_vals[cells], pred, out=out)
        total += float(np.dot(data.w_vals[cells], res**2))
    return total


# ---------------------------------------------------------------------------
# Stochastic gradients (single sampled entry).


def _sample_gradient(p: FactoredPoint, rows: np.ndarray, r: float, lam: float) -> tuple:
    """Gradient whose only data term sits at the sampled cell (i, j), with
    residual r, as (rows, ambient rows, x slot).

    With coefficient c = -2 * r and rows = (U_i, V_j), the ambient U and V
    gradients have the single rows (c x) * (V_j, U_i), and the x gradient
    is c * (U_i * V_j) + 2 * lam * x.
    """
    coeff = -2.0 * r
    x = p.x
    g = (coeff * x) * rows[::-1]
    gx = coeff * (rows[0] * rows[1]) + 2.0 * lam * x
    return rows, g, gx


def stoch_grad_manifold(p: FactoredPoint, i: int, j: int, a: float, lam: float) -> tuple:
    """Gradient of the per-sample regularized objective at the cell (i, j) of value a.

    In O(k) after one read of U row i and V row j: the tuple (those rows as
    a (2, k) array, the (2, k) array of the non-zero ambient U and V gradient
    rows, the x gradient), which `FactoredPoint.step` projects and retracts
    without reading the rows again.
    """
    rows = p.rows(i, j)
    r = a - float((rows[0] * p.x).dot(rows[1]))
    return _sample_gradient(p, rows, r, lam)


def stoch_grad_euclidean(f: ScaledPair, i: int, j: int, a: float) -> tuple:
    """Data rows (-2 r Y_j, -2 r X_i) of the per-sample Euclidean gradient at
    the cell (i, j) of value a, in O(k); `ScaledPair.step` applies the
    penalty term 2 lam (X, Y) to the scale."""
    x_i, y_j = f.scale * f.x_base[i], f.scale * f.y_base[j]
    coeff = -2.0 * (a - float(x_i.dot(y_j)))
    return coeff * y_j, coeff * x_i


def stoch_grad_pw(p: FactoredPoint, i: int, j: int, a: float, lam: float, inv_w: float) -> tuple:
    """Positive-weights per-sample gradient at the cell (i, j) of value a and
    weight 1 / inv_w: the residual uses a tilted prediction. Returns what
    `stoch_grad_manifold` returns. Needs 0 < lam < w0, which `sgd_pw` checks."""
    rows = p.rows(i, j)
    pv = float((rows[0] * p.x).dot(rows[1]))
    r = a - (1.0 - lam * inv_w) * pv
    return _sample_gradient(p, rows, r, lam)


# ---------------------------------------------------------------------------
# Full gradients (sums over the observed support).


def _residual_weights(source, data: ProblemData, residual: np.ndarray | None) -> np.ndarray:
    """e_t = -2 w_t (a_t - p_t) on every observed cell, written over
    `residual` (a_t - p_t at `source`) when it is given, else from a cost pass."""
    check_iterate_shape(source, data)
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
    left * (E right), E the m-by-n grid of e, one row block of the plan at a
    time: a bincount of the block's cells (duplicate cells add up), or, for a
    block with no cells (grid order), its slice of e itself; the gather route
    one rank column at a time, each gathered by a 1-D `take`."""
    k = left.shape[1]
    if data.grid_blocks is not None:
        g_left = np.empty((data.m, k)) if len(data.grid_blocks) > 1 else None
        for r0, r1, at, cells in data.grid_blocks:
            block = e[at] if cells is None else np.bincount(cells, e[at], (r1 - r0) * data.n)
            block = block.reshape(r1 - r0, data.n)
            if g_left is None:  # the only block (grid order, say): E right outright
                g_left = block @ right
            else:
                np.matmul(block, right, out=g_left[r0:r1])
            if r0:
                g_right += block.T @ left[r0:r1]
            else:  # the first block starts E^T left, with no zeroed array to add to
                g_right = block.T @ left[r0:r1]
        return g_left, g_right, np.einsum("ik,ik->k", left, g_left) if diag else None
    rows, cols = data._rows, data._cols
    g_left = np.empty((data.m, k))
    g_right = np.empty((data.n, k))
    g_diag = np.empty(k) if diag else None
    left_t, right_t = left.T.copy(), right.T.copy()
    by_row, by_col = np.empty(data.nnz), np.empty(data.nnz)
    for l in range(k):  # the indices were checked, so clip spares `take` a buffered out
        np.take(right_t[l], cols, out=by_row, mode="clip")
        np.take(left_t[l], rows, out=by_col, mode="clip")
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
    return float(p.x.dot(p.x))


def confinement_euclidean(f: FactorPair | ScaledPair) -> float:
    """||X||_F^2 + ||Y||_F^2; at a ScaledPair a^2 (||Xb||^2 + ||Yb||^2) from
    its running `sq_norm`, O(k) per step."""
    if isinstance(f, ScaledPair):
        return f.scale**2 * f.sq_norm()
    return f.sq_norm()
