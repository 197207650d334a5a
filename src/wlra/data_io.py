"""Triplet-file ingestion, submatrix sampling, weight construction, and
synthetic instance generation for the benchmark harness.

The on-disk format is a CSV with the exact header ``row,col,value``,
0-based integer indices, and one observation per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptySupport,
    IndexOutOfBounds,
    InvalidDimensions,
    ParseError,
)
from .model import ProblemData

HEADER = "row,col,value"


@dataclass(frozen=True)
class TripletMatrix:
    """Sparse observations of an m-by-n matrix."""

    m: int
    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        return self.rows.size

    @property
    def density(self) -> float:
        return self.nnz / (self.m * self.n)


def load_triplets(
    path, one_based: bool = False, m: int | None = None, n: int | None = None
) -> TripletMatrix:
    """Parse a triplet CSV; dimensions are inferred as max index + 1 unless given."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"expected header {HEADER!r}", line=1)
    rows, cols, vals = [], [], []
    seen: set[tuple[int, int]] = set()
    shift = 1 if one_based else 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != 3:
            raise ParseError(f"expected 3 fields, got {len(parts)}", line=lineno)
        try:
            i = int(parts[0]) - shift
            j = int(parts[1]) - shift
            v = float(parts[2])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        if not np.isfinite(v):
            raise ParseError(f"non-finite value {parts[2]!r}", line=lineno)
        if i < 0 or j < 0:
            raise IndexOutOfBounds(f"negative index at line {lineno}")
        if (i, j) in seen:
            raise DuplicateEntry(f"duplicate entry ({i}, {j}) at line {lineno}")
        seen.add((i, j))
        rows.append(i)
        cols.append(j)
        vals.append(v)
    if not rows:
        raise EmptySupport(f"{path} holds no observations")
    rows_a = np.array(rows, dtype=np.int64)
    cols_a = np.array(cols, dtype=np.int64)
    m = m if m is not None else int(rows_a.max()) + 1
    n = n if n is not None else int(cols_a.max()) + 1
    if rows_a.max() >= m or cols_a.max() >= n:
        raise IndexOutOfBounds(
            f"index exceeds declared shape ({m}, {n})"
        )
    return TripletMatrix(m=m, n=n, rows=rows_a, cols=cols_a, vals=np.array(vals))


def write_triplets(tm: TripletMatrix, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(HEADER + "\n")
        for i, j, v in zip(tm.rows, tm.cols, tm.vals):
            fh.write(f"{int(i)},{int(j)},{float(v)!r}\n")


def sample_submatrix(tm: TripletMatrix, rows: int, cols: int, seed: int) -> TripletMatrix:
    """Restrict to a uniformly sampled row/column cross-product, re-indexed densely."""
    if not 1 <= rows <= tm.m or not 1 <= cols <= tm.n:
        raise InvalidDimensions(
            f"cannot sample {rows}x{cols} from a {tm.m}x{tm.n} matrix"
        )
    rng = np.random.default_rng(seed)
    keep_rows = np.sort(rng.choice(tm.m, size=rows, replace=False))
    keep_cols = np.sort(rng.choice(tm.n, size=cols, replace=False))
    row_map = np.full(tm.m, -1, dtype=np.int64)
    col_map = np.full(tm.n, -1, dtype=np.int64)
    row_map[keep_rows] = np.arange(rows)
    col_map[keep_cols] = np.arange(cols)
    mask = (row_map[tm.rows] >= 0) & (col_map[tm.cols] >= 0)
    return TripletMatrix(
        m=rows,
        n=cols,
        rows=row_map[tm.rows[mask]],
        cols=col_map[tm.cols[mask]],
        vals=tm.vals[mask].copy(),
    )


def binary_weights(tm: TripletMatrix) -> np.ndarray:
    """Equal weight 1/nnz on every observed cell; the last weight absorbs
    rounding so the total is exactly 1."""
    if tm.nnz == 0:
        raise EmptySupport("no observations to weight")
    w = np.full(tm.nnz, 1.0 / tm.nnz)
    w[-1] = 1.0 - w[:-1].sum()
    return w


def normalize_weights(raw: np.ndarray) -> np.ndarray:
    """Scale non-negative weights to sum to one.

    The plain quotient sums to one within a few ulps, far inside the
    ProblemData check, and keeps zero weights exactly zero.
    """
    raw = np.asarray(raw, dtype=float)
    total = raw.sum()
    if total <= 0:
        raise EmptySupport("weights sum to zero")
    return raw / total


def problem_from_triplets(
    tm: TripletMatrix, k: int, weights: np.ndarray | None = None
) -> ProblemData:
    """Bundle triplets and weights (binary by default) into solver input."""
    w = binary_weights(tm) if weights is None else normalize_weights(weights)
    return ProblemData(
        m=tm.m, n=tm.n, k=k, rows=tm.rows, cols=tm.cols, a_vals=tm.vals, w_vals=w
    )


def synth_lowrank(
    m: int,
    n: int,
    rank: int,
    observe_prob: float,
    noise: float,
    seed: int,
) -> TripletMatrix:
    """Low-rank ground truth plus Gaussian noise, observed through a
    Bernoulli mask. Entries are scaled to unit variance regardless of rank."""
    if not 0 < observe_prob <= 1 or rank < 1:
        raise InvalidDimensions("need rank >= 1 and observe_prob in (0, 1]")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    full = base / np.sqrt(rank) + noise * rng.standard_normal((m, n))
    mask = rng.random((m, n)) < observe_prob
    if not mask.any():
        mask[0, 0] = True
    rows, cols = np.nonzero(mask)
    return TripletMatrix(
        m=m,
        n=n,
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
        vals=full[rows, cols].copy(),
    )
