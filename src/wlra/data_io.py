"""Triplet-file ingestion, submatrix sampling, weight construction, and
synthetic instance generation for the benchmark harness.

The on-disk format is a CSV with the exact header ``row,col,value``,
0-based integer indices, and one observation per line.
"""

from __future__ import annotations

import warnings
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
_TABLE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
_INDEX_MAX = int(np.iinfo(np.int64).max)


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
    """Parse a triplet CSV into a TripletMatrix.

    The file starts with the header ``row,col,value``; every further line
    holds one observation ``i,j,value``: two integer indices, 0-based (or
    1-based with ``one_based``), and a finite float. Blank lines are skipped;
    a cell may appear only once. Dimensions are inferred as max index + 1
    unless given, and given ones must cover every index.

    A clean file is parsed in one ``np.loadtxt`` pass and checked with
    vectorized passes. Any other file goes through the per-line scan, which
    raises at the first bad line: ``ParseError`` (with ``.line``) for a bad
    header, field count or number, ``IndexOutOfBounds`` for a negative index
    or one beyond the int64 range, and ``DuplicateEntry`` for a repeated
    cell, each naming the line. A file without observations raises
    ``EmptySupport``; an index outside a declared shape raises
    ``IndexOutOfBounds``.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(f"expected header {HEADER!r}", line=1)
    shift = 1 if one_based else 0
    parsed = _parse_table(text, lines, shift)
    rows, cols, vals = parsed if parsed is not None else _scan_lines(lines, shift)
    if rows.size == 0:
        raise EmptySupport(f"{path} holds no observations")
    m = m if m is not None else int(rows.max()) + 1
    n = n if n is not None else int(cols.max()) + 1
    if rows.max() >= m or cols.max() >= n:
        raise IndexOutOfBounds(
            f"index exceeds declared shape ({m}, {n})"
        )
    return TripletMatrix(m=m, n=n, rows=rows, cols=cols, vals=vals)


def _parse_table(text: str, lines: list[str], shift: int):
    """Rows, cols and values of a clean file in one C pass, or None when
    the per-line scan has to decide: on a parse failure, an empty, negative,
    non-finite or duplicate entry, and on the valid lines np.loadtxt rejects
    (whitespace-only lines, ``1_0``, non-ASCII digits).

    The parser sees the same lines as the scan, and for every field it
    accepts, int() and float() return the same number."""
    if "\x1f" in text:
        # np.loadtxt strips U+001F around a field like a space; int() and
        # float() reject it.
        return None
    try:
        with warnings.catch_warnings():
            # Some numpy versions (1.23 among them) only warn on an index
            # written as a float, such as 3.0.
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype=_TABLE, delimiter=",", comments=None, skiprows=1, ndmin=1
            )
    except (ValueError, Warning):
        return None
    if (
        table.size == 0
        or table["row"].min() < shift
        or table["col"].min() < shift
        or not np.isfinite(table["value"]).all()
    ):
        return None
    rows = table["row"] - shift
    cols = table["col"] - shift
    width = int(cols.max()) + 1
    if int(rows.max()) >= np.iinfo(np.int64).max // width:
        return None  # the cell codes below would overflow int64
    cells = np.sort(rows * width + cols)
    if (cells[1:] == cells[:-1]).any():
        return None
    return rows, cols, np.ascontiguousarray(table["value"])


def _scan_lines(lines: list[str], shift: int):
    """Rows, cols and values, checked line by line; raises at the first
    bad line. The reference the one-pass parse is tested against."""
    rows, cols, vals = [], [], []
    seen: set[tuple[int, int]] = set()
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
        if max(i, j) > _INDEX_MAX:
            raise IndexOutOfBounds(f"index beyond the int64 range at line {lineno}")
        if (i, j) in seen:
            raise DuplicateEntry(f"duplicate entry ({i}, {j}) at line {lineno}")
        seen.add((i, j))
        rows.append(i)
        cols.append(j)
        vals.append(v)
    return (
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=np.float64),
    )


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
    # Written so that NaN fails the check.
    if not (m >= 1 and n >= 1 and rank >= 1 and 0 < observe_prob <= 1 and np.isfinite(noise)):
        raise InvalidDimensions(
            "need rows, cols and rank >= 1, observe_prob in (0, 1] and a finite noise, got "
            f"{m}x{n}, rank {rank}, observe_prob {observe_prob}, noise {noise}"
        )
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
