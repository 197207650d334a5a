"""Triplet-file ingestion, submatrix sampling, weight construction, and
synthetic instance generation for the benchmark harness.

The on-disk format is a CSV with the exact header ``row,col,value``,
0-based integer indices, and one observation per line.
"""

from __future__ import annotations

import io
import os
import re
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

    A clean file is parsed from disk in one C pass, with no decoded text;
    any other file goes through the per-line scan, which raises at the first
    bad line: ``ParseError`` (with ``.line``) for a bad header, field count
    or number, ``IndexOutOfBounds`` for a negative index or one beyond the
    int64 range, and ``DuplicateEntry`` for a repeated cell, each naming the
    line. A byte that is not valid UTF-8 raises ``ParseError`` naming its
    line. A file without observations raises ``EmptySupport``; an index
    outside a declared shape raises ``IndexOutOfBounds``.
    """
    shift = 1 if one_based else 0
    rows, cols, vals = _parse_table(path, shift) or _scan_lines(read_utf8(path), shift)
    if rows.size == 0:
        raise EmptySupport(f"{path} holds no observations")
    m = m if m is not None else int(rows.max()) + 1
    n = n if n is not None else int(cols.max()) + 1
    if rows.max() >= m or cols.max() >= n:
        raise IndexOutOfBounds(f"index exceeds declared shape ({m}, {n})")
    return TripletMatrix(m=m, n=n, rows=rows, cols=cols, vals=vals)


def read_utf8(path, where: str = "line ") -> str:
    """The file's text; a byte that is not valid UTF-8 raises ParseError
    naming its line after `where`, as str.splitlines counts lines."""
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"byte 0x{raw[exc.start]:02x} is not valid UTF-8", line, where) from None


def _parse_table(path, shift: int):
    """Rows, cols and values of a clean file, parsed from disk by np.loadtxt
    in C, or None when the per-line scan has to decide. A clean file is a
    regular file not named like one DataSource decompresses, whose first line
    strips to the header, all ASCII and free of the bytes at which
    str.splitlines breaks a line or that np.loadtxt strips like a space
    (U+001F): np.loadtxt then sees the scan's lines, and for every field it
    accepts, int() and float() return the same number. When np.loadtxt refuses
    the file, it is read once more, and a file with whitespace-only lines is
    parsed again with their spaces and tabs dropped, since the scan skips them.
    The scan decides on a file changed between the reads, a parse failure, an
    empty, negative, non-finite or duplicate entry, and lines np.loadtxt rejects."""
    path = os.path.abspath(path)  # so that DataSource never fetches it as a URL
    try:
        stamp = os.stat(path)
        raw = Path(path).read_bytes() if os.path.isfile(path) else b""  # a pipe reads once
    except OSError:
        return None
    if (
        path.lower().endswith((".gz", ".bz2", ".xz", ".lzma"))
        or re.match(rb"[^\r\n]*", raw).group().strip() != HEADER.encode()
        or not raw.isascii()
        or any(bytes([code]) in raw for code in b"\x0b\x0c\x1c\x1d\x1e\x1f")
    ):
        return None
    del raw
    table = _load_table(path)
    try:
        if table is None:  # np.loadtxt refuses a whitespace-only line, which the scan skips
            text, blanks = Path(path).read_bytes(), 0
            for end in (b"\n", b"\r"):  # a literal first byte keeps each search at C speed
                text, count = re.subn(end + rb"[ \t]+(?![^\r\n])", end, text)
                blanks += count
            table = _load_table(io.TextIOWrapper(io.BytesIO(text), "ascii")) if blanks else None
            del text
        restat = os.stat(path)
    except OSError:
        return None
    if (
        table is None
        or (restat.st_size, restat.st_mtime_ns) != (stamp.st_size, stamp.st_mtime_ns)
        or table.size == 0
        or min(table["row"].min(), table["col"].min()) < shift
        or not np.isfinite(table["value"]).all()
    ):
        return None
    rows, cols, vals = table["row"] - shift, table["col"] - shift, table["value"].copy()
    del table
    width = int(cols.max()) + 1
    if int(rows.max()) >= _INDEX_MAX // width:
        return None  # the cell codes below would overflow int64
    cells = rows * width + cols
    # Row-major files, as write_triplets and synth write them, skip the sort.
    if not (cells[1:] > cells[:-1]).all() and not np.diff(np.sort(cells)).all():
        return None
    return rows, cols, vals


def _load_table(source):
    """np.loadtxt's table of `source` (a path or a text stream), or None when it
    refuses it."""
    try:
        with warnings.catch_warnings():
            # Some numpy versions (1.23 among them) only warn on a float index (3.0).
            warnings.simplefilter("error")
            return np.loadtxt(
                source, dtype=_TABLE, delimiter=",", comments=None, skiprows=1, ndmin=1
            )
    except (ValueError, Warning, OSError):
        return None


def _scan_lines(text: str, shift: int):
    """Rows, cols and values of the text, checked line by line from the header
    on; raises at the first bad line. The reference for the one-pass parse."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        bom = " (a UTF-8 byte-order mark precedes it)" if text.startswith("\ufeff") else ""
        raise ParseError(f"expected header {HEADER!r}{bom}", line=1)
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
    if seed < 0:
        raise InvalidDimensions(f"need a seed >= 0, got {seed}")
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
    """Equal weight 1/nnz on every observed cell (their sum is 1 within a few
    ulps), so the sampler takes its equal-weight draw."""
    if tm.nnz == 0:
        raise EmptySupport("no observations to weight")
    return np.full(tm.nnz, 1.0 / tm.nnz)


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
    if not (
        m >= 1 and n >= 1 and rank >= 1 and 0 < observe_prob <= 1 and np.isfinite(noise)
        and seed >= 0
    ):
        raise InvalidDimensions(
            "need rows, cols and rank >= 1, observe_prob in (0, 1], a finite noise and a "
            f"seed >= 0, got {m}x{n}, rank {rank}, observe_prob {observe_prob}, noise {noise}, "
            f"seed {seed}"
        )
    rng = np.random.default_rng(seed)
    try:
        base = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        with np.errstate(over="ignore"):
            full = base / np.sqrt(rank) + noise * rng.standard_normal((m, n))
        mask = rng.random((m, n)) < observe_prob
    except (MemoryError, ValueError, OverflowError) as exc:
        raise InvalidDimensions(f"cannot form the dense {m}x{n} synth grid: {exc}") from exc
    if not mask.any():
        mask[0, 0] = True
    rows, cols = np.nonzero(mask)
    vals = full[rows, cols]
    if not np.isfinite(vals).all():
        raise InvalidDimensions(f"--noise {noise!r} makes generated values overflow")
    return TripletMatrix(
        m=m,
        n=n,
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
        vals=vals,
    )
