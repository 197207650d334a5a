import math
import os
import re
import threading
import tracemalloc
import urllib.request

import numpy as np
import pytest

from wlra import data_io
from wlra.data_io import (
    TripletMatrix,
    binary_weights,
    load_triplets,
    normalize_weights,
    problem_from_triplets,
    sample_submatrix,
    synth_lowrank,
    write_triplets,
)
from wlra.errors import (
    DuplicateEntry,
    EmptySupport,
    IndexOutOfBounds,
    InvalidDimensions,
    NonPositiveWeight,
    ParseError,
)


class TestLoadTriplets:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("row,col,value\n0,0,5\n1,2,3\n")
        tm = load_triplets(path)
        assert (tm.m, tm.n, tm.nnz) == (2, 3, 2)
        assert tm.vals.tolist() == [5.0, 3.0]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,0,5\n")
        with pytest.raises(ParseError) as err:
            load_triplets(path)
        assert err.value.line == 1

    def test_duplicate_entry(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("row,col,value\n0,0,5\n0,0,1\n")
        with pytest.raises(DuplicateEntry):
            load_triplets(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("row,col,value\n0,0,5\n1,1,abc\n")
        with pytest.raises(ParseError) as err:
            load_triplets(path)
        assert err.value.line == 3

    def test_one_based_shift(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("row,col,value\n1,1,5\n2,3,1\n")
        tm = load_triplets(path, one_based=True)
        assert (tm.m, tm.n) == (2, 3)
        assert tm.rows.tolist() == [0, 1]

    def test_declared_bounds_enforced(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("row,col,value\n5,0,1\n")
        with pytest.raises(IndexOutOfBounds):
            load_triplets(path, m=3, n=3)

    def test_round_trip(self, tmp_path):
        tm = synth_lowrank(8, 5, 2, 0.6, 0.1, seed=0)
        path = tmp_path / "rt.csv"
        write_triplets(tm, path)
        back = load_triplets(path, m=tm.m, n=tm.n)
        assert back.rows.tolist() == tm.rows.tolist()
        assert back.cols.tolist() == tm.cols.tolist()
        assert back.vals.tolist() == tm.vals.tolist()


def write_file(tmp_path, text):
    """`text` written as UTF-8 with its line ends as given, or bytes as they are."""
    path = tmp_path / "m.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
        return path
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def scanned(path, **kw):
    """load_triplets with the one-pass parse turned off: the per-line scan
    decides, as it did for every file before the parse existed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_parse_table", lambda *args: None)
        return load_triplets(path, **kw)


def clean_file(tmp_path):
    """A clean 20k-line triplet file, as write_triplets writes one."""
    tm = synth_lowrank(200, 200, 3, 0.55, 0.1, seed=4)
    assert tm.nnz >= 20000
    path = tmp_path / "clean.csv"
    write_triplets(tm, path)
    return tm, path


def assert_same_triplets(got, want):
    assert (got.m, got.n) == (want.m, want.n)
    for a, b in ((got.rows, want.rows), (got.cols, want.cols), (got.vals, want.vals)):
        assert a.dtype == b.dtype and a.flags.c_contiguous
        assert np.array_equal(a, b)


# id, whole file, load_triplets keywords, expected (m, n, rows, cols, vals),
# and whether the per-line scan reads the file (the one-pass parse rejects it).
ACCEPTED = [
    ("blank_line", "row,col,value\n0,0,5\n\n1,2,3\n", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    # np.loadtxt refuses a whitespace-only line; the file is parsed again
    # without the line's spaces and tabs, the line break kept.
    ("whitespace_only_line", "row,col,value\n0,0,5\n \t \n1,2,3\n", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    ("whitespace_only_lines_mid_and_trailing", "row,col,value\n0,0,5\n  \n1,2,3\n\t\n \n", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    ("whitespace_only_last_line_unended", "row,col,value\n0,0,5\n1,2,3\n \t", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    ("whitespace_only_lines_crlf", "row,col,value\r\n0,0,5\r\n \r\n1,2,3\r\n \r\n", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    ("whitespace_only_lines_cr", "row,col,value\r0,0,5\r\t\r1,2,3\r  \r", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    ("padded_beside_whitespace_only_line", "row,col,value\n 3 ,\t0, 1.5 \n \n", {},
     (4, 1, [3], [0], [1.5]), False),
    # Any other refusal still goes to the scan.
    ("whitespace_only_line_and_underscore", "row,col,value\n0,0,5\n \n1_0,2,3\n", {},
     (11, 3, [0, 10], [0, 2], [5.0, 3.0]), True),
    ("crlf", "row,col,value\r\n0,0,5\r\n1,2,3\r\n", {},
     (2, 3, [0, 1], [0, 2], [5.0, 3.0]), False),
    ("plus_sign", "row,col,value\n+3,0,+1.5\n0,+1,-2\n", {},
     (4, 2, [3, 0], [0, 1], [1.5, -2.0]), False),
    ("padded", "row,col,value\n 3 ,\t0, 1.5 \n", {}, (4, 1, [3], [0], [1.5]), False),
    ("underscore", "row,col,value\n1_0,0,1\n0,0,2_5\n", {},
     (11, 1, [10, 0], [0, 0], [1.0, 25.0]), True),
    ("non_ascii_digits", "row,col,value\n\u0663,0,\u0661.5\n", {},
     (4, 1, [3], [0], [1.5]), True),
    ("one_based", "row,col,value\n1,1,5\n2,3,1\n", {"one_based": True},
     (2, 3, [0, 1], [0, 2], [5.0, 1.0]), False),
    ("declared_shape", "row,col,value\n0,0,5\n1,2,3\n", {"m": 4, "n": 5},
     (4, 5, [0, 1], [0, 2], [5.0, 3.0]), False),
    # 2^63 overflows the one-pass parse; one-based it is the largest int64.
    ("int64_max_one_based", "row,col,value\n9223372036854775808,1,5\n", {"one_based": True},
     (2**63, 1, [2**63 - 1], [0], [5.0]), True),
]

# id, whole file, load_triplets keywords, error class, line (None when the
# error has no line attribute), message.
REJECTED = [
    ("bad_header", "row,col,val\n0,0,5\n", {}, ParseError, 1,
     "line 1: expected header 'row,col,value'"),
    ("empty_file", "", {}, ParseError, 1, "line 1: expected header 'row,col,value'"),
    ("two_fields", "row,col,value\n0,0,5\n1,2\n", {}, ParseError, 3,
     "line 3: expected 3 fields, got 2"),
    ("four_fields", "row,col,value\n0,0,5\n1,2,3,4\n", {}, ParseError, 3,
     "line 3: expected 3 fields, got 4"),
    ("float_index", "row,col,value\n0,0,5\n3.0,1,1\n", {}, ParseError, 3,
     "line 3: invalid literal for int() with base 10: '3.0'"),
    ("non_numeric_value", "row,col,value\n0,0,5\n1,1,abc\n", {}, ParseError, 3,
     "line 3: could not convert string to float: 'abc'"),
    ("nan", "row,col,value\n0,0,nan\n1,1,1\n", {}, ParseError, 2,
     "line 2: non-finite value 'nan'"),
    ("inf", "row,col,value\n0,0,5\n1,1,-inf\n", {}, ParseError, 3,
     "line 3: non-finite value '-inf'"),
    ("negative_index", "row,col,value\n0,0,5\n1,-2,3\n", {}, IndexOutOfBounds, None,
     "negative index at line 3"),
    ("negative_after_one_based", "row,col,value\n1,1,5\n0,2,3\n", {"one_based": True},
     IndexOutOfBounds, None, "negative index at line 3"),
    ("duplicate", "row,col,value\n0,0,5\n1,1,2\n0,0,1\n", {}, DuplicateEntry, None,
     "duplicate entry (0, 0) at line 4"),
    ("row_beyond_int64", "row,col,value\n0,0,5\n9223372036854775808,0,1\n", {},
     IndexOutOfBounds, None, "index beyond the int64 range at line 3"),
    ("col_beyond_int64", "row,col,value\n0,0,5\n1,99999999999999999999,1\n", {},
     IndexOutOfBounds, None, "index beyond the int64 range at line 3"),
    ("beyond_int64_after_one_based", "row,col,value\n1,1,5\n1,9223372036854775809,1\n",
     {"one_based": True}, IndexOutOfBounds, None, "index beyond the int64 range at line 3"),
    ("beyond_declared_shape", "row,col,value\n0,0,5\n1,3,3\n", {"m": 2, "n": 3},
     IndexOutOfBounds, None, "index exceeds declared shape (2, 3)"),
    ("header_only", "row,col,value\n", {}, EmptySupport, None, "{path} holds no observations"),
    ("bom", "\ufeffrow,col,value\n0,0,5\n", {}, ParseError, 1,
     "line 1: expected header 'row,col,value' (a UTF-8 byte-order mark precedes it)"),
    # A file that is not UTF-8 names the line of its first bad byte, as
    # str.splitlines counts lines (a lone CR ends one).
    ("latin1_value", b"row,col,value\n0,0,5\n1,1,caf\xe9\n", {}, ParseError, 3,
     "line 3: byte 0xe9 is not valid UTF-8"),
    ("latin1_header", b"row,col,valu\xe9\n0,0,5\n", {}, ParseError, 1,
     "line 1: byte 0xe9 is not valid UTF-8"),
    ("truncated_sequence_after_cr", b"row,col,value\r\n0,0,5\r1,1,\xc3", {}, ParseError, 3,
     "line 3: byte 0xc3 is not valid UTF-8"),
]


class TestLoaderPaths:
    """The one-pass parse and the per-line scan agree on every file: what
    loads, loads to the same arrays; what fails, fails with the same error."""

    @pytest.mark.parametrize(
        "text, kw, expected, scan_only", [case[1:] for case in ACCEPTED],
        ids=[case[0] for case in ACCEPTED],
    )
    def test_accepted(self, tmp_path, monkeypatch, text, kw, expected, scan_only):
        path = write_file(tmp_path, text)
        want = scanned(path, **kw)
        scans = []
        real_scan = data_io._scan_lines

        def counted_scan(*args):
            scans.append(args)
            return real_scan(*args)

        monkeypatch.setattr(data_io, "_scan_lines", counted_scan)
        got = load_triplets(path, **kw)
        assert_same_triplets(got, want)
        m, n, rows, cols, vals = expected
        assert (got.m, got.n) == (m, n)
        assert got.rows.tolist() == rows and got.cols.tolist() == cols
        assert got.vals.tolist() == vals
        assert bool(scans) == scan_only

    @pytest.mark.parametrize(
        "text, kw, exc, line, message", [case[1:] for case in REJECTED],
        ids=[case[0] for case in REJECTED],
    )
    def test_rejected(self, tmp_path, text, kw, exc, line, message):
        path = write_file(tmp_path, text)
        with pytest.raises(exc) as want:
            scanned(path, **kw)
        with pytest.raises(exc) as got:
            load_triplets(path, **kw)
        assert str(got.value) == str(want.value) == message.format(path=path)
        assert getattr(got.value, "line", None) == getattr(want.value, "line", None) == line

    def test_every_ascii_character_beside_a_field(self, tmp_path):
        # np.loadtxt strips some characters around a field (U+001F among
        # them) that int() and float() reject, and str.splitlines breaks
        # lines at some the parser does not; the outcome must not depend on it.
        line = "1,0,2.5"
        cuts = [0, 1, 2, 3, 4, len(line)]
        for code in range(128):
            for cut in cuts:
                text = f"row,col,value\n0,1,3\n{line[:cut]}{chr(code)}{line[cut:]}\n"
                path = write_file(tmp_path, text)
                outcomes = []
                for load in (load_triplets, scanned):
                    try:
                        tm = load(path)
                        outcomes.append((tm.m, tm.n, tm.rows.tolist(), tm.cols.tolist(),
                                         tm.vals.tolist()))
                    except (ParseError, IndexOutOfBounds, DuplicateEntry) as exc:
                        outcomes.append((type(exc), str(exc)))
                assert outcomes[0] == outcomes[1], repr(text)

    def test_clean_file_skips_the_scan(self, tmp_path, monkeypatch):
        # A clean file is parsed from disk: it is neither decoded to one
        # string nor split into lines.
        tm, path = clean_file(tmp_path)

        def no_scan(*args):
            raise AssertionError("a clean file was decoded or entered the per-line scan")

        monkeypatch.setattr(data_io, "read_utf8", no_scan)
        monkeypatch.setattr(data_io, "_scan_lines", no_scan)
        back = load_triplets(path)
        assert_same_triplets(back, tm)

    def test_whitespace_only_lines_skip_the_scan(self, tmp_path, monkeypatch):
        # Whitespace-only lines mid-file and at the end: parsed again without
        # them, to the scan's arrays, within the clean file's memory bound.
        _, clean = clean_file(tmp_path)
        header, *lines = clean.read_text().splitlines()
        path = tmp_path / "blanks.csv"
        path.write_text("\n".join([header, *lines[:100], " \t", *lines[100:], " "]) + "\n")
        want = scanned(path)

        def no_scan(*args):
            raise AssertionError("whitespace-only lines sent the file to the per-line scan")

        monkeypatch.setattr(data_io, "read_utf8", no_scan)
        monkeypatch.setattr(data_io, "_scan_lines", no_scan)
        load_triplets(path)  # numpy's lazy imports are not the loader's memory
        tracemalloc.start()
        try:
            back = load_triplets(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_triplets(back, want)
        output = back.rows.nbytes + back.cols.nbytes + back.vals.nbytes
        assert peak <= 2 * (path.stat().st_size + output)

    def test_clean_file_peak_memory(self, tmp_path):
        # Held at once: the parsed table and the arrays made from it, not the
        # file's text and its lines, which the per-line scan holds (about 3.3
        # times file + output).
        _, path = clean_file(tmp_path)
        load_triplets(path)  # numpy's lazy imports are not the loader's memory
        tracemalloc.start()
        try:
            back = load_triplets(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = back.rows.nbytes + back.cols.nbytes + back.vals.nbytes
        assert peak <= 2 * (path.stat().st_size + output)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ"])
    def test_compressed_suffix_is_read_as_text(self, tmp_path, suffix):
        # numpy's DataSource would decompress a file of this name; the plain
        # text in it loads as it does under a .csv name.
        tm = synth_lowrank(20, 10, 2, 0.5, 0.1, seed=5)
        plain, named = tmp_path / "x.csv", tmp_path / f"x{suffix}"
        write_triplets(tm, plain)
        write_triplets(tm, named)
        assert_same_triplets(load_triplets(named), load_triplets(plain))

    def test_relative_path_spelled_like_a_url(self, tmp_path, monkeypatch):
        # A relative path such as http://host/x.csv names a file on disk;
        # nothing is fetched.
        def refuse(*args, **kwargs):
            raise AssertionError("the loader opened a URL or fell back to the scan")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        monkeypatch.setattr(data_io, "_scan_lines", refuse)
        monkeypatch.chdir(tmp_path)
        tm = synth_lowrank(20, 10, 2, 0.5, 0.1, seed=6)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        write_triplets(tm, tmp_path / "http:" / "host" / "x.csv")
        assert_same_triplets(load_triplets("http://host/x.csv"), tm)

    def test_shuffled_file_with_a_repeated_cell(self, tmp_path):
        # Out of row-major order the cell codes are sorted to find the repeat;
        # the scan then names it and its line.
        tm = synth_lowrank(30, 20, 2, 0.5, 0.1, seed=7)
        path = tmp_path / "dup.csv"
        write_triplets(tm, path)
        header, *lines = path.read_text().splitlines()
        order = np.random.default_rng(8).permutation(len(lines)).tolist()
        lines = [lines[i] for i in order]
        lines.insert(len(lines) - 5, lines[3].rsplit(",", 1)[0] + ",7.5")
        path.write_text("\n".join([header, *lines]) + "\n")
        with pytest.raises(DuplicateEntry) as want:
            scanned(path)
        with pytest.raises(DuplicateEntry) as got:
            load_triplets(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"at line {len(lines) - 4}")

    def test_file_changed_between_the_reads(self, tmp_path, monkeypatch):
        # A line that np.loadtxt would accept and the scan refuses (U+001F
        # beside a field) is added after the file passed the checks: the
        # scan decides, on what the file now holds.
        path = write_file(tmp_path, "row,col,value\n0,1,3\n")
        real_loadtxt = np.loadtxt

        def loadtxt_after_a_change(*args, **kwargs):
            with open(path, "a") as fh:
                fh.write("1,0,\x1f2.5\n")
            return real_loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_after_a_change)
        with pytest.raises(ParseError) as err:
            load_triplets(path)
        assert err.value.line == 3

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_is_read_once(self, tmp_path):
        # A pipe cannot be read a second time, so the scan reads it. A second
        # open would wait for a writer that never comes, and a failed load
        # leaves the writer waiting for a reader: both run in threads that
        # may be left behind.
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        loaded = []
        reader = threading.Thread(target=lambda: loaded.append(load_triplets(path)), daemon=True)
        writer = threading.Thread(
            target=path.write_text, args=("row,col,value\n0,1,2.5\n",), daemon=True
        )
        for thread in (writer, reader):
            thread.start()
        reader.join(timeout=30)
        assert not reader.is_alive() and len(loaded) == 1
        assert loaded[0].vals.tolist() == [2.5]


class TestSampleSubmatrix:
    def test_identity_sampling(self):
        tm = synth_lowrank(6, 5, 2, 0.5, 0.0, seed=1)
        sub = sample_submatrix(tm, 6, 5, seed=2)
        assert sub.nnz == tm.nnz
        assert (sub.m, sub.n) == (6, 5)

    def test_seeded_reproducibility(self):
        tm = synth_lowrank(30, 20, 2, 0.3, 0.0, seed=3)
        a = sample_submatrix(tm, 10, 8, seed=4)
        b = sample_submatrix(tm, 10, 8, seed=4)
        assert a.rows.tolist() == b.rows.tolist()
        assert a.vals.tolist() == b.vals.tolist()

    def test_density_roughly_preserved(self):
        tm = synth_lowrank(200, 100, 2, 0.5, 0.0, seed=5)
        sub = sample_submatrix(tm, 100, 50, seed=6)
        rel = abs(sub.density - tm.density) / tm.density
        assert rel <= 0.2

    def test_invalid_dimensions(self):
        tm = synth_lowrank(5, 4, 2, 0.9, 0.0, seed=7)
        with pytest.raises(InvalidDimensions):
            sample_submatrix(tm, 6, 4, seed=8)


# Support sizes where a rounding remainder in the last cell would scale above 1 (46228) or below 1
# (45000), and the Netflix-sample size.
BINARY_SIZES = (3, 7, 97, 45000, 46228, 278338)


def one_row(nnz):
    """A 1-by-nnz triplet matrix observed in every cell."""
    return TripletMatrix(1, nnz, np.zeros(nnz, dtype=np.int64),
                         np.arange(nnz, dtype=np.int64), np.ones(nnz))


class TestWeights:
    def test_four_entries(self):
        tm = TripletMatrix(2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                           np.ones(4))
        w = binary_weights(tm)
        np.testing.assert_allclose(w, 0.25)
        assert w.sum() == 1.0

    def test_netflix_sample_scale(self):
        w = binary_weights(one_row(278338))
        assert abs(w[0] - 1.0 / 278338) <= 1e-20
        assert abs(w.sum() - 1.0) <= 1e-15

    def test_sum_exact(self):
        # Every weight is exactly 1/nnz; the sum is 1 within the ProblemData check.
        for nnz in BINARY_SIZES:
            w = binary_weights(one_row(nnz))
            assert np.all(w == 1.0 / nnz)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_binary_default_equals_normalized_ones(self):
        for nnz in BINARY_SIZES:
            tm = one_row(nnz)
            default = problem_from_triplets(tm, 1).w_vals
            assert np.array_equal(default, problem_from_triplets(tm, 1, np.ones(nnz)).w_vals)

    def test_binary_sampler_pairs_nothing(self):
        # Binary weights are equal, so the sampler takes the equal-weight
        # draw and builds no cumulative sums.
        for nnz in (45000, 46228, 278338):
            assert problem_from_triplets(one_row(nnz), 1).sampler.head is None

    def test_normalize(self):
        w = normalize_weights(np.array([2.0, 2.0, 4.0]))
        np.testing.assert_allclose(w, [0.25, 0.25, 0.5])
        assert w.sum() == 1.0
        with pytest.raises(EmptySupport):
            normalize_weights(np.zeros(3))

    def test_nan_weight_refused(self):
        # normalize_weights spreads the NaN over every weight; ProblemData
        # then refuses them.
        tm = TripletMatrix(1, 2, np.zeros(2, dtype=np.int64), np.arange(2), np.ones(2))
        assert np.isnan(normalize_weights(np.array([1.0, np.nan]))).all()
        with pytest.raises(NonPositiveWeight):
            problem_from_triplets(tm, 1, np.array([1.0, np.nan]))

    def test_zero_last_weight_stays_zero(self):
        rng = np.random.default_rng(21)
        nnz = 1000
        tm = TripletMatrix(1, nnz, np.zeros(nnz, dtype=np.int64),
                           np.arange(nnz, dtype=np.int64), np.ones(nnz))
        for _ in range(20):
            raw = rng.random(nnz)
            raw[-1] = 0.0
            w = normalize_weights(raw)
            assert w[-1] == 0.0
            data = problem_from_triplets(tm, 1, raw)
            assert data.w_vals[-1] == 0.0
            assert nnz - 1 not in data.support

    def test_problem_from_triplets(self):
        tm = synth_lowrank(6, 5, 2, 0.5, 0.1, seed=9)
        data = problem_from_triplets(tm, 2)
        assert data.k == 2 and data.nnz == tm.nnz
        assert abs(data.w_vals.sum() - 1.0) <= 1e-15


class TestSynth:
    def test_full_observation(self):
        tm = synth_lowrank(6, 5, 2, 1.0, 0.0, seed=10)
        assert tm.nnz == 30

    def test_noiseless_instance_is_low_rank(self):
        tm = synth_lowrank(8, 6, 2, 1.0, 0.0, seed=11)
        dense = np.zeros((8, 6))
        dense[tm.rows, tm.cols] = tm.vals
        s = np.linalg.svd(dense, compute_uv=False)
        assert s[2] <= 1e-12

    def test_seeded(self):
        a = synth_lowrank(10, 8, 3, 0.4, 0.2, seed=12)
        b = synth_lowrank(10, 8, 3, 0.4, 0.2, seed=12)
        assert a.vals.tolist() == b.vals.tolist()

    def test_bad_params(self):
        with pytest.raises(InvalidDimensions):
            synth_lowrank(4, 4, 0, 0.5, 0.0, seed=13)
        with pytest.raises(InvalidDimensions):
            synth_lowrank(4, 4, 2, 0.0, 0.0, seed=13)
        # an empty or negative shape, or a noise that writes non-finite values
        bad = [(0, 4, 0.1), (-3, 4, 0.1), (4, 0, 0.1), (4, 4, math.inf), (4, 4, math.nan)]
        for m, n, noise in bad:
            with pytest.raises(InvalidDimensions):
                synth_lowrank(m, n, 2, 0.5, noise, seed=13)

    @pytest.mark.parametrize("noise", [1e308, -1e308, 1.7976931348623157e308])
    def test_noise_that_overflows_refused(self, noise):
        # a finite noise whose draws overflow would write values ingest refuses
        with pytest.raises(InvalidDimensions, match=re.escape(f"--noise {noise!r}")):
            synth_lowrank(40, 20, 2, 1.0, noise, seed=14)
        assert np.isfinite(synth_lowrank(40, 20, 2, 1.0, 1e150, seed=14).vals).all()
