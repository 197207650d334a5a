import numpy as np
import pytest

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


class TestWeights:
    def test_four_entries(self):
        tm = TripletMatrix(2, 2, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                           np.ones(4))
        w = binary_weights(tm)
        np.testing.assert_allclose(w, 0.25)
        assert w.sum() == 1.0

    def test_netflix_sample_scale(self):
        nnz = 278338
        rows = np.zeros(nnz, dtype=np.int64)
        cols = np.arange(nnz, dtype=np.int64)
        tm = TripletMatrix(1, nnz, rows, cols, np.ones(nnz))
        w = binary_weights(tm)
        assert abs(w[0] - 1.0 / 278338) <= 1e-20
        assert abs(w.sum() - 1.0) <= 1e-15

    def test_sum_exact(self):
        for nnz in (3, 7, 97):
            tm = TripletMatrix(1, nnz, np.zeros(nnz, dtype=np.int64),
                               np.arange(nnz, dtype=np.int64), np.ones(nnz))
            assert binary_weights(tm).sum() == 1.0

    def test_normalize(self):
        w = normalize_weights(np.array([2.0, 2.0, 4.0]))
        np.testing.assert_allclose(w, [0.25, 0.25, 0.5])
        assert w.sum() == 1.0
        with pytest.raises(EmptySupport):
            normalize_weights(np.zeros(3))

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
