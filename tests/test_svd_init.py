import numpy as np
import pytest

from wlra.errors import ShapeMismatch
from wlra.geometry import orthonormality_defect, retract
from wlra.model import ProblemData, cost_unregularized
from wlra.svd_init import fill_missing_column_mean, truncated_svd_init

from helpers import assemble, best_rank_k, check_stationarity, random_tangent


def refined_candidates_best(a, k, n_candidates, sweeps, seed):
    """Brute-force oracle: random factor pairs polished by unweighted
    alternating least squares, vectorized over the whole batch."""
    m, n = a.shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_candidates, m, k))
    ridge = 1e-12 * np.eye(k)
    for _ in range(sweeps):
        g = np.transpose(x, (0, 2, 1)) @ x + ridge
        y = np.transpose(np.linalg.solve(g, np.transpose(x, (0, 2, 1)) @ a), (0, 2, 1))
        g = np.transpose(y, (0, 2, 1)) @ y + ridge
        x = np.transpose(
            np.linalg.solve(g, np.transpose(y, (0, 2, 1)) @ a.T), (0, 2, 1)
        )
    resid = a[None] - x @ np.transpose(y, (0, 2, 1))
    return float(np.min(np.sum(resid**2, axis=(1, 2))))


class TestSvdProperties:
    """Properties of the public SVD-based functions, on square, tall and wide input."""

    def test_reconstructs_and_orders(self):
        rng = np.random.default_rng(0)
        for shape in [(6, 4), (4, 6), (5, 5), (8, 3)]:
            a = rng.standard_normal(shape)
            point, pair = truncated_svd_init(a, min(shape))
            assert np.linalg.norm(assemble(point) - a) <= 1e-8 * np.linalg.norm(a)
            assert np.linalg.norm(pair.x @ pair.y.T - a) <= 1e-8 * np.linalg.norm(a)
            assert np.all(np.diff(point.x) <= 1e-12)
            assert np.all(point.x >= 0)
            assert orthonormality_defect(point.u) <= 1e-10
            assert orthonormality_defect(point.v) <= 1e-10
            p, cost = best_rank_k(a, min(shape))
            assert np.linalg.norm(p - a) <= 1e-8 * np.linalg.norm(a)
            assert cost <= 1e-16

    def test_matches_known_singular_values(self):
        point, _ = truncated_svd_init(np.diag([3.0, 1.0]), 2)
        np.testing.assert_allclose(point.x, [3.0, 1.0], atol=1e-14)
        _, cost = best_rank_k(np.diag([3.0, 1.0]), 0)
        assert abs(cost - 10.0) <= 1e-13

    def test_rank_deficient_input(self):
        # k exceeds the rank: the trailing singular vectors must still
        # complete orthonormal bases, on both tall and wide input.
        rng = np.random.default_rng(1)
        tall = rng.standard_normal((7, 2)) @ rng.standard_normal((2, 5))
        for a in (tall, tall.T):
            point, pair = truncated_svd_init(a, 4)
            assert np.linalg.norm(assemble(point) - a) <= 1e-8 * np.linalg.norm(a)
            assert np.linalg.norm(pair.x @ pair.y.T - a) <= 1e-8 * np.linalg.norm(a)
            assert np.sum(point.x > 1e-10) == 2
            assert np.all(point.x >= 0) and np.all(np.diff(point.x) <= 1e-12)
            assert orthonormality_defect(point.u) <= 1e-10
            assert orthonormality_defect(point.v) <= 1e-10
            p, cost = best_rank_k(a, 4)
            assert np.linalg.norm(p - a) <= 1e-8 * np.linalg.norm(a)
            assert cost <= 1e-16

    def test_values_match_gram_eigenvalues(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((9, 6))
        point, _ = truncated_svd_init(a, 6)
        eig = np.linalg.eigvalsh(a.T @ a)[::-1]
        np.testing.assert_allclose(point.x**2, eig, rtol=1e-10, atol=1e-12)
        for k in range(7):
            _, cost = best_rank_k(a, k)
            assert abs(cost - eig[k:].sum()) <= 1e-10 * eig.sum()
            if k:  # the init's own SVD gives the same error
                assert truncated_svd_init(a, k, with_error=True)[2] == cost


def sparse_instance(m, n, k, nnz, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(m * n, size=nnz, replace=False)
    rows, cols = flat // n, flat % n
    a = rng.standard_normal(nnz)
    w = np.full(nnz, 1.0 / nnz)
    w[-1] = 1.0 - w[:-1].sum()
    return ProblemData(m=m, n=n, k=k, rows=rows, cols=cols, a_vals=a, w_vals=w)


class TestFillMissing:
    def test_column_mean_hand_case(self):
        data = ProblemData(
            m=3, n=1, k=1, rows=[0, 1], cols=[0, 0],
            a_vals=[2.0, 4.0], w_vals=[0.5, 0.5],
        )
        np.testing.assert_allclose(
            fill_missing_column_mean(data), [[2.0], [4.0], [3.0]]
        )

    def test_fully_observed_unchanged(self):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((4, 3))
        rows, cols = np.nonzero(np.ones((4, 3)))
        w = np.full(rows.size, 1.0 / rows.size)
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=4, n=3, k=2, rows=rows, cols=cols, a_vals=dense[rows, cols], w_vals=w
        )
        np.testing.assert_array_equal(fill_missing_column_mean(data), dense)

    def test_all_missing_column_zeros(self):
        data = ProblemData(
            m=2, n=3, k=1, rows=[0, 1], cols=[0, 0], a_vals=[1.0, 3.0],
            w_vals=[0.5, 0.5],
        )
        out = fill_missing_column_mean(data)
        assert np.all(out[:, 1] == 0.0) and np.all(out[:, 2] == 0.0)
        np.testing.assert_allclose(out[:, 0], [1.0, 3.0])

    def test_matches_add_at_sums(self):
        # The column sums and counts come from np.bincount; it accumulates in
        # index order, as np.add.at does, so the result is bit-identical.
        rng = np.random.default_rng(8)
        m, n = 300, 40
        mask = rng.random((m, n)) < 0.2
        mask[:, 7] = False
        rows, cols = np.nonzero(mask)
        vals = rng.standard_normal(rows.size) * 10.0 ** rng.integers(-3, 4, rows.size)
        w = np.full(rows.size, 1.0 / rows.size)
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(m=m, n=n, k=2, rows=rows, cols=cols, a_vals=vals, w_vals=w)
        counts = np.zeros(n)
        sums = np.zeros(n)
        np.add.at(counts, cols, 1.0)
        np.add.at(sums, cols, vals)
        means = np.divide(sums, counts, out=np.zeros(n), where=counts > 0)
        want = np.tile(means, (m, 1))
        want[rows, cols] = vals
        assert np.array_equal(fill_missing_column_mean(data), want)


class TestTruncatedInit:
    def test_diagonal_hand_case(self):
        point, pair = truncated_svd_init(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(point.x, [3.0])
        np.testing.assert_allclose(np.abs(point.u), [[1.0], [0.0]], atol=1e-14)
        np.testing.assert_allclose(assemble(point), np.diag([3.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(pair.x @ pair.y.T, np.diag([3.0, 0.0]), atol=1e-14)

    def test_full_rank_truncation_reproduces_input(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 4))
        point, pair = truncated_svd_init(a, 4)
        assert np.linalg.norm(assemble(point) - a) <= 1e-8 * np.linalg.norm(a)
        assert np.linalg.norm(pair.x @ pair.y.T - a) <= 1e-8 * np.linalg.norm(a)

    def test_parametrizations_agree(self):
        data = sparse_instance(10, 8, 3, 40, seed=5)
        dense = fill_missing_column_mean(data)
        point, pair = truncated_svd_init(dense, 3)
        assert (
            np.linalg.norm(assemble(point) - pair.x @ pair.y.T)
            <= 1e-8 * np.linalg.norm(assemble(point))
        )
        c1 = cost_unregularized(point, data)
        c2 = cost_unregularized(pair, data)
        assert abs(c1 - c2) <= 1e-10

    def test_stiefel_invariants(self):
        rng = np.random.default_rng(6)
        point, _ = truncated_svd_init(rng.standard_normal((9, 6)), 4)
        assert orthonormality_defect(point.u) <= 1e-10
        assert orthonormality_defect(point.v) <= 1e-10

    def test_k_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            truncated_svd_init(np.eye(3), 4)


class TestBestRankK:
    def test_diagonal_hand_case(self):
        p, cost = best_rank_k(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(p, np.diag([3.0, 0.0]), atol=1e-14)
        assert abs(cost - 1.0) <= 1e-14

    def test_k_at_least_rank_gives_exact_copy(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 4))
        p, cost = best_rank_k(a, 4)
        assert np.linalg.norm(p - a) <= 1e-8 * np.linalg.norm(a)
        assert cost <= 1e-16
        p0, cost0 = best_rank_k(a, 9)
        assert cost0 <= 1e-16

    def test_cost_equals_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.standard_normal((7, 5))
            for k in range(1, 5):
                p, cost = best_rank_k(a, k)
                assert abs(cost - np.linalg.norm(a - p) ** 2) <= 1e-8

    def test_matches_brute_force_refined_candidates(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 4))
        _, cost = best_rank_k(a, 2)
        brute = refined_candidates_best(a, 2, n_candidates=10000, sweeps=60, seed=10)
        assert abs(cost - brute) <= 1e-6

    def test_local_minimality_probe(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((6, 5))
        k = 2
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        from wlra.geometry import ProductPoint

        point = ProductPoint(u[:, :k].copy(), s[:k].copy(), vt[:k].T.copy())
        base = np.linalg.norm(a - assemble(point)) ** 2
        for _ in range(50):
            d = random_tangent(point, rng)
            d = d.scaled(1e-3 / max(d.norm(), 1e-12))
            moved = retract(point, d)
            assert np.linalg.norm(a - assemble(moved)) ** 2 >= base - 1e-12

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            best_rank_k(np.ones(3), 1)


class TestStationarity:
    def test_truncation_is_stationary(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((7, 5))
        p, _ = best_rank_k(a, 3)
        assert check_stationarity(a, p, tol=1e-8)

    def test_zero_is_stationary(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 4))
        assert check_stationarity(a, np.zeros_like(a), tol=1e-12)

    def test_generic_perturbation_is_not(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((5, 4))
        p = a + 0.1 * rng.standard_normal((5, 4))
        assert not check_stationarity(a, p, tol=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            check_stationarity(np.eye(3), np.eye(4), tol=1e-8)
