import numpy as np
import pytest

from wlra.data_io import problem_from_triplets, synth_lowrank
from wlra.errors import ShapeMismatch
from wlra.geometry import ProductPoint, orthonormality_defect, retract
from wlra.model import ProblemData, cost_unregularized
from wlra.svd_init import fill_missing_column_mean, truncated_svd_init

from helpers import (
    assemble,
    best_rank_k,
    check_stationarity,
    lapack_svd_init,
    random_tangent,
)


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
            if k:  # the init's Gram eigenvalues give the same error
                err = truncated_svd_init(a, k, with_error=True)[2]
                assert abs(err - cost) <= 1e-10 * eig.sum()


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

    def test_bincount_reads_a_writable_index(self, monkeypatch):
        # np.bincount copies a read-only index array, as data.cols is.
        seen, bincount = [], np.bincount

        def recording(x, *args, **kwargs):
            seen.append(x.flags.writeable)
            return bincount(x, *args, **kwargs)

        data = problem_from_triplets(synth_lowrank(30, 20, 3, 0.5, 0.1, seed=2), 3)
        monkeypatch.setattr(np, "bincount", recording)
        fill_missing_column_mean(data)
        assert seen == [True, True]


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

    @pytest.mark.parametrize("shape", [(9, 6), (6, 9)])
    def test_layouts(self, shape):
        # The layouts LAPACK's thin SVD gave: U, V and X row-major, Y
        # column-major, which sgd_euclidean keeps for its whole solve.
        point, pair = truncated_svd_init(np.random.default_rng(16).standard_normal(shape), 3)
        assert point.u.flags.c_contiguous and point.v.flags.c_contiguous
        assert pair.x.flags.c_contiguous and pair.y.flags.f_contiguous

    def test_k_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            truncated_svd_init(np.eye(3), 4)


# (m, n, k, observe_prob, seed) of synth_lowrank instances with noise 0.1
# whose column-mean imputations the kernel-swap test factors: the shapes of
# the benchmark's three workloads, then the CI smoke synths.
IMPUTED = {
    "weighted-small": (200, 80, 5, 1.0, 0),
    "completion-tall": (5000, 60, 10, 0.3, 0),
    "completion-wide": (1500, 150, 8, 0.2, 0),
    "smoke-tm": (40, 16, 3, 0.4, 3),
    "smoke-full": (40, 16, 3, 1.0, 3),
    "smoke-sparse": (400, 100, 3, 0.03, 3),
    "smoke-blocks": (600, 120, 3, 0.3, 3),
}


def imputed(name):
    m, n, k, observe_prob, seed = IMPUTED[name]
    data = problem_from_triplets(synth_lowrank(m, n, k, observe_prob, 0.1, seed), k)
    return fill_missing_column_mean(data), k, data


def plain(m, n, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


class TestSvdKernelSwap:
    """The Gram-eigenproblem init against LAPACK's thin SVD of the whole
    matrix (`lapack_svd_init`), with these bounds: singular values within
    1e-12 of the largest, the rank-k product within 1e-12 ||A||_F, U and V
    orthonormal to 1e-12, the weighted init cost within 1e-12 relative, and
    the truncation error within 1e-10 ||A||_F^2."""

    def check(self, a, k, data=None, scale=1.0):
        # The init sees scale * a and is scaled back; the reference sees a.
        point, pair, err = truncated_svd_init(scale * a, k, with_error=True)
        ref, _, ref_err = lapack_svd_init(a, k, with_error=True)
        x = point.x / scale
        fro = np.linalg.norm(a)
        assert np.max(np.abs(x - ref.x)) <= 1e-12 * ref.x[0]
        unscaled = ProductPoint(point.u, x, point.v)
        assert np.linalg.norm(assemble(unscaled) - assemble(ref)) <= 1e-12 * fro
        assert np.linalg.norm(pair.x @ pair.y.T / scale - assemble(ref)) <= 1e-12 * fro
        assert orthonormality_defect(point.u) <= 1e-12
        assert orthonormality_defect(point.v) <= 1e-12
        if data is not None:
            cost, ref_cost = cost_unregularized(unscaled, data), cost_unregularized(ref, data)
            assert abs(cost - ref_cost) <= 1e-12 * ref_cost
        # Both sides are 0 at scale = 1e-300, below the smallest float, and
        # inf where the error of a 1e153-scaled matrix exceeds the largest.
        want = scale * scale * ref_err
        assert err == want or abs(err - want) <= 1e-10 * fro**2 * scale * scale

    @pytest.mark.parametrize("name", IMPUTED)
    def test_imputations(self, name):
        self.check(*imputed(name))

    @pytest.mark.parametrize(
        "m, n, rank, k",
        [(12, 12, 12, 4), (9, 20, 9, 5), (30, 12, 3, 6), (12, 30, 3, 6), (15, 7, 7, 7),
         (7, 15, 7, 7), (30, 12, 3, 12)],
        ids=["square", "wide", "rank-deficient-tall", "rank-deficient-wide", "k-full-tall",
             "k-full-wide", "rank-deficient-k-full"],
    )
    def test_matrices(self, m, n, rank, k):
        self.check(plain(m, n, rank, seed=m * n + k), k)

    def test_all_zero_imputation(self):
        data = ProblemData(
            m=6, n=4, k=3, rows=[0, 3, 5], cols=[1, 1, 2], a_vals=[0.0, -0.0, 0.0],
            w_vals=[0.25, 0.25, 0.5],
        )
        dense = fill_missing_column_mean(data)
        point, pair, err = truncated_svd_init(dense, 3, with_error=True)
        assert np.all(point.x == 0.0) and err == 0.0
        assert np.all(pair.x == 0.0) and np.all(pair.y == 0.0)
        self.check(dense, 3, data)

    @pytest.mark.parametrize("scale", [1e-300, 1e153])
    @pytest.mark.parametrize("name", ["smoke-tm", "smoke-blocks"])
    def test_scaled_inputs(self, name, scale):
        # Without the prescale the Gram entries underflow to 0 at 1e-300, and
        # overflow at 1e153 on the 600-row synth; both scales pass ProblemData.
        dense, k, data = imputed(name)
        self.check(dense, k, data, scale)
        self.check(dense.T, k, scale=scale)


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
