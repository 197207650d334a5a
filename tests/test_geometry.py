import warnings

import numpy as np
import pytest

import wlra.geometry
from wlra.errors import RankDeficient, ShapeMismatch
from wlra.geometry import (
    FOLD_COND,
    FOLD_STEPS,
    NEAR_TOL,
    RANK_TOL,
    FactoredPoint,
    ProductPoint,
    ProductTangent,
    orthonormality_defect,
    project_tangent,
    kept_updates,
    qf,
    retract,
    tangent_project,
)

from helpers import (
    assemble,
    householder_qf,
    random_point,
    reference_fold_rule,
    random_stiefel,
    random_tangent,
    tangent_defect,
    zero_tangent,
)


class TestQf:
    def test_single_column_normalization(self):
        np.testing.assert_allclose(qf([[3.0], [4.0]]), [[0.6], [0.8]], atol=1e-15)

    def test_identity(self):
        np.testing.assert_allclose(qf(np.eye(3)), np.eye(3), atol=1e-14)

    def test_reconstruction_with_positive_diagonal(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((5, 3))
        q = qf(c)
        r = q.T @ c
        assert np.linalg.norm(q @ r - c) <= 1e-10
        assert orthonormality_defect(q) <= 1e-10
        assert np.all(np.diag(r) > 0)
        # R is upper triangular
        assert np.allclose(np.tril(r, -1), 0.0, atol=1e-10)

    def test_rank_deficient_raises(self):
        c = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            qf(c)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeMismatch):
            qf(np.ones((2, 3)))


# Largest entrywise gap allowed between qf's Cholesky-QR path and Householder
# QR on a near-orthonormal argument; both return the unique Q factor with
# positive diag R, and the gap is a few eps times cond(c)^2 <= 3.
QF_KERNEL_TOL = 1e-13


def qf_kernels(monkeypatch):
    """Count qf's LAPACK calls: the lists get one entry per Cholesky
    factorization and per Householder QR."""
    calls = {"cholesky": [], "qr": []}
    for name, got in calls.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda a, real=real, got=got: got.append(1) or real(a)
        )
    return calls


class TestQfKernels:
    """qf takes Cholesky-QR when ||c^T c - I||_F <= NEAR_TOL, and Householder
    QR otherwise or when the factorization fails."""

    @pytest.mark.parametrize("shape", [(5000, 10), (200, 5), (3, 3), (7, 1)])
    def test_near_orthonormal_takes_cholesky_and_matches_householder(self, monkeypatch, shape):
        rng = np.random.default_rng(46)
        c = random_stiefel(*shape, rng) + (0.1 / np.sqrt(shape[0])) * rng.standard_normal(shape)
        want = householder_qf(c)
        calls = qf_kernels(monkeypatch)
        q = qf(c)
        assert (len(calls["cholesky"]), len(calls["qr"])) == (1, 0)
        assert np.abs(q - want).max() <= QF_KERNEL_TOL
        assert orthonormality_defect(q) <= 1e-14

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_gate_at_near_tol(self, monkeypatch, k):
        # ||(s^2 - 1) I_k||_F = |s^2 - 1| sqrt(k): just inside the gate, then just outside
        calls = qf_kernels(monkeypatch)
        for side, counts in ((1.0 - 1e-9, (1, 0)), (1.0 + 1e-9, (1, 1))):
            s = np.sqrt(1.0 + side * NEAR_TOL / np.sqrt(k))
            q = qf(s * np.eye(k + 2, k))
            assert (len(calls["cholesky"]), len(calls["qr"])) == counts
            assert np.abs(q - np.eye(k + 2, k)).max() <= 1e-15

    def test_far_from_orthonormal_takes_householder(self, monkeypatch):
        c = 3.0 * random_stiefel(40, 4, np.random.default_rng(47))
        calls = qf_kernels(monkeypatch)
        q = qf(c)
        assert (len(calls["cholesky"]), len(calls["qr"])) == (0, 1)
        np.testing.assert_array_equal(q, householder_qf(c))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_takes_householder(self, monkeypatch, bad):
        c = random_stiefel(40, 4, np.random.default_rng(48))
        c[5, 2] = bad
        calls = qf_kernels(monkeypatch)
        with np.errstate(invalid="ignore"):
            q = qf(c)
        assert (len(calls["cholesky"]), len(calls["qr"])) == (0, 1)
        assert not np.isfinite(q).all()

    def test_forced_linalg_error_takes_householder(self, monkeypatch):
        c = random_stiefel(40, 4, np.random.default_rng(49)) + 1e-3
        want = householder_qf(c)

        def fails(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", fails)
        np.testing.assert_array_equal(qf(c), want)

    def test_rank_deficient_names_the_column(self, monkeypatch):
        rng = np.random.default_rng(50)
        c = random_stiefel(30, 4, rng)
        c[:, 2] = c[:, 0] - c[:, 1]  # ||c^T c - I||_F > NEAR_TOL: the Householder rule decides
        calls = qf_kernels(monkeypatch)
        with pytest.raises(RankDeficient, match="column 2 is numerically dependent"):
            qf(c)
        assert (len(calls["cholesky"]), len(calls["qr"])) == (0, 1)

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e200, 1e300])
    def test_large_magnitude_matches_unscaled(self, scale):
        # The Gram matrix overflows from about 1e154 on, and squared column
        # norms did too: a well-conditioned matrix was refused as rank-deficient.
        c = np.random.default_rng(51).standard_normal((40, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = qf(scale * c)
        assert np.abs(q - qf(c)).max() <= QF_KERNEL_TOL

    def test_large_magnitude_dependent_column_raises(self):
        c = np.random.default_rng(52).standard_normal((40, 3))
        c[:, 2] = c[:, 0] - c[:, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient, match="column 2 is numerically dependent"):
                qf(1e200 * c)


class TestTangentProject:
    def test_hand_case(self):
        x = np.array([[1.0], [0.0]])
        out = tangent_project(x, np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(out, [[0.0], [4.0]], atol=1e-15)

    def test_point_direction_annihilated(self):
        rng = np.random.default_rng(1)
        x = qf(rng.standard_normal((6, 2)))
        np.testing.assert_allclose(tangent_project(x, x), 0.0, atol=1e-12)

    def test_idempotent_and_fixes_tangents(self):
        rng = np.random.default_rng(2)
        x = qf(rng.standard_normal((7, 3)))
        xi = rng.standard_normal((7, 3))
        once = tangent_project(x, xi)
        twice = tangent_project(x, once)
        assert np.linalg.norm(twice - once) <= 1e-12
        assert tangent_defect(x, once) <= 1e-10

    def test_self_adjoint(self):
        rng = np.random.default_rng(3)
        x = qf(rng.standard_normal((6, 2)))
        xi = rng.standard_normal((6, 2))
        eta = rng.standard_normal((6, 2))
        lhs = np.sum(tangent_project(x, xi) * eta)
        rhs = np.sum(xi * tangent_project(x, eta))
        assert abs(lhs - rhs) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tangent_project(np.eye(3), np.ones((2, 2)))


class TestRetract:
    def test_zero_tangent_is_fixed_point(self):
        rng = np.random.default_rng(4)
        p = random_point(8, 5, 3, rng)
        q = retract(p, zero_tangent(p))
        np.testing.assert_array_equal(q.x, p.x)
        assert np.linalg.norm(q.u - p.u) <= 1e-12
        assert np.linalg.norm(q.v - p.v) <= 1e-12

    def test_scalar_hand_case(self):
        p = ProductPoint(np.array([[1.0]]), [2.0], np.array([[1.0]]))
        v = ProductTangent(np.array([[0.0]]), [-1.0], np.array([[0.0]]))
        q = retract(p, v)
        assert q.u[0, 0] == 1.0 and q.x[0] == 1.0 and q.v[0, 0] == 1.0

    def test_first_order_agreement(self):
        # || R(t v) - (p + t v) || should shrink like t^2
        rng = np.random.default_rng(6)
        p = random_point(10, 6, 3, rng)
        v = random_tangent(p, rng)
        ts = np.array([1e-2, 1e-3, 1e-4])
        devs = []
        for t in ts:
            q = retract(p, v.scaled(t))
            dev = np.sqrt(
                np.linalg.norm(q.u - (p.u + t * v.du)) ** 2
                + np.linalg.norm(q.x - (p.x + t * v.dx)) ** 2
                + np.linalg.norm(q.v - (p.v + t * v.dv)) ** 2
            )
            devs.append(dev)
        slope = np.polyfit(np.log(ts), np.log(devs), 1)[0]
        assert 1.85 <= slope <= 2.15

    def test_directional_derivative_matches_tangent(self):
        rng = np.random.default_rng(7)
        p = random_point(9, 4, 2, rng)
        v = random_tangent(p, rng)
        h = 1e-5
        qp = retract(p, v.scaled(h))
        qm = retract(p, v.scaled(-h))
        num = ProductTangent(
            (qp.u - qm.u) / (2 * h), (qp.x - qm.x) / (2 * h), (qp.v - qm.v) / (2 * h)
        )
        diff = ProductTangent(num.du - v.du, num.dx - v.dx, num.dv - v.dv)
        assert diff.norm() / v.norm() <= 1e-4

    def test_mismatched_tangent_rejected(self):
        rng = np.random.default_rng(8)
        p = random_point(6, 4, 2, rng)
        bad = ProductTangent(np.zeros((5, 2)), np.zeros(2), np.zeros((4, 2)))
        with pytest.raises(ShapeMismatch):
            retract(p, bad)


def dense_row_step(u, i, a, s):
    """qf(U + s Pi_U(e_i a^T)), the step FactoredPoint takes on each factor in factored form."""
    xi = np.zeros_like(u)
    xi[i] = a
    return qf(u + s * tangent_project(u, xi))


def factored_step(f, i, j, a, s, dx=None):
    """One FactoredPoint step along the direction with U row i a[0], V row j
    a[1] and x slot dx (zero by default), reading the rows as the solvers do."""
    f.step(i, j, (f.rows(i, j), a, np.zeros(f.x.size) if dx is None else dx), s)


def assert_folded(f, factor):
    assert f.steps[factor] == 0
    np.testing.assert_array_equal(f.t[factor], np.eye(f.t.shape[1]))
    assert orthonormality_defect(f.bases[factor]) <= 1e-13


class TestFactoredStiefel:
    """The Stiefel factor steps of FactoredPoint, one stacked Cholesky-QR
    step for U and V, against the dense retraction of each factor."""

    def test_steps_match_dense_retraction(self):
        # 2000 steps at m=500, n=300, k=8 against Householder QR of the full factors.
        rng = np.random.default_rng(40)
        p = random_point(500, 300, 8, rng)
        f = FactoredPoint(p)
        u, x, v = p.u, p.x, p.v
        worst = 0.0
        for step in range(2000):
            i, j, s = int(rng.integers(500)), int(rng.integers(300)), 0.5 / (step + 1)
            a, dx = rng.standard_normal((2, 8)), rng.standard_normal(8)
            u, x, v = dense_row_step(u, i, a[0], s), x + s * dx, dense_row_step(v, j, a[1], s)
            factored_step(f, i, j, a, s, dx)
            q = f.point()
            worst = max(worst, float(np.abs(q.u - u).max()), float(np.abs(q.v - v).max()))
            if step == 1500:  # a lazy state, 501 steps past the periodic fold
                assert f.steps == [501, 501]
                np.testing.assert_allclose(f.rows(17, 5), [q.u[17], q.v[5]], rtol=0, atol=1e-15)
        assert worst <= 1e-13
        np.testing.assert_array_equal(f.x, x)
        assert orthonormality_defect(q.u) <= 1e-13 and orthonormality_defect(q.v) <= 1e-13

    def test_near_singular_m_folds(self):
        rng = np.random.default_rng(41)
        f = FactoredPoint(random_point(30, 20, 4, rng))
        factored_step(f, 3, 2, rng.standard_normal((2, 4)), 0.1)
        assert f.steps == [1, 1] and not np.array_equal(f.t[0], np.eye(4))
        p, (u_i, v_j), a = f.point(), f.rows(5, 7), rng.standard_normal((2, 4))
        # M = I - s (u_i a^T + a u_i^T) / 2 has the eigenvalue 1 - s beta with
        # beta = (u_i . a + |u_i| |a|) / 2; this s makes it zero for U, so
        # T' = T M R^-1 is singular and U folds to the dense retraction, while
        # V takes its Cholesky-QR update.
        beta = 0.5 * (u_i @ a[0] + np.linalg.norm(u_i) * np.linalg.norm(a[0]))
        factored_step(f, 5, 7, a, 1.0 / beta)
        assert_folded(f, 0)
        assert f.steps == [0, 2]
        assert np.abs(f.bases[0] - dense_row_step(p.u, 5, a[0], 1.0 / beta)).max() <= 1e-13
        assert np.abs(f.point().v - dense_row_step(p.v, 7, a[1], 1.0 / beta)).max() <= 1e-13

    def test_cond_fold_of_one_factor_leaves_the_other(self):
        # U's step puts M's eigenvalue 1 - s beta at 1e-3, so cond(T'_u) passes
        # FOLD_COND and U folds; V, stepping along a small direction, keeps its
        # update. Batched calls work matrix by matrix, so V's T and base come
        # out exactly as in a twin step in which U does not move at all.
        rng = np.random.default_rng(44)
        p = random_point(30, 20, 4, rng)
        f, twin = FactoredPoint(p), FactoredPoint(p)
        first = rng.standard_normal((2, 4))
        factored_step(f, 3, 2, first, 0.1)
        factored_step(twin, 3, 2, first, 0.1)
        u_i, a = f.rows(5, 7)[0], rng.standard_normal((2, 4))
        a[1] *= 1e-3
        s = (1.0 - 1e-3) / (0.5 * (u_i @ a[0] + np.linalg.norm(u_i) * np.linalg.norm(a[0])))
        u, v_base = f.point().u, f.bases[1]
        factored_step(f, 5, 7, a, s)
        factored_step(twin, 5, 7, np.stack((np.zeros(4), a[1])), s)
        assert_folded(f, 0)
        assert np.abs(f.bases[0] - dense_row_step(u, 5, a[0], s)).max() <= 1e-13
        assert f.steps == [0, 2] and twin.steps == [2, 2]
        assert f.bases[1] is v_base  # the base was written in place, not refolded
        np.testing.assert_array_equal(f.bases[1], twin.bases[1])
        np.testing.assert_array_equal(f.t[1], twin.t[1])
        assert not np.array_equal(f.t[1], np.eye(4))

    def test_batched_linalg_error_folds_both_factors(self, monkeypatch):
        # A step makes one batched np.linalg.inv call (of L and T M, for both
        # factors), and every 9th fails. A LinAlgError does not name the
        # factor, so both fold, and the point still follows the dense steps.
        rng = np.random.default_rng(45)
        p = random_point(40, 25, 3, rng)
        f = FactoredPoint(p)
        u, v = p.u, p.v
        real, inverses, folds = np.linalg.inv, [], []

        def every_ninth_batched_fails(a):
            if a.ndim == 2:  # the k-by-k inverse of a fold's `qf`
                return real(a)
            assert a.shape == (4, 3, 3)
            inverses.append(1)
            if len(inverses) % 9 == 0:
                raise np.linalg.LinAlgError("forced")
            return real(a)

        monkeypatch.setattr(np.linalg, "inv", every_ninth_batched_fails)
        for step in range(60):
            i, j, s = int(rng.integers(40)), int(rng.integers(25)), 0.3 / (step + 1)
            a = rng.standard_normal((2, 3))
            u, v = dense_row_step(u, i, a[0], s), dense_row_step(v, j, a[1], s)
            factored_step(f, i, j, a, s)
            assert len(inverses) == step + 1
            if len(inverses) % 9 == 0:
                folds.append(step)
                assert_folded(f, 0)
                assert_folded(f, 1)
            else:
                assert f.steps[0] == f.steps[1] > 0
        assert folds == [8, 17, 26, 35, 44, 53]
        q = f.point()
        assert np.abs(q.u - u).max() <= 1e-13 and np.abs(q.v - v).max() <= 1e-13

    def test_low_fold_threshold_folds_every_step(self, monkeypatch):
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)
        rng = np.random.default_rng(42)
        p = random_point(40, 30, 3, rng)
        f = FactoredPoint(p)
        u, v = p.u, p.v
        for step in range(50):
            i, j, s = int(rng.integers(40)), int(rng.integers(30)), 0.3
            a = rng.standard_normal((2, 3))
            u, v = dense_row_step(u, i, a[0], s), dense_row_step(v, j, a[1], s)
            factored_step(f, i, j, a, s)
            np.testing.assert_array_equal(f.t, np.tile(np.eye(3), (2, 1, 1)))
            assert f.steps == [0, 0]
        np.testing.assert_allclose(f.bases[0], u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(f.bases[1], v, rtol=0, atol=1e-13)

    def test_folds_after_fold_steps(self):
        rng = np.random.default_rng(43)
        f = FactoredPoint(random_point(60, 50, 3, rng))
        for _ in range(FOLD_STEPS - 1):
            i, j = int(rng.integers(60)), int(rng.integers(50))
            factored_step(f, i, j, rng.standard_normal((2, 3)), 1e-4)
        assert f.steps == [FOLD_STEPS - 1] * 2 and not np.array_equal(f.t[0], np.eye(3))
        factored_step(f, 0, 0, rng.standard_normal((2, 3)), 1e-4)
        for factor in (0, 1):
            assert_folded(f, factor)
            assert orthonormality_defect(f.bases[factor]) <= 1e-14


def fold_cases(k: int, rng: np.random.Generator):
    """(pivots, T', T'^-1) stacks of two factors, each with the decision it
    must get where the rule fixes it (None: seeded draws, whose least pivot
    straddles RANK_TOL and whose condition estimate straddles FOLD_COND)."""
    scale = np.sqrt(FOLD_COND / k)  # draws of ||T'|| ||T'^-1|| / k near FOLD_COND
    for _ in range(300):
        pivots = np.ones((2, k))
        pivots[:, -1] = RANK_TOL * np.exp(rng.uniform(-0.1, 1.0, 2))
        t = rng.standard_normal((2, k, k)) * scale * np.exp(rng.uniform(-0.5, 0.5, (2, 1, 1)))
        t_inv = rng.standard_normal((2, k, k)) * scale * np.exp(rng.uniform(-0.5, 0.5, (2, 1, 1)))
        yield pivots, t, t_inv, None
    eye = np.tile(np.eye(k), (2, 1, 1))
    ones = np.ones((2, k))
    # ||10 I||_F^2 ||10 I||_F^2 = (100 k)^2 = (FOLD_COND k)^2, exactly; a
    # relative 1e-12 more in one entry of factor 1 puts it past the bound.
    assert FOLD_COND == 100.0
    yield ones, 10.0 * eye, 10.0 * eye, [True, True]
    past = 10.0 * eye
    past[1, 0, 0] *= 1.0 + 1e-12
    yield ones, past, 10.0 * eye, [True, False]
    at_tol = np.ones((2, k))
    at_tol[0, -1] = RANK_TOL
    at_tol[1, 0] = np.nextafter(RANK_TOL, 1.0)
    yield at_tol, eye, eye, [False, True]
    # A NaN or inf entry in factor 1's T' or T'^-1 folds it, and so does a
    # NaN pivot; an inf pivot is not the least one.
    for bad in (np.nan, np.inf, -np.inf):
        for slot in range(3):
            arrays = [ones.copy(), eye.copy(), eye.copy()]
            arrays[slot][1, ..., 0] = bad
            yield (*arrays, [True, bad == np.inf] if slot == 0 else [True, False])
        inv_bad = eye.copy()
        inv_bad[1] = np.where(np.eye(k) == 1.0, bad, 0.0)
        yield ones, eye, inv_bad, [True, False]
        yield ones, np.zeros((2, k, k)), np.full((2, k, k), bad), [False, False]


class TestFoldRule:
    """The fold decision from one stacked reduction against the two
    separate reductions it replaced."""

    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_stacked_decision_matches_reference(self, k):
        rng = np.random.default_rng(70 + k)
        kept = folded = 0
        for pivots, t, t_inv, expected in fold_cases(k, rng):
            with np.errstate(all="ignore"):  # inf * 0 and inf - inf in the reference
                want = reference_fold_rule(pivots, t, t_inv).tolist()
                got = kept_updates(pivots, np.concatenate((t, t_inv)))
            assert got == want
            if expected is not None:
                assert got == expected
            kept, folded = kept + sum(got), folded + 2 - sum(got)
        assert kept > 100 and folded > 100


class TestAssemble:
    def test_identity_blocks(self):
        m, n, k = 5, 4, 2
        p = ProductPoint(np.eye(m)[:, :k], [3.0, -1.0], np.eye(n)[:, :k])
        out = assemble(p)
        expected = np.zeros((m, n))
        expected[0, 0], expected[1, 1] = 3.0, -1.0
        np.testing.assert_allclose(out, expected)

    def test_rank_one_hand_case(self):
        p = ProductPoint(np.array([[0.6], [0.8]]), [5.0], np.array([[1.0]]))
        np.testing.assert_allclose(assemble(p), [[3.0], [4.0]], atol=1e-14)

    def test_frobenius_norm_equals_x_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_point(8, 6, 3, rng)
            assert abs(np.linalg.norm(assemble(p)) - np.linalg.norm(p.x)) <= 1e-10


def test_geometry_property_sweep():
    # 200 random (point, tangent) pairs across sizes: orthonormality after
    # qf/retract, projection idempotence/self-adjointness, tangency.
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(2, 20))
        n = int(rng.integers(2, 20))
        k = int(rng.integers(1, min(m, n) + 1))
        p = random_point(m, n, k, rng)
        v = random_tangent(p, rng)
        assert orthonormality_defect(p.u) <= 1e-10
        assert orthonormality_defect(p.v) <= 1e-10
        assert tangent_defect(p.u, v.du) <= 1e-10
        assert tangent_defect(p.v, v.dv) <= 1e-10
        q = retract(p, v)
        assert orthonormality_defect(q.u) <= 1e-10
        assert orthonormality_defect(q.v) <= 1e-10
        w = project_tangent(p, v)
        assert (
            ProductTangent(w.du - v.du, w.dx - v.dx, w.dv - v.dv).norm() <= 1e-12
        )


def test_tangent_inner_is_bilinear_metric():
    rng = np.random.default_rng(11)
    p = random_point(7, 5, 2, rng)
    a = random_tangent(p, rng)
    b = random_tangent(p, rng)
    assert abs(a.inner(b) - b.inner(a)) <= 1e-12
    assert abs(a.scaled(2.0).inner(b) - 2.0 * a.inner(b)) <= 1e-12
    assert a.inner(a) >= 0.0
