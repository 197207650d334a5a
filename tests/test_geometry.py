import numpy as np
import pytest

import wlra.geometry
from wlra.errors import RankDeficient, ShapeMismatch
from wlra.geometry import (
    FOLD_STEPS,
    FactoredStiefel,
    ProductPoint,
    ProductTangent,
    assemble,
    orthonormality_defect,
    project_tangent,
    qf,
    retract,
    tangent_inner,
    tangent_project,
)

from helpers import random_point, random_stiefel, random_tangent, tangent_defect, zero_tangent


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
    """qf(U + s Pi_U(e_i a^T)), the step FactoredStiefel takes in factored form."""
    xi = np.zeros_like(u)
    xi[i] = a
    return qf(u + s * tangent_project(u, xi))


class TestFactoredStiefel:
    def test_steps_match_dense_retraction(self):
        # 2000 steps at m=500, k=8 against Householder QR of the full factor.
        rng = np.random.default_rng(40)
        u = random_stiefel(500, 8, rng)
        f = FactoredStiefel(u)
        worst = 0.0
        for step in range(2000):
            i, a, s = int(rng.integers(500)), rng.standard_normal(8), 0.5 / (step + 1)
            u = dense_row_step(u, i, a, s)
            f.step(i, a, s)
            worst = max(worst, float(np.abs(f.dense() - u).max()))
        assert worst <= 1e-13
        assert orthonormality_defect(f.dense()) <= 1e-13
        np.testing.assert_array_equal(f.row(17), f.base[17] @ f.t)

    def test_near_singular_m_folds(self):
        rng = np.random.default_rng(41)
        f = FactoredStiefel(random_stiefel(30, 4, rng))
        f.step(3, rng.standard_normal(4), 0.1)
        assert f.steps == 1 and not np.array_equal(f.t, np.eye(4))
        u, u_i, a = f.dense(), f.row(5), rng.standard_normal(4)
        # M = I - s (u_i a^T + a u_i^T) / 2 has the eigenvalue 1 - s beta with
        # beta = (u_i . a + |u_i| |a|) / 2; this s makes it zero, so T' = T M R^-1
        # is singular and the step folds to the dense retraction.
        beta = 0.5 * (u_i @ a + np.linalg.norm(u_i) * np.linalg.norm(a))
        f.step(5, a, 1.0 / beta)
        assert f.steps == 0
        np.testing.assert_array_equal(f.t, np.eye(4))
        assert np.abs(f.base - dense_row_step(u, 5, a, 1.0 / beta)).max() <= 1e-13
        assert orthonormality_defect(f.base) <= 1e-13

    def test_low_fold_threshold_folds_every_step(self, monkeypatch):
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)
        rng = np.random.default_rng(42)
        u = random_stiefel(40, 3, rng)
        f = FactoredStiefel(u)
        for step in range(50):
            i, a, s = int(rng.integers(40)), rng.standard_normal(3), 0.3
            u = dense_row_step(u, i, a, s)
            f.step(i, a, s)
            np.testing.assert_array_equal(f.t, np.eye(3))
            assert f.steps == 0
        np.testing.assert_allclose(f.base, u, rtol=0, atol=1e-13)

    def test_folds_after_fold_steps(self):
        rng = np.random.default_rng(43)
        f = FactoredStiefel(random_stiefel(60, 3, rng))
        for _ in range(FOLD_STEPS - 1):
            f.step(int(rng.integers(60)), rng.standard_normal(3), 1e-4)
        assert f.steps == FOLD_STEPS - 1 and not np.array_equal(f.t, np.eye(3))
        f.step(0, rng.standard_normal(3), 1e-4)
        assert f.steps == 0
        np.testing.assert_array_equal(f.t, np.eye(3))
        assert orthonormality_defect(f.base) <= 1e-14


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
    assert abs(tangent_inner(a, b) - tangent_inner(b, a)) <= 1e-12
    assert abs(tangent_inner(a.scaled(2.0), b) - 2.0 * tangent_inner(a, b)) <= 1e-12
    assert tangent_inner(a, a) >= 0.0
