import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import wlra.solvers
from wlra.data_io import problem_from_triplets, synth_lowrank
from wlra.errors import LambdaOutOfRange, ShapeMismatch
from wlra.geometry import ProductPoint
from wlra.model import FactorPair, ProblemData, confinement_euclidean, confinement_manifold
from wlra.solvers import Budget, SolverConfig, sgd_manifold
from wlra.step_policy import (
    DEFAULT_SIGMA,
    PolicyKind,
    StepPolicy,
    adaptive_A_B,
    compute_phi_min,
    compute_rho0,
    default_schedule,
    make_policy,
    phi_t,
    tilde_A_B_of_rho,
)
from wlra.svd_init import fill_missing_column_mean, truncated_svd_init

from helpers import random_point


def make_data(vals, m=2, n=2):
    nnz = len(vals)
    rows = np.arange(nnz) // n
    cols = np.arange(nnz) % n
    w = np.full(nnz, 1.0 / nnz)
    w[-1] = 1.0 - w[:-1].sum()
    return ProblemData(m=m, n=n, k=1, rows=rows, cols=cols, a_vals=vals, w_vals=w)


def full_data(m, n, k, seed, min_w=0.5):
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(np.ones((m, n)))
    a = rng.standard_normal(rows.size)
    w = min_w + rng.random(rows.size)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return ProblemData(m=m, n=n, k=k, rows=rows, cols=cols, a_vals=a, w_vals=w)


class TestAlpha:
    def test_max_of_squares(self):
        assert make_data([1.0, -3.0, 2.0], m=2, n=2).alpha == 9.0

    def test_all_zero(self):
        assert make_data([0.0, 0.0], m=1, n=2).alpha == 0.0

    def test_single_entry(self):
        assert make_data([5.0], m=1, n=1).alpha == 25.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cached_alpha_equals_max_of_squares(self, sign):
        # ProblemData squares the largest-magnitude value once; the largest
        # square is the same number, whichever sign that value has.
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(60) * 10.0 ** rng.integers(-150, 150, 60)
        vals[17] = sign * 2.0 * np.max(np.abs(vals))
        data = make_data(vals, m=6, n=10)
        assert data.alpha == float(np.max(data.a_vals**2))


class TestRho0:
    def test_manifold_floor_wins(self):
        assert compute_rho0(PolicyKind.MANIFOLD, 10.0, 9.0, 0.01) == 225.0

    def test_euclidean_init_wins(self):
        assert compute_rho0(PolicyKind.EUCLIDEAN, 1000.0, 9.0, 0.01) == 1000.0

    def test_positive_weights_formula(self):
        # alpha / (4 lam (1 - lam / w0)) with alpha=1, lam=0.5, w0=1
        val = compute_rho0(PolicyKind.POSITIVE_WEIGHTS, 0.0, 1.0, 0.5, w0=1.0)
        assert abs(val - 1.0) <= 1e-15

    def test_positive_weights_lambda_range(self):
        with pytest.raises(LambdaOutOfRange):
            compute_rho0(PolicyKind.POSITIVE_WEIGHTS, 0.0, 1.0, 1.0, w0=1.0)


class TestPhiMin:
    def test_manifold_reference_value(self):
        val = compute_phi_min(PolicyKind.MANIFOLD, 1.0, 1.0, 1.0, 1, 0.25)
        arm1 = (1.0 + 2.0 + 1.0) * 1.0
        arm2 = math.sqrt(32.0 + 8.0 * 3.0 * (0.5 + (math.pi**2 + 12.0) / 6.0))
        assert abs(val - max(arm1, arm2)) <= 1e-12
        assert abs(val - 11.4664) <= 1e-3

    def test_manifold_bounded_as_lambda_shrinks(self):
        vals = []
        for lam in (1e-2, 1e-4, 1e-6):
            rho0 = compute_rho0(PolicyKind.MANIFOLD, 0.0, 1.0, lam)
            vals.append(compute_phi_min(PolicyKind.MANIFOLD, 1.0, lam, 1.0, 1, rho0))
        assert max(vals) <= 2.0 * min(vals)

    def test_euclidean_grows_like_inverse_lambda(self):
        vals = []
        for lam in (1e-2, 1e-4, 1e-6):
            rho0 = compute_rho0(PolicyKind.EUCLIDEAN, 0.0, 1.0, lam)
            vals.append(compute_phi_min(PolicyKind.EUCLIDEAN, 1.0, lam, 1.0, 1, rho0))
        assert 50.0 <= vals[1] / vals[0] <= 200.0
        assert 50.0 <= vals[2] / vals[1] <= 200.0

    def test_positive_weights_bounded_as_w0_shrinks(self):
        vals = []
        for w0 in (1e-1, 1e-2, 1e-3):
            lam = w0 / 2.0
            rho0 = compute_rho0(PolicyKind.POSITIVE_WEIGHTS, 0.0, 1.0, lam, w0)
            vals.append(
                compute_phi_min(PolicyKind.POSITIVE_WEIGHTS, 1.0, lam, 1.0, 1, rho0, w0)
            )
        assert max(vals) <= 3.0 * min(vals)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_general_tail_continuous_at_default_schedule(self, kind):
        # The closed-form default tails must equal the general expressions
        # in c and sigma, so a sigma one ulp-scale off the default cannot
        # jump phi_min.
        args = (kind, 1.0, 0.1, 1.0, 3, 5.0, 0.5)
        default = compute_phi_min(*args)
        nudged = compute_phi_min(*args, sigma=DEFAULT_SIGMA * (1.0 + 1e-12))
        assert abs(nudged - default) <= 1e-9 * default


def scalar_policy(lam=0.5):
    return StepPolicy(
        kind=PolicyKind.MANIFOLD,
        lam=lam,
        a=1.0 / lam,
        b=1.0 / math.sqrt(lam),
        theta=1.0,
        phi_min=1.0,
        big_k=1.0,
        alpha=4.0,
        rho0=2.0,
    )


class TestAdaptive:
    def test_scalar_hand_case(self):
        data = ProblemData(m=1, n=1, k=1, rows=[0], cols=[0], a_vals=[2.0], w_vals=[1.0])
        p = ProductPoint(np.array([[1.0]]), [1.0], np.array([[1.0]]))
        a_t, b_t = adaptive_A_B(p, data, scalar_policy())
        assert abs(a_t - 1.0) <= 1e-14
        assert abs(b_t - 1.0) <= 1e-14

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_iterate_of_another_family_rejected(self, kind):
        data = full_data(5, 4, 2, seed=1)
        lam = None if kind is PolicyKind.POSITIVE_WEIGHTS else 0.1
        policy = make_policy(kind, data, 0.0, lam, 1.0)
        p = random_point(5, 4, 2, np.random.default_rng(0))
        wrong = p if kind is PolicyKind.EUCLIDEAN else FactorPair(p.u, p.v)
        with pytest.raises(ShapeMismatch):
            adaptive_A_B(wrong, data, policy)

    def test_A_vanishes_beyond_rho0(self):
        rng = np.random.default_rng(0)
        data = full_data(5, 4, 2, seed=1)
        lam = 0.1
        alpha = data.alpha
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, lam, 1.0)
        for _ in range(20):
            p = random_point(5, 4, 2, rng)
            scale = math.sqrt(1.5 * alpha / (4 * lam) / confinement_manifold(p))
            p = ProductPoint(p.u, p.x * scale, p.v)
            a_t, _ = adaptive_A_B(p, data, policy)
            assert a_t == 0.0

    def test_tilde_zero_branch(self):
        data = full_data(5, 4, 2, seed=2)
        lam = 0.1
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, lam, 1.0)
        rng = np.random.default_rng(3)
        p = random_point(5, 4, 2, rng)
        scale = math.sqrt(2.0 * policy.alpha / (4 * lam) / confinement_manifold(p))
        p = ProductPoint(p.u, p.x * scale, p.v)
        a_t, _ = tilde_A_B_of_rho(confinement_manifold(p), data.k, policy)
        assert a_t == 0.0

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_tilde_a_switches_off_at_rho0_floor(self, kind):
        # compute_rho0 and the tilde bound share one lam-based floor: A_t is
        # 0 from the floor up and positive one ulp below it.
        data = full_data(5, 4, 2, seed=6)
        lam = None if kind is PolicyKind.POSITIVE_WEIGHTS else 0.1
        policy = make_policy(kind, data, 0.0, lam, 1.0)
        floor = compute_rho0(kind, 0.0, policy.alpha, policy.lam, policy.w0)
        assert tilde_A_B_of_rho(floor, data.k, policy)[0] == 0.0
        assert tilde_A_B_of_rho(math.nextafter(floor, 0.0), data.k, policy)[0] > 0.0

    def test_tilde_hand_value_at_origin(self):
        data = make_data([1.0, 0.5], m=1, n=2)
        policy = StepPolicy(
            kind=PolicyKind.MANIFOLD, lam=0.25, a=4.0, b=1.0, theta=1.0,
            phi_min=1.0, big_k=1.0, alpha=1.0, rho0=1.0,
        )
        p = ProductPoint(np.array([[1.0]]), [0.0], np.array([[1.0], [0.0]]))
        _, b_t = tilde_A_B_of_rho(confinement_manifold(p), data.k, policy)
        assert abs(b_t - math.sqrt(32.0)) <= 1e-12

    @pytest.mark.parametrize("kind", [PolicyKind.MANIFOLD, PolicyKind.EUCLIDEAN, PolicyKind.POSITIVE_WEIGHTS])
    def test_tilde_dominates_exact(self, kind):
        rng = np.random.default_rng(4)
        m, n, k = 8, 6, 2
        data = full_data(m, n, k, seed=5)
        lam = None if kind is PolicyKind.POSITIVE_WEIGHTS else 0.05
        policy = make_policy(kind, data, 0.0, lam, 1.0)
        for _ in range(100):
            if kind is PolicyKind.EUCLIDEAN:
                it = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
                rho = confinement_euclidean(it)
            else:
                p = random_point(m, n, k, rng)
                it = ProductPoint(p.u, p.x * rng.uniform(0.1, 3.0), p.v)
                rho = confinement_manifold(it)
            a_t, b_t = adaptive_A_B(it, data, policy)
            at_t, bt_t = tilde_A_B_of_rho(rho, data.k, policy)
            assert at_t >= a_t - 1e-12
            assert bt_t >= b_t - 1e-12

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_tilde_within_phi_min_while_confined(self, kind):
        # The identity the SGD loop's gate rests on: with make_policy's
        # scales both bounds stay at or below phi_min / K for every
        # rho <= rho1 (pw at its default lam). The largest ratio, 1 + 4e-16,
        # is reached at rho = rho1.
        lams = [None] if kind is PolicyKind.POSITIVE_WEIGHTS else np.logspace(-7, 1, 9)
        worst = 0.0
        for lam, big_k, k, alpha, init_sq, spread in itertools.product(
            lams, (1.0, 1.5, 4.0), (1, 3, 10), (1e-4, 1.0, 25.0, 1e4),
            (0.0, 1.0, 1e3), (1.0, 100.0),
        ):
            rows, cols = np.nonzero(np.ones((k, k + 1)))
            a = np.full(rows.size, 0.5 * math.sqrt(alpha))
            a[0] = -math.sqrt(alpha)
            w = np.linspace(1.0, spread, rows.size)
            data = ProblemData(
                m=k, n=k + 1, k=k, rows=rows, cols=cols, a_vals=a, w_vals=w / w.sum()
            )
            policy = make_policy(kind, data, init_sq, lam, big_k)
            for rho in np.linspace(0.0, policy.rho1, 21):
                a_t, b_t = tilde_A_B_of_rho(float(rho), k, policy)
                worst = max(worst, a_t / policy.phi_min * big_k, b_t / policy.phi_min * big_k)
        assert worst <= 1.0 + 1e-12

    def test_tilde_dominates_exact_along_run(self, monkeypatch):
        # Runtime check of the paper's bound at every trace point of an
        # adaptive run; the points are the ones the trace costs are taken at.
        k = 8
        data = problem_from_triplets(synth_lowrank(500, 40, k, 0.3, 0.1, seed=0), k)
        init, _ = truncated_svd_init(fill_missing_column_mean(data), k)
        policy = make_policy(PolicyKind.MANIFOLD, data, confinement_manifold(init), 1e-2, 1.0)
        config = SolverConfig(
            kind=PolicyKind.MANIFOLD, policy=policy, budget=Budget(max_iterations=2000),
            seed=1, trace_every=100, adaptive=True,
        )
        points = []
        real_cost = wlra.solvers.cost_unregularized

        def capture(p, d):
            points.append(p)
            return real_cost(p, d)

        monkeypatch.setattr(wlra.solvers, "cost_unregularized", capture)
        sgd_manifold(init, data, config)
        assert len(points) == 21
        for p in points:
            a_t, b_t = adaptive_A_B(p, data, policy)
            at_t, bt_t = tilde_A_B_of_rho(confinement_manifold(p), data.k, policy)
            assert at_t >= a_t and bt_t >= b_t

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_blocked_equals_whole_support_formula(self, kind):
        # 9600 cells span several support blocks; outside positive-weights
        # mode some cells get zero weight and must be left out of the max.
        # A planted outlier puts both maxima at a block edge in turn.
        rng = np.random.default_rng(7)
        m, n, k = 120, 80, 3
        rows, cols = np.nonzero(np.ones((m, n)))
        a = rng.standard_normal(rows.size)
        w = 0.5 + rng.random(rows.size)
        if kind is not PolicyKind.POSITIVE_WEIGHTS:
            w[rng.random(rows.size) < 0.3] = 0.0
        w /= w.sum()
        if kind is PolicyKind.EUCLIDEAN:
            it = FactorPair(
                0.1 * rng.standard_normal((m, k)), 0.1 * rng.standard_normal((n, k))
            )
            pred = np.einsum("tk,tk->t", it.x[rows], it.y[cols])
        else:
            p = random_point(m, n, k, rng)
            it = ProductPoint(p.u, 0.1 * p.x, p.v)
            pred = np.einsum("tk,k,tk->t", it.u[rows], it.x, it.v[cols])
        sup = np.flatnonzero(w > 0)
        for pos in (0, 4095, 4096, sup.size - 1):
            planted = a.copy()
            planted[sup[pos]] = 50.0 * np.sign(pred[sup[pos]])
            data = ProblemData(
                m=m, n=n, k=k, rows=rows, cols=cols, a_vals=planted, w_vals=w
            )
            lam = None if kind is PolicyKind.POSITIVE_WEIGHTS else 0.05
            policy = make_policy(kind, data, 0.0, lam, 1.0)
            a_t, b_t = adaptive_A_B(it, data, policy)
            a_ref, b_ref = whole_support_A_B(kind, it, data, policy)
            assert a_t == a_ref and b_t == b_ref
            assert a_t > 0.0


def whole_support_A_B(kind, it, data, policy):
    """Reference for adaptive_A_B: the formulas over the whole support at once."""
    lam = policy.lam
    sup = data.support
    rows, cols, a, w = data.rows[sup], data.cols[sup], data.a_vals[sup], data.w_vals[sup]
    if kind is PolicyKind.EUCLIDEAN:
        p = np.einsum("tk,tk->t", it.x[rows], it.y[cols])
        rho = float(np.sum(it.x**2) + np.sum(it.y**2))
        r = a - p
        a_terms = 8.0 * r * p - 4.0 * lam * rho
        row_sq = np.sum(it.x[rows] ** 2, axis=1) + np.sum(it.y[cols] ** 2, axis=1)
        b_inner = 4.0 * (r**2 * row_sq + 4.0 * lam * r * p + lam**2 * rho)
        b_terms = np.sqrt(np.maximum(b_inner, 0.0))
    else:
        p = np.einsum("tk,k,tk->t", it.u[rows], it.x, it.v[cols])
        rho = confinement_manifold(it)
        if kind is PolicyKind.POSITIVE_WEIGHTS:
            r = a - (1.0 - lam / w) * p
        else:
            r = a - p
        a_terms = 4.0 * r * p - 4.0 * lam * rho
        mm = -r[:, None] * (it.u[rows] * it.v[cols]) + lam * it.x
        b_terms = np.sqrt(8.0 * np.sum(mm**2, axis=1))
    return max(0.0, float(a_terms.max())) / policy.a, float(b_terms.max()) / policy.b


class TestPhiT:
    def test_floor_is_phi_min(self):
        pol = scalar_policy()
        assert phi_t(pol, 0.0, 0.0, 5) == pol.phi_min

    def test_large_A_dominates(self):
        pol = scalar_policy()
        assert phi_t(pol, 2.0 * pol.phi_min, 0.0, 0) == 2.0 * pol.phi_min

    def test_schedule_term_never_exceeds_phi_min_with_standard_theta(self):
        data = full_data(5, 4, 2, seed=6)
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, 0.05, 1.0)
        for t in range(200):
            assert policy.schedule(t) / policy.theta <= policy.phi_min + 1e-12
            assert phi_t(policy, 0.0, 0.0, t) >= policy.phi_min


class TestPolicyAssembly:
    def test_rho1_recomputes_from_parts(self):
        data = full_data(5, 4, 2, seed=7)
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.3, 0.05, 2.0)
        expected = policy.rho0 + policy.c * policy.a + policy.b**2 * policy.sigma / 2.0
        assert policy.rho1 == expected
        assert policy.rho1 > policy.rho0 > 0.0

    def test_standard_scale_choices(self):
        data = full_data(5, 4, 2, seed=8)
        lam = 0.02
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, lam, 1.0)
        assert policy.a == 1.0 / lam
        assert policy.b == 1.0 / math.sqrt(lam)
        assert policy.theta == policy.c / policy.phi_min
        assert policy.sigma == DEFAULT_SIGMA
        assert policy.schedule is default_schedule

    def test_pw_scale_choices_default_lambda(self):
        data = full_data(5, 4, 2, seed=9)
        policy = make_policy(PolicyKind.POSITIVE_WEIGHTS, data, 0.0, None, 1.0)
        w0 = float(data.w_vals.min())
        assert policy.lam == w0 / 2.0
        assert policy.a == 1.0 / w0
        assert policy.b == 1.0 / math.sqrt(w0)

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_nan_lambda_rejected(self, kind):
        data = full_data(5, 4, 2, seed=11)
        with pytest.raises(LambdaOutOfRange):
            make_policy(kind, data, 0.0, math.nan, 1.0)

    @pytest.mark.parametrize(
        "kind, lam",
        [(PolicyKind.EUCLIDEAN, 1e-160), (PolicyKind.EUCLIDEAN, 1e-300),
         (PolicyKind.EUCLIDEAN, 1e160), (PolicyKind.MANIFOLD, 1e160),
         (PolicyKind.MANIFOLD, 1e300)],
    )
    def test_lambda_overflowing_phi_min_refused_by_name(self, kind, lam):
        # float ** raised OverflowError here; the products overflow to inf
        data = full_data(5, 4, 2, seed=13)
        with pytest.raises(LambdaOutOfRange, match=re.escape(f"lambda={lam!r} gives phi_min=inf")):
            make_policy(kind, data, 0.0, lam, 1.0)

    def test_tiny_manifold_lambda_still_valid(self):
        data = full_data(5, 4, 2, seed=14)
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, 1e-300, 1.0)
        assert 0 < policy.theta and policy.phi_min < math.inf

    def test_nan_k_rejected(self):
        data = full_data(5, 4, 2, seed=12)
        with pytest.raises(LambdaOutOfRange):
            make_policy(PolicyKind.MANIFOLD, data, 0.0, 0.05, math.nan)

    @pytest.mark.parametrize("field", ["lam", "a", "b", "theta", "phi_min", "big_k"])
    def test_nan_scalar_rejected(self, field):
        with pytest.raises(LambdaOutOfRange):
            dataclasses.replace(scalar_policy(), **{field: math.nan})

    def test_k_below_one_rejected(self):
        data = full_data(5, 4, 2, seed=10)
        with pytest.raises(LambdaOutOfRange):
            make_policy(PolicyKind.MANIFOLD, data, 0.0, 0.05, 0.5)
