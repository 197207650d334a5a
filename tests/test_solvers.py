import dataclasses
import math
import re
import time
import warnings
from functools import partial

import numpy as np
import pytest

import wlra.geometry
import wlra.model
import wlra.solvers
import wlra.step_policy
from wlra.cli import IOTA_PRESETS
from wlra.data_io import problem_from_triplets, synth_lowrank
from wlra.errors import (
    BacktrackLimit,
    InitNotConfined,
    LambdaOutOfRange,
    RankDeficient,
    ShapeMismatch,
)
from wlra.geometry import (
    FOLD_STEPS,
    NEAR_TOL,
    ORTHO_TOL,
    FactoredPoint,
    ProductPoint,
    orthonormality_defect,
    retract,
)
from wlra.model import (
    CdfSampler,
    FactorPair,
    ProblemData,
    ScaledPair,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    full_grad_euclidean,
    full_grad_manifold,
    sample_index,
)
from wlra.solvers import (
    MAX_BACKTRACKS,
    ArmijoParams,
    Budget,
    SolverConfig,
    als_euclidean,
    als_manifold,
    als_pw,
    armijo_step,
    sgd_euclidean,
    sgd_manifold,
    sgd_pw,
)
from wlra.step_policy import (
    BOUND_GATE_MARGIN,
    EMPTY_RHO,
    PolicyKind,
    make_policy,
    settled_rho,
    tilde_A_B_of_rho,
)
from wlra.svd_init import fill_missing_column_mean, truncated_svd_init

from helpers import (
    assemble,
    dense,
    dense_stoch_grad_euclidean,
    dense_stoch_grad_manifold,
    dense_stoch_grad_pw,
    householder_qf,
    random_point,
    reference_update,
    regularized_cost,
)

# Final cost of the acceptance criterion-8 run recorded with the earlier
# hand-written kernels (one-sided Jacobi SVD, Gram-Schmidt QR).
CRITERION_8_FINAL_COST = 0.13114043729387467
# Final cost of the sgd_euclidean pin run below, recorded when samples were
# still passed as (i, j) pairs and looked up by cell.
SGD_EUCLIDEAN_PIN_FINAL_COST = 0.1880608714509634
# Final cost of the sgd_pw pin run below, recorded with inverse-CDF draws. Its
# spread weights drew another sequence from a Walker alias table, which gave
# 0.007441027302973417; the same code replaying that table's draws lands there.
SGD_PW_PIN_FINAL_COST = 0.00745607623446469
# Final costs of the als_manifold and als_euclidean pin runs below, recorded
# when the full gradients still scattered with np.add.at.
ALS_MANIFOLD_PIN_FINAL_COST = 0.06175735970320347
ALS_EUCLIDEAN_PIN_FINAL_COST = 0.010616609723167464
# Final cost of the als_pw pin run below, recorded when full_grad_pw still
# formed the dense Hadamard product W . (A - P).
ALS_PW_PIN_FINAL_COST = 0.006828671870361145
# Largest entrywise difference allowed between the factored SGD iterate and
# a loop of retract(dense_stoch_grad_*) steps; measured 5.8e-15 to 1.3e-14.
LAZY_VS_DENSE_TOL = 1e-13


def observed_instance(m, n, k, density, seed, full=False):
    rng = np.random.default_rng(seed)
    if full:
        rows, cols = np.nonzero(np.ones((m, n)))
    else:
        nnz = max(k + 1, int(density * m * n))
        flat = rng.choice(m * n, size=nnz, replace=False)
        rows, cols = flat // n, flat % n
    a = rng.standard_normal(rows.size)
    w = np.full(rows.size, 1.0 / rows.size)
    w[-1] = 1.0 - w[:-1].sum()
    return ProblemData(m=m, n=n, k=k, rows=rows, cols=cols, a_vals=a, w_vals=w)


def manifold_setup(data, lam, seed, iters, **kw):
    rng = np.random.default_rng(seed)
    init = random_point(data.m, data.n, data.k, rng)
    policy = make_policy(
        PolicyKind.MANIFOLD, data, confinement_manifold(init), lam, 1.0
    )
    config = SolverConfig(
        kind=PolicyKind.MANIFOLD,
        policy=policy,
        budget=Budget(max_iterations=iters),
        seed=seed,
        **kw,
    )
    return init, policy, config


def dense_sgd_reference(init, data, config, grad_fn):
    """The SGD loop with `retract` of the dense stochastic gradient."""
    policy = config.policy
    rng = np.random.default_rng(config.seed)
    p = init
    for t in range(config.budget.max_iterations):
        s = sample_index(data, rng)
        p = retract(p, grad_fn(p, s).scaled(-policy.schedule(t) / policy.phi_min))
    return p


def assert_close_to_dense(final, reference):
    for got, want in ((final.u, reference.u), (final.v, reference.v)):
        assert np.abs(got - want).max() <= LAZY_VS_DENSE_TOL
        assert orthonormality_defect(got) <= 1e-13
    assert np.abs(final.x - reference.x).max() <= LAZY_VS_DENSE_TOL * np.abs(reference.x).max()


def criterion_8_setup(iters=10000):
    data = problem_from_triplets(synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0), 3)
    point0, _ = truncated_svd_init(fill_missing_column_mean(data), 3)
    policy = make_policy(
        PolicyKind.MANIFOLD, data, confinement_manifold(point0), 1e-4, 1.0,
        schedule=lambda t: (t + 1.0) ** -0.6, c=1.0, sigma=5.5915824411777519,
    )
    config = SolverConfig(
        kind=PolicyKind.MANIFOLD, policy=policy,
        budget=Budget(max_iterations=iters), seed=2024, trace_every=10,
    )
    return point0, data, config


def svd_setup(m, n, k, iters, seed=5, lam=1e-2):
    data = problem_from_triplets(synth_lowrank(m, n, k, 0.3, 0.1, seed=0), k)
    point0, _ = truncated_svd_init(fill_missing_column_mean(data), k)
    policy = make_policy(PolicyKind.MANIFOLD, data, confinement_manifold(point0), lam, 1.0)
    config = SolverConfig(
        kind=PolicyKind.MANIFOLD, policy=policy,
        budget=Budget(max_iterations=iters), seed=seed, trace_every=100,
    )
    return point0, data, config


def pw_setup(iters):
    """The instance of the sgd_pw pin run, from its SVD init."""
    tm = synth_lowrank(30, 20, 3, 1.0, 0.1, seed=1)
    raw = 0.1 + 9.9 * np.random.default_rng(5).random(tm.nnz)
    data = problem_from_triplets(tm, 3, weights=raw)
    init, _ = truncated_svd_init(fill_missing_column_mean(data), 3)
    policy = make_policy(
        PolicyKind.POSITIVE_WEIGHTS, data, confinement_manifold(init), None, 1.0
    )
    config = SolverConfig(
        kind=PolicyKind.POSITIVE_WEIGHTS, policy=policy,
        budget=Budget(max_iterations=iters), seed=7,
    )
    return init, data, config


def counting(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls."""
    calls = []
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestFactoredSgd:
    """The manifold SGD steps in factored form; a loop of dense steps is the oracle."""

    @pytest.mark.parametrize("instance", ["m500_k8", "criterion_8"])
    def test_matches_dense_steps(self, instance):
        if instance == "m500_k8":
            init, data, config = svd_setup(500, 40, 8, iters=2000)
        else:
            init, data, config = criterion_8_setup()
        lam = config.policy.lam
        final, _ = sgd_manifold(init, data, config)
        reference = dense_sgd_reference(
            init, data, config, lambda p, s: dense_stoch_grad_manifold(p, s, data, lam)
        )
        assert np.abs(final.u - init.u).max() > 1e-2  # the iterate did move
        assert_close_to_dense(final, reference)

    def test_pw_matches_dense_steps(self):
        init, data, config = pw_setup(iters=2000)
        policy = config.policy
        final, _ = sgd_pw(init, data, config)
        reference = dense_sgd_reference(
            init, data, config, lambda p, s: dense_stoch_grad_pw(p, s, data, policy.lam)
        )
        assert_close_to_dense(final, reference)

    @pytest.mark.parametrize("fold_cond", ["default", "zero"])
    @pytest.mark.parametrize("algorithm", ["manifold", "pw"])
    def test_stacked_fold_test_matches_reference_update(self, monkeypatch, algorithm, fold_cond):
        # 2500 steps cross FOLD_STEPS twice; with FOLD_COND = 0 every step
        # folds. Runs through the reference copy of the update, with its two
        # separate norm reductions, give the same iterates and trace bit for bit.
        if fold_cond == "zero":
            monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)
        if algorithm == "pw":
            (init, data, config), solver = pw_setup(2500), sgd_pw
            config = dataclasses.replace(config, trace_every=100)
        else:
            (init, data, config), solver = svd_setup(60, 30, 4, iters=2500), sgd_manifold
        folds = counting(monkeypatch, wlra.geometry, "qf")
        got = run_key(*solver(init, data, config))
        assert len(folds) >= (2 * 2500 if fold_cond == "zero" else 4)
        monkeypatch.setattr(FactoredPoint, "_update", reference_update)
        assert run_key(*solver(init, data, config)) == got

    def test_forced_cholesky_failures_fold(self, monkeypatch):
        init, data, config = svd_setup(60, 30, 4, iters=300)
        lam = config.policy.lam
        reference = dense_sgd_reference(
            init, data, config, lambda p, s: dense_stoch_grad_manifold(p, s, data, lam)
        )
        real = np.linalg.cholesky
        factorizations, grams = [], []

        def every_seventh_batched_fails(g):
            if g.ndim == 2:  # the k-by-k Gram matrix of a fold's `qf`
                grams.append(1)
                return real(g)
            factorizations.append(1)
            if len(factorizations) % 7 == 0:
                raise np.linalg.LinAlgError("forced")
            return real(g)

        monkeypatch.setattr(np.linalg, "cholesky", every_seventh_batched_fails)
        qr_calls = counting(monkeypatch, wlra.geometry, "qf")
        retracts = counting(monkeypatch, wlra.solvers, "retract")
        final, _ = sgd_manifold(init, data, config)
        assert len(retracts) == 0
        # One batched factorization per step; a failure does not name the
        # factor, so U and V both fold.
        assert len(factorizations) == 300
        assert len(qr_calls) == 2 * (len(factorizations) // 7) and len(qr_calls) > 60
        # a folded factor is near-orthonormal, so each fold's `qf` takes Cholesky-QR
        assert len(grams) == len(qr_calls)
        assert_close_to_dense(final, reference)

    def test_near_singular_m_takes_dense_fallback(self, monkeypatch):
        init, data, config = svd_setup(60, 30, 4, iters=300)
        lam = config.policy.lam
        reference = dense_sgd_reference(
            init, data, config, lambda p, s: dense_stoch_grad_manifold(p, s, data, lam)
        )
        real_step, real_update = FactoredPoint.step, FactoredPoint._update
        stepped, singular, refused = [], [], []

        def singular_m_on_step_100(self, i, j, grad, s):
            # On one step, hand the Cholesky-QR update of U the M of the s that
            # makes it singular; the update must be refused for U and U must
            # fold to the dense retraction with the true s instead.
            stepped.append(1)
            if len(stepped) == 100:
                rows, a, _ = grad
                singular.append((rows[0], a[0]))
                real_step(self, i, j, grad, s)
                assert not singular  # the update was tried
                assert self.steps[0] == 0
                np.testing.assert_array_equal(self.t[0], np.eye(len(a[0])))
            else:
                real_step(self, i, j, grad, s)

        def update(self, tm, m, w, q):
            if singular:
                u_i, a = singular.pop()
                s = 2.0 / (u_i @ a + np.linalg.norm(u_i) * np.linalg.norm(a))
                b = u_i[:, None] * a
                tm, m, w, q = tm.copy(), m.copy(), w.copy(), q.copy()
                m[0] = np.eye(len(a)) - 0.5 * s * (b + b.T)
                tm[0] = self.t[0] @ m[0]
                w[0] = u_i @ m[0]
                q[0] = w[0] + s * a
                try:
                    result = real_update(self, tm, m, w, q)
                except np.linalg.LinAlgError:
                    refused.append(True)
                    raise
                refused.append(not result[2][0])
                return result
            return real_update(self, tm, m, w, q)

        monkeypatch.setattr(FactoredPoint, "step", singular_m_on_step_100)
        monkeypatch.setattr(FactoredPoint, "_update", update)
        final, _ = sgd_manifold(init, data, config)
        assert len(stepped) == 300 and refused == [True]
        assert_close_to_dense(final, reference)

    def test_low_fold_threshold_refolds(self, monkeypatch):
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)
        init, data, config = svd_setup(60, 30, 4, iters=300)
        lam = config.policy.lam
        qr_calls = counting(monkeypatch, wlra.geometry, "qf")
        final, _ = sgd_manifold(init, data, config)
        assert len(qr_calls) == 2 * 300  # both factors, every step
        reference = dense_sgd_reference(
            init, data, config, lambda p, s: dense_stoch_grad_manifold(p, s, data, lam)
        )
        assert_close_to_dense(final, reference)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_one_gradient_call_per_step(self, monkeypatch, adaptive):
        # The factored step takes its rows from the per-sample gradient, so
        # each step calls it once, folds included.
        init, data, config = svd_setup(60, 30, 4, iters=300)
        config = dataclasses.replace(config, adaptive=adaptive)
        grads = counting(monkeypatch, wlra.solvers, "stoch_grad_manifold")
        sgd_manifold(init, data, config)
        assert len(grads) == 300
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)  # every step folds
        grads.clear()
        sgd_manifold(init, data, config)
        assert len(grads) == 300

    @pytest.mark.parametrize("solver", ["manifold", "pw"])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_trace_points_build_no_view(self, monkeypatch, solver, adaptive):
        # Trace points price the factored state; the one point built is the
        # returned one.
        if solver == "manifold":
            init, data, config = svd_setup(60, 30, 4, iters=300)
        else:
            init, data, config = pw_setup(300)
        config = dataclasses.replace(config, adaptive=adaptive, trace_every=10)
        views = counting(monkeypatch, FactoredPoint, "point")
        built = counting(monkeypatch, ProductPoint, "__post_init__")
        costs = counting(monkeypatch, wlra.solvers, "cost_unregularized")
        final, trace = (sgd_manifold if solver == "manifold" else sgd_pw)(init, data, config)
        assert len(trace.records) == len(costs) == 31
        assert len(views) == 1 and len(built) == 1
        assert final is not init

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_one_row_read_per_step(self, monkeypatch, adaptive):
        # The gradient reads row i of U and row j of V once, and the step
        # reuses them; folds read none.
        init, data, config = svd_setup(60, 30, 4, iters=300)
        config = dataclasses.replace(config, adaptive=adaptive)
        reads = counting(monkeypatch, FactoredPoint, "rows")
        sgd_manifold(init, data, config)
        assert len(reads) == 300
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)  # every step folds
        reads.clear()
        sgd_manifold(init, data, config)
        assert len(reads) == 300

    def test_pw_one_gradient_call_per_step(self, monkeypatch):
        init, data, config = pw_setup(iters=300)
        grads = counting(monkeypatch, wlra.solvers, "stoch_grad_pw")
        sgd_pw(init, data, config)
        assert len(grads) == 300
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 0.0)
        grads.clear()
        sgd_pw(init, data, config)
        assert len(grads) == 300

    @pytest.mark.parametrize("m", [500, 5000])
    def test_full_qr_only_at_folds(self, monkeypatch, m):
        # Per-step work independent of m: with no fallback and cond(T) small,
        # the only full-factor QRs are the periodic folds of U and V.
        init, data, config = svd_setup(m, 40, 8, iters=2 * FOLD_STEPS + 100)
        qr_calls = counting(monkeypatch, wlra.geometry, "qf")
        retracts = counting(monkeypatch, wlra.solvers, "retract")
        sgd_manifold(init, data, config)
        assert len(retracts) == 0
        assert len(qr_calls) == 2 * 2


class TestSgdManifold:
    def test_one_step_composition_oracle(self):
        data = observed_instance(10, 8, 2, 0.4, seed=1)
        lam = 1e-2
        init, policy, config = manifold_setup(data, lam, seed=7, iters=1, trace_every=1)
        final, _ = sgd_manifold(init, data, config)
        rng = np.random.default_rng(7)
        t0 = sample_index(data, rng)
        g0 = dense_stoch_grad_manifold(init, t0, data, lam)
        expected = retract(init, g0.scaled(-policy.schedule(0) / policy.phi_min))
        # The solver retracts by Cholesky-QR of a k-by-k Gram matrix, the
        # oracle by Householder QR of the full factors: equal up to round-off.
        np.testing.assert_allclose(final.u, expected.u, rtol=1e-13, atol=1e-15)
        assert np.array_equal(final.x, expected.x)
        np.testing.assert_allclose(final.v, expected.v, rtol=1e-13, atol=1e-15)

    def test_seeded_determinism(self):
        data = observed_instance(10, 8, 2, 0.4, seed=2)
        init, policy, config = manifold_setup(data, 1e-2, seed=3, iters=200, trace_every=10)
        f1, t1 = sgd_manifold(init, data, config)
        f2, t2 = sgd_manifold(init, data, config)
        # identical apart from wall-clock timestamps
        strip = lambda tr: [r._replace(elapsed_seconds=0.0) for r in tr.records]
        assert strip(t1) == strip(t2)
        assert np.array_equal(f1.u, f2.u) and np.array_equal(f1.x, f2.x)

    def test_trajectory_confined(self):
        data = observed_instance(20, 10, 2, 0.5, seed=4)
        init, policy, config = manifold_setup(
            data, 1e-2, seed=5, iters=5000, trace_every=1, record_rho=True
        )
        _, trace = sgd_manifold(init, data, config)
        rhos = np.array([r.rho for r in trace.records])
        assert np.all(rhos < policy.rho1)

    def test_unconfined_init_rejected(self):
        data = observed_instance(10, 8, 2, 0.4, seed=6)
        rng = np.random.default_rng(6)
        init = random_point(10, 8, 2, rng)
        policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, 10.0, 1.0)
        big = ProductPoint(init.u, init.x * (10 * math.sqrt(policy.rho0 + 1)), init.v)
        config = SolverConfig(
            kind=PolicyKind.MANIFOLD, policy=policy,
            budget=Budget(max_iterations=1), seed=0,
        )
        with pytest.raises(InitNotConfined):
            sgd_manifold(big, data, config)

    def test_adaptive_mode_confined_and_records_phi(self):
        data = observed_instance(12, 8, 2, 0.4, seed=8)
        init, policy, config = manifold_setup(
            data, 1e-2, seed=9, iters=500, trace_every=1, adaptive=True, record_rho=True
        )
        _, trace = sgd_manifold(init, data, config)
        phis = [r.phi for r in trace.records if r.phi is not None]
        assert all(p >= policy.phi_min for p in phis)
        assert all(r.rho < policy.rho1 for r in trace.records)

    def test_iteration_budget_exact(self):
        data = observed_instance(10, 8, 2, 0.4, seed=10)
        init, _, config = manifold_setup(data, 1e-2, seed=11, iters=137, trace_every=1)
        _, trace = sgd_manifold(init, data, config)
        assert trace.records[0].t == 0
        assert trace.records[-1].t == 137
        assert len(trace.records) == 138

    def test_time_budget_stops_at_first_late_trace_point(self):
        data = observed_instance(10, 8, 2, 0.4, seed=12)
        rng = np.random.default_rng(13)
        init = random_point(10, 8, 2, rng)
        policy = make_policy(
            PolicyKind.MANIFOLD, data, confinement_manifold(init), 1e-2, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.MANIFOLD, policy=policy,
            budget=Budget(max_seconds=1e-9), seed=13, trace_every=25,
        )
        _, trace = sgd_manifold(init, data, config)
        assert [r.t for r in trace.records] == [0, 25]

    def test_no_global_rng_use(self):
        data = observed_instance(10, 8, 2, 0.4, seed=14)
        init, _, config = manifold_setup(data, 1e-2, seed=15, iters=50, trace_every=10)
        np.random.seed(424242)
        before = np.random.get_state()[1].copy()
        sgd_manifold(init, data, config)
        after = np.random.get_state()[1]
        assert np.array_equal(before, after)


    def test_criterion_8_trajectory_pinned_and_sign_invariant(self):
        point0, data, config = criterion_8_setup()
        _, trace = sgd_manifold(point0, data, config)
        final = trace.costs[-1]
        assert abs(final - CRITERION_8_FINAL_COST) <= 1e-10 * CRITERION_8_FINAL_COST
        # Flipping a singular pair (u_j, v_j) leaves the iterate's matrix
        # unchanged, and qf(C D) = qf(C) D for a diagonal sign matrix D, so
        # the trace does not depend on the signs the SVD returns.
        flip = np.array([1.0, -1.0, 1.0])
        flipped = ProductPoint(point0.u * flip, point0.x, point0.v * flip)
        _, trace_flipped = sgd_manifold(flipped, data, config)
        np.testing.assert_allclose(trace_flipped.costs, trace.costs, rtol=1e-12, atol=0)


class TestSgdEuclidean:
    def setup_pair(self, data, seed, scale=0.5):
        rng = np.random.default_rng(seed)
        return FactorPair(
            scale * rng.standard_normal((data.m, data.k)),
            scale * rng.standard_normal((data.n, data.k)),
        )

    def test_one_step_composition_oracle(self):
        data = observed_instance(9, 7, 2, 0.4, seed=16)
        lam = 1e-2
        init = self.setup_pair(data, 17)
        policy = make_policy(
            PolicyKind.EUCLIDEAN, data, confinement_euclidean(init), lam, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.EUCLIDEAN, policy=policy,
            budget=Budget(max_iterations=1), seed=18, trace_every=1,
        )
        final, _ = sgd_euclidean(init, data, config)
        rng = np.random.default_rng(18)
        t0 = sample_index(data, rng)
        g0 = dense_stoch_grad_euclidean(init, t0, data, lam)
        expected = init.add_scaled(g0, -policy.schedule(0) / policy.phi_min)
        # The solver shrinks a shared scale and moves two rows, the oracle
        # adds the dense step: equal up to round-off.
        np.testing.assert_allclose(final.x, expected.x, rtol=1e-13, atol=0)
        np.testing.assert_allclose(final.y, expected.y, rtol=1e-13, atol=0)

    def test_trajectory_confined(self):
        lam = 1e-2
        data = observed_instance(20, 10, 2, 0.5, seed=19)
        init = self.setup_pair(data, 20)
        policy = make_policy(
            PolicyKind.EUCLIDEAN, data, confinement_euclidean(init), lam, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.EUCLIDEAN, policy=policy,
            budget=Budget(max_iterations=5000), seed=21, trace_every=1, record_rho=True,
        )
        _, trace = sgd_euclidean(init, data, config)
        ceiling = policy.rho0 + (math.pi**2 + 12.0) / (12.0 * lam)
        assert all(r.rho <= ceiling for r in trace.records)

    def test_contracts_on_zero_data_with_large_lambda(self):
        m, n, k = 6, 5, 2
        rows, cols = np.nonzero(np.ones((m, n)))
        w = np.full(rows.size, 1.0 / rows.size)
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=m, n=n, k=k, rows=rows, cols=cols,
            a_vals=np.zeros(rows.size), w_vals=w,
        )
        init = self.setup_pair(data, 22, scale=0.05)
        policy = make_policy(
            PolicyKind.EUCLIDEAN, data, confinement_euclidean(init), 10.0, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.EUCLIDEAN, policy=policy,
            budget=Budget(max_iterations=2000), seed=23, trace_every=50, record_rho=True,
        )
        _, trace = sgd_euclidean(init, data, config)
        rhos = np.array([r.rho for r in trace.records])
        assert np.all(np.diff(rhos) <= 1e-15)
        assert rhos[-1] < 0.5 * rhos[0]

    def test_trajectory_pinned(self):
        data = problem_from_triplets(synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0), 3)
        _, pair0 = truncated_svd_init(fill_missing_column_mean(data), 3)
        policy = make_policy(
            PolicyKind.EUCLIDEAN, data, confinement_euclidean(pair0), 1e-2, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.EUCLIDEAN, policy=policy,
            budget=Budget(max_iterations=2000), seed=3, trace_every=10,
        )
        _, trace = sgd_euclidean(pair0, data, config)
        pin = SGD_EUCLIDEAN_PIN_FINAL_COST
        assert abs(trace.costs[-1] - pin) <= 1e-10 * pin


EUCLIDEAN_INSTANCES = {
    # m, n, k, observed fraction of synth_lowrank(..., seed=0)
    "pinned": (50, 20, 3, 0.4),  # the instance of TestSgdEuclidean::test_trajectory_pinned
    "m500_k8": (500, 40, 8, 0.3),
    "m5000_k8": (5000, 40, 8, 0.3),
}


def euclidean_setup(instance, iters, trace_every=10, **kw):
    """An sgd_euclidean run from the SVD init, lam = 1e-2, seed 3."""
    m, n, k, density = EUCLIDEAN_INSTANCES[instance]
    data = problem_from_triplets(synth_lowrank(m, n, k, density, 0.1, seed=0), k)
    _, pair0 = truncated_svd_init(fill_missing_column_mean(data), k)
    policy = make_policy(PolicyKind.EUCLIDEAN, data, confinement_euclidean(pair0), 1e-2, 1.0)
    config = SolverConfig(
        kind=PolicyKind.EUCLIDEAN, policy=policy,
        budget=Budget(max_iterations=iters), seed=3, trace_every=trace_every, **kw,
    )
    return pair0, data, config


class DensePair:
    """A Euclidean SGD state stepped densely, f + s dense_stoch_grad_euclidean(f)."""

    def __init__(self, f):
        self.f = f

    x = property(lambda self: self.f.x)
    y = property(lambda self: self.f.y)

    def factors(self):
        return self.f.factors()

    def step(self, i, j, grad, s):
        self.f = self.f.add_scaled(grad, s)


def dense_euclidean_run(init, data, config):
    """The SGD loop on a DensePair: the oracle of the ScaledPair steps."""
    lam = config.policy.lam
    return wlra.solvers._run_sgd(
        DensePair(init),
        data,
        config,
        grad_fn=lambda state, t: dense_stoch_grad_euclidean(state.f, t, data, lam),
        view_fn=lambda state: state.f,
        rho_fn=lambda state: confinement_euclidean(state.f),
    )


def recording_folds(monkeypatch):
    """Wrap ScaledPair.step; returns the list of 1-based steps that folded."""
    folds, steps = [], []
    real = ScaledPair.step

    def step(self, *args):
        real(self, *args)
        steps.append(1)
        if self.scale == 1.0:
            folds.append(len(steps))

    monkeypatch.setattr(ScaledPair, "step", step)
    return folds


def assert_pair_close_to_dense(final, reference):
    for got, want in ((final.x, reference.x), (final.y, reference.y)):
        assert np.abs(got - want).max() <= LAZY_VS_DENSE_TOL * np.abs(want).max()


class TestScaledPairSgd:
    """Euclidean SGD on the shared-scale pair; the dense loop is the oracle."""

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("instance", ["m500_k8", "pinned"])
    def test_matches_dense_steps(self, instance, adaptive):
        init, data, config = euclidean_setup(instance, iters=2000, adaptive=adaptive)
        final, _ = sgd_euclidean(init, data, config)
        reference, _ = dense_euclidean_run(init, data, config)
        assert np.abs(final.x - init.x).max() > 1e-5  # the iterate did move
        assert_pair_close_to_dense(final, reference)

    @pytest.mark.parametrize("two_eta_lam", [1.0, 2.0])
    def test_degenerate_shrink_takes_dense_step(self, monkeypatch, two_eta_lam):
        # lam = 1/2 and phi_min = 1 / (2 eta_0 lam) make the first shrink
        # 1 - 2 eta_0 lam exactly 0 or -1; at 2, the second shrink is 0 too.
        data = observed_instance(9, 7, 2, 0.4, seed=16)
        rng = np.random.default_rng(17)
        init = FactorPair(0.5 * rng.standard_normal((9, 2)), 0.5 * rng.standard_normal((7, 2)))
        policy = make_policy(PolicyKind.EUCLIDEAN, data, confinement_euclidean(init), 0.5, 1.0)
        config = SolverConfig(
            kind=PolicyKind.EUCLIDEAN,
            policy=dataclasses.replace(policy, phi_min=1.0 / two_eta_lam),
            budget=Budget(max_iterations=6), seed=18, trace_every=1,
        )
        reference, _ = dense_euclidean_run(init, data, config)
        folds = recording_folds(monkeypatch)
        grads = counting(monkeypatch, wlra.solvers, "stoch_grad_euclidean")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            final, _ = sgd_euclidean(init, data, config)
        assert folds == list(range(1, int(two_eta_lam) + 1))  # the steps with 2 eta lam >= 1
        assert len(grads) == 6
        assert_pair_close_to_dense(final, reference)

    def test_low_fold_scale_folds_mid_run(self, monkeypatch):
        # The scale shrinks to about 1 - 2.7e-5 over the 2000 steps, so it
        # passes 1 - 1e-5 a few times, each time some steps into the run.
        monkeypatch.setattr(wlra.model, "FOLD_SCALE", 1.0 - 1e-5)
        init, data, config = euclidean_setup("pinned", iters=2000)
        reference, _ = dense_euclidean_run(init, data, config)
        grads = counting(monkeypatch, wlra.solvers, "stoch_grad_euclidean")
        folds = recording_folds(monkeypatch)
        final, _ = sgd_euclidean(init, data, config)
        assert 2 <= len(folds) <= 5 and folds[0] > 2
        assert len(grads) == 2000
        assert_pair_close_to_dense(final, reference)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_no_dense_work_per_step(self, monkeypatch, adaptive):
        init, data, config = euclidean_setup("m5000_k8", iters=2000, adaptive=adaptive)
        dense_steps = counting(monkeypatch, FactorPair, "add_scaled")
        grads = counting(monkeypatch, wlra.solvers, "stoch_grad_euclidean")
        exact = counting(monkeypatch, wlra.solvers, "adaptive_A_B")
        built = counting(monkeypatch, FactorPair, "__post_init__")
        views = counting(monkeypatch, ScaledPair, "pair")
        costs = counting(monkeypatch, wlra.solvers, "cost_unregularized")
        # The adaptive gate reads a running squared norm, computed from the
        # bases at t = 0 and once SYNC_STEPS steps later.
        norms = counting(monkeypatch, np, "vdot")
        _, trace = sgd_euclidean(init, data, config)
        assert len(dense_steps) == 0 and len(exact) == 0
        assert len(norms) == (2 * 2 if adaptive else 0)
        assert len(grads) == 2000
        # Trace points price the state's own factors: the one pair built is
        # the returned one.
        assert len(trace.records) == 201 and len(costs) == 201
        assert len(views) == 1 and len(built) == 1


class TestConfigFamily:
    """A config whose kind disagrees with its policy, or with the solver's
    family, is rejected before any step."""

    def manifold_and_euclidean(self):
        point0, data, manifold_config = svd_setup(60, 30, 4, iters=200)
        _, pair0 = truncated_svd_init(fill_missing_column_mean(data), 4)
        pair_policy = make_policy(
            PolicyKind.EUCLIDEAN, data, confinement_euclidean(pair0), 1e-2, 1.0
        )
        euclidean_config = dataclasses.replace(
            manifold_config, kind=PolicyKind.EUCLIDEAN, policy=pair_policy
        )
        return point0, pair0, data, manifold_config, euclidean_config

    def test_kind_must_match_policy(self):
        _, _, _, manifold_config, euclidean_config = self.manifold_and_euclidean()
        with pytest.raises(ShapeMismatch):
            dataclasses.replace(manifold_config, policy=euclidean_config.policy)
        with pytest.raises(ShapeMismatch):
            dataclasses.replace(euclidean_config, policy=manifold_config.policy)

    def test_solver_rejects_another_family(self, monkeypatch):
        point0, pair0, data, manifold_config, euclidean_config = self.manifold_and_euclidean()
        pw_init, pw_data, pw_config = pw_setup(iters=200)
        pw_as_manifold = dataclasses.replace(
            pw_config,
            kind=PolicyKind.MANIFOLD,
            policy=make_policy(
                PolicyKind.MANIFOLD, pw_data, confinement_manifold(pw_init), 1e-2, 1.0
            ),
        )
        samples = counting(monkeypatch, wlra.solvers, "sample_index")
        for solver, init, problem, config in (
            (sgd_manifold, point0, data, euclidean_config),
            (sgd_manifold, pw_init, pw_data, pw_config),
            (sgd_euclidean, pair0, data, manifold_config),
            (sgd_pw, pw_init, pw_data, pw_as_manifold),
        ):
            with pytest.raises(ShapeMismatch):
                solver(init, problem, config)
        assert samples == []


def run_als(algorithm, budget, trace_every):
    """An als_* run of the line-search pin instances."""
    data, point0, pair0 = als_pin_setup()
    params = ArmijoParams(iota=1e-4)
    if algorithm == "manifold":
        return als_manifold(point0, data, 1e-4, params, budget, trace_every)
    if algorithm == "euclidean":
        return als_euclidean(pair0, data, 1e-4, params, budget, trace_every)
    pw_init, pw_data, _ = pw_setup(1)
    return als_pw(pw_init, pw_data, params, budget, trace_every)


def sgd_run_setup(algorithm, iters, trace_every):
    """A constant-step run of one SGD solver from an SVD init."""
    if algorithm == "manifold":
        init, data, config = svd_setup(60, 30, 4, iters=iters)
        solver = sgd_manifold
    elif algorithm == "euclidean":
        init, data, config = euclidean_setup("pinned", iters=iters)
        solver = sgd_euclidean
    else:
        init, data, config = pw_setup(iters)
        solver = sgd_pw
    return solver, init, data, dataclasses.replace(config, trace_every=trace_every)


@pytest.mark.parametrize(
    "algorithm", ["manifold", "euclidean", "pw", "als_manifold", "als_euclidean", "als_pw"]
)
def test_iterates_do_not_depend_on_trace_every(algorithm):
    finals = []
    for trace_every in (1, 7, 2000):
        if algorithm.startswith("als_"):
            final, _ = run_als(algorithm[4:], Budget(max_iterations=200), trace_every)
        else:
            solver, init, data, config = sgd_run_setup(algorithm, 2000, trace_every)
            final, _ = solver(init, data, config)
        finals.append([getattr(final, f.name) for f in dataclasses.fields(final)])
    for other in finals[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(finals[0], other))


class TestSgdPositiveWeights:
    def make_full(self, m, n, k, seed):
        return observed_instance(m, n, k, 1.0, seed, full=True)

    def test_one_step_composition_oracle(self):
        data = self.make_full(6, 5, 2, seed=24)
        rng = np.random.default_rng(25)
        init = random_point(6, 5, 2, rng)
        policy = make_policy(
            PolicyKind.POSITIVE_WEIGHTS, data, confinement_manifold(init), None, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.POSITIVE_WEIGHTS, policy=policy,
            budget=Budget(max_iterations=1), seed=26, trace_every=1,
        )
        final, _ = sgd_pw(init, data, config)
        rng2 = np.random.default_rng(26)
        t0 = sample_index(data, rng2)
        g0 = dense_stoch_grad_pw(init, t0, data, policy.lam)
        expected = retract(init, g0.scaled(-policy.schedule(0) / policy.phi_min))
        np.testing.assert_allclose(final.u, expected.u, rtol=1e-13, atol=1e-15)
        assert np.array_equal(final.x, expected.x)
        np.testing.assert_allclose(final.v, expected.v, rtol=1e-13, atol=1e-15)

    def test_uniform_weights_run_is_confined(self):
        data = self.make_full(8, 6, 2, seed=27)
        rng = np.random.default_rng(28)
        init = random_point(8, 6, 2, rng)
        policy = make_policy(
            PolicyKind.POSITIVE_WEIGHTS, data, confinement_manifold(init), None, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.POSITIVE_WEIGHTS, policy=policy,
            budget=Budget(max_iterations=2000), seed=29, trace_every=1, record_rho=True,
        )
        _, trace = sgd_pw(init, data, config)
        assert all(r.rho <= policy.rho1 for r in trace.records)

    def test_trajectory_pinned(self):
        # fully observed, with weights spread over [0.1, 10] before normalizing
        tm = synth_lowrank(30, 20, 3, 1.0, 0.1, seed=1)
        raw = 0.1 + 9.9 * np.random.default_rng(5).random(tm.nnz)
        data = problem_from_triplets(tm, 3, weights=raw)
        point0, _ = truncated_svd_init(fill_missing_column_mean(data), 3)
        policy = make_policy(
            PolicyKind.POSITIVE_WEIGHTS, data, confinement_manifold(point0), None, 1.0
        )
        config = SolverConfig(
            kind=PolicyKind.POSITIVE_WEIGHTS, policy=policy,
            budget=Budget(max_iterations=2000), seed=7, trace_every=10,
        )
        _, trace = sgd_pw(point0, data, config)
        pin = SGD_PW_PIN_FINAL_COST
        assert abs(trace.costs[-1] - pin) <= 1e-10 * pin


def adaptive_setup(algorithm, iters, trace_every=10):
    """An adaptive run of one SGD solver from the SVD init of a pinned instance."""
    if algorithm == "pw":
        init, data, config = pw_setup(iters)
        return sgd_pw, init, data, dataclasses.replace(
            config, trace_every=trace_every, adaptive=True, record_rho=True
        )
    data = problem_from_triplets(synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0), 3)
    point0, pair0 = truncated_svd_init(fill_missing_column_mean(data), 3)
    if algorithm == "manifold":
        kind, solver, init = PolicyKind.MANIFOLD, sgd_manifold, point0
        rho_init = confinement_manifold(point0)
    else:
        kind, solver, init = PolicyKind.EUCLIDEAN, sgd_euclidean, pair0
        rho_init = confinement_euclidean(pair0)
    config = SolverConfig(
        kind=kind, policy=make_policy(kind, data, rho_init, 1e-2, 1.0),
        budget=Budget(max_iterations=iters), seed=3, trace_every=trace_every,
        adaptive=True, record_rho=True,
    )
    return solver, init, data, config


def run_key(final, trace):
    """Everything of a run but its wall-clock times."""
    arrays = (final.u, final.x, final.v) if hasattr(final, "u") else (final.x, final.y)
    records = [(r.t, r.cost_unregularized, r.phi, r.rho) for r in trace.records]
    return records, [a.tobytes() for a in arrays]


# Replacements for the O(1) bounds the SGD loop checks; each must send every
# step to the exact pass. NaN is tested in each slot on its own, because a
# max over the pair would drop it.
FORCED_BOUNDS = {
    "inf": lambda *args: (math.inf, math.inf),
    "nan_A": lambda *args: (math.nan, 0.0),
    "nan_B": lambda *args: (0.0, math.nan),
    "rho_nan": lambda _, k, policy: tilde_A_B_of_rho(math.nan, k, policy),
    "rho_inf": lambda _, k, policy: tilde_A_B_of_rho(math.inf, k, policy),
}


class TestAdaptiveGate:
    """Adaptive SGD takes phi_t's floor for a rho in the run's settled set,
    and otherwise checks the O(1) bounds first and runs the exact
    safeguard pass only when a bound reaches the floor of phi_t."""

    @pytest.mark.parametrize("force", sorted(FORCED_BOUNDS))
    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_exact_pass_on_every_step_changes_nothing(self, monkeypatch, algorithm, force):
        iters = 300
        solver, init, data, config = adaptive_setup(algorithm, iters)
        exact = count_calls(monkeypatch, "adaptive_A_B")
        gated = run_key(*solver(init, data, config))
        assert len(exact) == 0
        monkeypatch.setattr(wlra.step_policy, "tilde_A_B_of_rho", FORCED_BOUNDS[force])
        forced = run_key(*solver(init, data, config))
        assert len(exact) == iters
        assert forced == gated

    @pytest.mark.parametrize("force", sorted(FORCED_BOUNDS))
    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_forced_bounds_empty_the_settled_set(self, monkeypatch, algorithm, force):
        _, _, data, config = adaptive_setup(algorithm, 1)
        assert settled_rho(config.policy, data.k) != (EMPTY_RHO, EMPTY_RHO)
        monkeypatch.setattr(wlra.step_policy, "tilde_A_B_of_rho", FORCED_BOUNDS[force])
        assert settled_rho(config.policy, data.k) == (EMPTY_RHO, EMPTY_RHO)

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_run_crossing_the_settled_set_takes_the_exact_pass(self, monkeypatch, algorithm):
        # phi_min is set where the larger bound meets the gate's limit at the
        # median rho of a first run, so the set ends inside the rho the run
        # visits: steps past its end call phi_t, which runs the exact pass,
        # and the phi and iterates equal a run with the exact pass on every step.
        iters = 300
        solver, init, data, config = adaptive_setup(algorithm, iters, trace_every=1)
        _, trace = solver(init, data, config)
        rho_mid = float(np.median([r.rho for r in trace.records]))
        phi_min = max(tilde_A_B_of_rho(rho_mid, data.k, config.policy)) / (1.0 - BOUND_GATE_MARGIN)
        policy = config.policy
        policy = dataclasses.replace(policy, phi_min=phi_min, theta=policy.c / phi_min)
        config = dataclasses.replace(config, policy=policy)
        (_, hi), _ = settled_rho(policy, data.k)
        assert 0.0 < hi < rho_mid
        exact = count_calls(monkeypatch, "adaptive_A_B")
        gated = run_key(*solver(init, data, config))
        crossed = len(exact)
        assert 0 < crossed < iters
        monkeypatch.setattr(wlra.step_policy, "tilde_A_B_of_rho", FORCED_BOUNDS["inf"])
        forced = run_key(*solver(init, data, config))
        assert len(exact) == crossed + iters
        assert forced == gated

    @pytest.mark.parametrize("algorithm", ["manifold", "pw"])
    def test_floor_below_bounds_runs_exact_pass(self, monkeypatch, algorithm):
        # phi_min shrunk below B~ at rho = 0, its least value, so no step
        # can skip the exact pass; phi_t is then max(A_t, B_t, floor).
        iters = 200
        solver, init, data, config = adaptive_setup(algorithm, iters, trace_every=1)
        policy = config.policy
        _, b_least = tilde_A_B_of_rho(0.0, data.k, policy)
        phi_min = 0.5 * b_least
        policy = dataclasses.replace(policy, phi_min=phi_min, theta=policy.c / phi_min)
        config = dataclasses.replace(config, policy=policy)
        exact = count_calls(monkeypatch, "adaptive_A_B")
        _, trace = solver(init, data, config)
        assert len(exact) == iters
        for rec in trace.records[1:]:
            a_t, b_t = exact[rec.t - 1]
            floor = max(policy.schedule(rec.t - 1) / policy.theta, policy.phi_min)
            assert rec.phi == max(a_t, b_t, floor)


def scalar_pair(x: float) -> FactorPair:
    """The 1x1 factor pair (x, 0), on which f = X_11^2 is a scalar quadratic."""
    return FactorPair(np.array([[x]]), np.array([[0.0]]))


def scalar_cost(f: FactorPair) -> float:
    return float(f.x[0, 0]) ** 2


def add_step(f: FactorPair, d: FactorPair) -> FactorPair:
    return f.add_scaled(d, 1.0)


def scalar_armijo(grad: float, alpha_bar=1.0, cost=scalar_cost, retractor=add_step):
    """The Armijo step from X_11 = 1, where f = 1, along -grad (2.0 is f's gradient)."""
    params = ArmijoParams(iota=0.5, alpha_bar=alpha_bar, beta=0.5)
    return armijo_step(
        cost, scalar_pair(grad), scalar_pair(1.0), params, retractor, 1.0, grad * grad
    )


class TestArmijo:
    def test_quadratic_hand_case(self):
        tau, m, trial, f_trial = scalar_armijo(2.0)
        assert (tau, m, float(trial.x[0, 0]), f_trial) == (0.5, 1, 0.0, 0.0)

    def test_trial_that_cannot_retract_fails_the_test(self):
        # Once the search ended with RankDeficient (`--alpha-bar 1e300` on a
        # manifold line search); now it backtracks, as from a costlier trial.
        def retractor(f, d):
            if abs(d.x[0, 0]) > 1.0:
                raise RankDeficient("column 0 is numerically dependent")
            return add_step(f, d)

        tau, m, trial, f_trial = scalar_armijo(2.0, alpha_bar=4.0, retractor=retractor)
        assert (tau, m, float(trial.x[0, 0]), f_trial) == (0.5, 3, 0.0, 0.0)

    def test_inconsistent_gradient_exhausts_backtracks(self):
        # -grad points uphill: every trial costs more than f(x), or as much
        # once tau has shrunk below the spacing of floats at 1.
        costs = []

        def cost(f):
            costs.append(scalar_cost(f))
            return costs[-1]

        with pytest.raises(BacktrackLimit, match=f"within {MAX_BACKTRACKS} backtracks"):
            scalar_armijo(-2.0, cost=cost)
        assert len(costs) == MAX_BACKTRACKS + 1
        assert min(costs) >= 1.0

    def test_inequality_holds_and_m_is_minimal(self):
        data = observed_instance(10, 8, 2, 0.5, seed=30)
        rng = np.random.default_rng(31)
        p = random_point(10, 8, 2, rng)
        lam = 1e-2
        params = ArmijoParams(iota=1e-4)
        g = full_grad_manifold(p, data, lam)
        eta = g.scaled(-1.0)
        cost = lambda q: regularized_cost(q, data, lam)
        tau, m, _, _ = armijo_step(cost, g, p, params, retract, cost(p), g.sq_norm())
        slope = g.inner(eta)
        assert cost(p) - cost(retract(p, eta.scaled(tau))) >= -params.iota * tau * slope
        if m > 0:
            prev = tau / params.beta
            assert cost(p) - cost(retract(p, eta.scaled(prev))) < -params.iota * prev * slope

    def test_param_validation(self):
        with pytest.raises(ShapeMismatch):
            ArmijoParams(iota=1.5)
        with pytest.raises(ShapeMismatch):
            ArmijoParams(iota=0.5, beta=1.0)

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"iota": 1.5}, "need 0 < iota < 1, got 1.5"),
            ({"iota": math.nan}, "need 0 < iota < 1, got nan"),
            ({"iota": 0.5, "beta": 1.0}, "need 0 < beta < 1, got 1.0"),
            ({"iota": 0.5, "beta": 0.0}, "need 0 < beta < 1, got 0.0"),
        ],
    )
    def test_refusal_names_the_value(self, params, named):
        with pytest.raises(ShapeMismatch, match=re.escape(named)):
            ArmijoParams(**params)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_alpha_bar_must_be_positive_and_finite(self, value):
        with pytest.raises(ShapeMismatch, match="alpha_bar"):
            ArmijoParams(iota=1e-4, alpha_bar=value)


def als_pin_setup():
    """SVD init of the criterion-8 instance, in both parametrizations."""
    data = problem_from_triplets(synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0), 3)
    point0, pair0 = truncated_svd_init(fill_missing_column_mean(data), 3)
    return data, point0, pair0


def count_calls(monkeypatch, name):
    """Patch wlra.solvers.<name> with a wrapper that records each call's result."""
    results = []
    fn = getattr(wlra.solvers, name)

    def counting(*args, **kwargs):
        out = fn(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(wlra.solvers, name, counting)
    return results


def line_search_run(algorithm, route, monkeypatch):
    """An als_* run of the `test_one_cost_per_trial` instances, with the
    support passes sent down `route` ("dense" or "gather")."""
    if algorithm == "pw":
        data = observed_instance(8, 6, 2, 1.0, seed=40, full=True)
        point0 = random_point(8, 6, 2, np.random.default_rng(41))
    else:
        data, point0, pair0 = als_pin_setup()
    monkeypatch.setattr(wlra.model, "DENSE_FILL", 10**18 if route == "dense" else 0)
    data = dataclasses.replace(data)
    assert (data.grid_blocks is None) == (route == "gather")
    params = ArmijoParams(iota=1e-4, alpha_bar=1000.0, beta=0.3)
    budget = Budget(max_iterations=40)
    if algorithm == "manifold":
        return als_manifold(point0, data, 1e-4, params, budget)
    if algorithm == "euclidean":
        return als_euclidean(pair0, data, 1e-4, params, budget)
    return als_pw(point0, data, params, budget)


class TestAlsLineSearch:
    """One gradient and one cost evaluation per Armijo trial, and the
    accepted trial is the next iterate."""

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_predictions_formed_once_per_point(self, monkeypatch, algorithm, route):
        # the gradient reads the residual of the accepted trial's cost
        # evaluation, so predictions are formed for the start and per trial
        passes = counting(monkeypatch, wlra.model, "_grid_entries")
        blocks = counting(monkeypatch, wlra.model, "_entries")
        steps = count_calls(monkeypatch, "armijo_step")
        _, trace = line_search_run(algorithm, route, monkeypatch)
        trials = sum(1 + m for _, m, _, _ in steps)
        assert len(steps) == 40 and trials > 40
        # each instance fits in one SUPPORT_BLOCK: one gather call per pass
        assert len(passes) + len(blocks) == 1 + trials
        assert not (passes if route == "gather" else blocks)

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_traces_match_recomputed_residual(self, monkeypatch, algorithm, route):
        final, trace = line_search_run(algorithm, route, monkeypatch)
        name = {"manifold": "full_grad_manifold", "euclidean": "full_grad_euclidean",
                "pw": "full_grad_pw"}[algorithm]
        real = getattr(wlra.solvers, name)
        # the gradient drops the residual it is given and forms its own
        monkeypatch.setattr(wlra.solvers, name, lambda *args: real(*args[:-1]))
        ref_final, ref_trace = line_search_run(algorithm, route, monkeypatch)
        untimed = lambda tr: [r._replace(elapsed_seconds=None) for r in tr.records]
        assert untimed(trace) == untimed(ref_trace)
        assert sum(r.backtracks for r in trace.records) > 0
        for got, want in zip(dataclasses.astuple(final), dataclasses.astuple(ref_final)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_one_cost_per_trial(self, monkeypatch, algorithm):
        if algorithm == "pw":
            data = observed_instance(8, 6, 2, 1.0, seed=40, full=True)
            point0 = random_point(8, 6, 2, np.random.default_rng(41))
        else:
            data, point0, pair0 = als_pin_setup()
        params = ArmijoParams(iota=1e-4, alpha_bar=1000.0, beta=0.3)
        budget = Budget(max_iterations=40)
        costs = count_calls(monkeypatch, "cost_unregularized")
        retracts = count_calls(monkeypatch, "retract")
        steps = count_calls(monkeypatch, "armijo_step")
        if algorithm == "manifold":
            final, trace = als_manifold(point0, data, 1e-4, params, budget)
        elif algorithm == "euclidean":
            final, trace = als_euclidean(pair0, data, 1e-4, params, budget)
        else:
            final, trace = als_pw(point0, data, params, budget)
        assert final is steps[-1][2]
        trials = [1 + m for _, m, _, _ in steps]
        assert len(steps) == 40 and sum(trials) > 40
        assert len(costs) == 1 + sum(trials)
        assert len(retracts) == (0 if algorithm == "euclidean" else sum(trials))
        # records hold the costs of the accepted trials, each evaluated last
        # among its iteration's trials, without evaluating them again
        last_trial = np.cumsum(trials)
        assert [r.cost_unregularized for r in trace.records] == [costs[0]] + [
            costs[i] for i in last_trial
        ]
        assert [r.objective for r in trace.records[1:]] == [f for _, _, _, f in steps]

    def test_backtracks_recorded(self, monkeypatch):
        data, point0, _ = als_pin_setup()
        steps = count_calls(monkeypatch, "armijo_step")
        _, trace = als_manifold(
            point0, data, 1e-4, ArmijoParams(iota=1e-4, alpha_bar=10.0, beta=0.3),
            Budget(max_iterations=60), trace_every=7,
        )
        ms = [m for _, m, _, _ in steps]
        counts = [r.backtracks for r in trace.records]
        assert counts[0] == 0 and sum(counts) == sum(ms) > 0
        assert counts[1:] == [sum(ms[i : i + 7]) for i in range(0, 60, 7)]

    def test_sgd_records_no_backtracks(self):
        data = observed_instance(20, 10, 2, 0.5, seed=32)
        init, _, config = manifold_setup(data, 1e-2, seed=1, iters=30)
        _, trace = sgd_manifold(init, data, config)
        assert all(r.backtracks is None for r in trace.records)

    def test_manifold_trajectory_pinned(self):
        data, point0, _ = als_pin_setup()
        _, trace = als_manifold(
            point0, data, 1e-4, ArmijoParams(iota=1e-4), Budget(max_iterations=200),
            trace_every=10,
        )
        pin = ALS_MANIFOLD_PIN_FINAL_COST
        assert abs(trace.final_cost() - pin) <= 1e-10 * pin

    def test_euclidean_trajectory_pinned(self):
        data, _, pair0 = als_pin_setup()
        _, trace = als_euclidean(
            pair0, data, 1e-4, ArmijoParams(iota=1e-4), Budget(max_iterations=200),
            trace_every=10,
        )
        pin = ALS_EUCLIDEAN_PIN_FINAL_COST
        assert abs(trace.final_cost() - pin) <= 1e-10 * pin

    def test_pw_trajectory_pinned(self):
        point0, data, _ = pw_setup(1)
        _, trace = als_pw(
            point0, data, ArmijoParams(iota=1e-4), Budget(max_iterations=200),
            trace_every=10,
        )
        pin = ALS_PW_PIN_FINAL_COST
        assert abs(trace.final_cost() - pin) <= 1e-10 * pin


# Largest entrywise gap allowed between `qf` and Householder QR at a trial,
# as in test_geometry: a few eps times cond(U + dU)^2 <= 3.
QF_KERNEL_TOL = 1e-13


def kernel_swap_instance(name):
    """Data and SVD-init point of an instance for the `qf` kernel swap: the
    line-search pin instance, and the benchmark's weighted-small and
    completion-tall shapes (the latter with fewer rows)."""
    if name == "pin":
        data, point0, _ = als_pin_setup()
        return data, point0
    if name == "weighted-small":
        tm = synth_lowrank(200, 80, 5, 1.0, 0.1, seed=2)
        raw = 0.1 + 9.9 * np.random.default_rng(3).random(tm.nnz)
        data = problem_from_triplets(tm, 5, weights=raw)
    else:
        data = problem_from_triplets(synth_lowrank(1000, 60, 10, 0.3, 0.1, seed=4), 10)
    point0, _ = truncated_svd_init(fill_missing_column_mean(data), data.k)
    return data, point0


def checked_qf(monkeypatch, check):
    """Patch `qf` to pass each argument and result to `check`."""
    real = wlra.geometry.qf

    def qf(c):
        q = real(c)
        check(c, q)
        return q

    monkeypatch.setattr(wlra.geometry, "qf", qf)


class TestQfKernelSwap:
    """The line search's retractions with `qf`'s Cholesky-QR path: it agrees
    with Householder QR at every trial and keeps U and V orthonormal."""

    @pytest.mark.parametrize("instance", ["pin", "weighted-small", "completion-tall"])
    def test_matches_householder_at_every_trial(self, monkeypatch, instance):
        data, point0 = kernel_swap_instance(instance)
        gaps, near = [], []

        def check(c, q):
            gaps.append(np.abs(q - householder_qf(c)).max())
            near.append(np.linalg.norm(c.T @ c - np.eye(c.shape[1])) <= NEAR_TOL)

        checked_qf(monkeypatch, check)
        steps = count_calls(monkeypatch, "armijo_step")
        als_manifold(point0, data, 1e-4, ArmijoParams(iota=1e-4), Budget(max_iterations=50))
        trials = sum(1 + m for _, m, _, _ in steps)
        assert len(steps) == 50 and len(gaps) == 2 * trials
        assert all(near)  # every trial takes the Cholesky-QR path
        assert max(gaps) <= QF_KERNEL_TOL

    def test_orthonormal_over_200_iterations(self, monkeypatch):
        data, point0 = kernel_swap_instance("pin")
        defects = []
        checked_qf(monkeypatch, lambda c, q: defects.append(orthonormality_defect(q)))
        final, _ = als_manifold(
            point0, data, 1e-4, ArmijoParams(iota=1e-4, alpha_bar=1000.0, beta=0.3),
            Budget(max_iterations=200),
        )
        assert len(defects) >= 400
        assert max(defects) <= ORTHO_TOL
        assert max(orthonormality_defect(final.u), orthonormality_defect(final.v)) <= ORTHO_TOL


class TestAlsManifold:
    def test_objective_monotone(self):
        data = observed_instance(20, 10, 2, 0.5, seed=32)
        rng = np.random.default_rng(33)
        init = random_point(20, 10, 2, rng)
        _, trace = als_manifold(
            init, data, 1e-2, ArmijoParams(iota=1e-4), Budget(max_iterations=500)
        )
        objs = np.array([r.objective for r in trace.records])
        assert np.all(np.diff(objs) <= 1e-12 * max(1.0, objs[0]))

    def test_gradient_norm_decays(self):
        data = observed_instance(20, 10, 2, 0.5, seed=34)
        rng = np.random.default_rng(35)
        init = random_point(20, 10, 2, rng)
        _, trace = als_manifold(
            init, data, 1e-2, ArmijoParams(iota=1e-4), Budget(max_iterations=2000)
        )
        assert min(r.grad_norm for r in trace.records) <= 1e-3

    def test_stationary_start_is_fixed(self):
        # a representable matrix with lam = 0 makes the init a critical point
        rng = np.random.default_rng(36)
        p = random_point(6, 4, 2, rng)
        dense = assemble(p)
        rows, cols = np.nonzero(np.ones((6, 4)))
        w = np.full(rows.size, 1.0 / rows.size)
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=6, n=4, k=2, rows=rows, cols=cols, a_vals=dense[rows, cols], w_vals=w
        )
        final, trace = als_manifold(
            p, data, 0.0, ArmijoParams(iota=1e-4), Budget(max_iterations=25)
        )
        assert np.array_equal(final.u, p.u)
        assert np.array_equal(final.x, p.x)
        assert trace.records[-1].t == 25


class TestAlsEuclidean:
    def test_objective_monotone_and_sublevel_bound(self):
        data = observed_instance(20, 10, 2, 0.5, seed=37)
        rng = np.random.default_rng(38)
        init = FactorPair(
            0.5 * rng.standard_normal((20, 2)), 0.5 * rng.standard_normal((10, 2))
        )
        lam = 1e-2
        _, trace = als_euclidean(
            init, data, lam, ArmijoParams(iota=1e-4), Budget(max_iterations=500)
        )
        objs = np.array([r.objective for r in trace.records])
        assert np.all(np.diff(objs) <= 1e-12 * max(1.0, objs[0]))
        bound = regularized_cost(init, data, lam) / lam
        assert all(r.rho <= bound + 1e-12 for r in trace.records)

    def test_zero_gradient_fixed_point(self):
        data = observed_instance(6, 5, 2, 1.0, seed=39, full=True)
        zero = FactorPair(np.zeros((6, 2)), np.zeros((5, 2)))
        grad = full_grad_euclidean(zero, data, 0.0)
        assert grad.norm() == 0.0
        final, _ = als_euclidean(
            zero, data, 0.0, ArmijoParams(iota=1e-4), Budget(max_iterations=10)
        )
        assert np.array_equal(final.x, zero.x)


class TestAlsPositiveWeights:
    def test_objective_monotone_and_x_norm_bound(self):
        data = observed_instance(8, 6, 2, 1.0, seed=40, full=True)
        rng = np.random.default_rng(41)
        init = random_point(8, 6, 2, rng)
        _, trace = als_pw(
            init, data, ArmijoParams(iota=1e-4), Budget(max_iterations=500)
        )
        objs = np.array([r.objective for r in trace.records])
        assert np.all(np.diff(objs) <= 1e-12 * max(1.0, objs[0]))
        w0 = float(data.w_vals.min())
        a_frob = math.sqrt(float(np.sum(dense(data) ** 2)))
        bound = a_frob + math.sqrt(cost_unregularized(init, data) / w0)
        assert all(math.sqrt(r.rho) <= bound + 1e-12 for r in trace.records)

    def test_perfect_fit_start_is_stationary(self):
        rng = np.random.default_rng(42)
        p = random_point(6, 4, 2, rng)
        dense = assemble(p)
        rows, cols = np.nonzero(np.ones((6, 4)))
        w = 0.5 + np.random.default_rng(43).random(rows.size)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=6, n=4, k=2, rows=rows, cols=cols, a_vals=dense[rows, cols], w_vals=w
        )
        assert cost_unregularized(p, data) <= 1e-25
        final, _ = als_pw(p, data, ArmijoParams(iota=1e-4), Budget(max_iterations=10))
        assert np.array_equal(final.x, p.x)


class TestLineSearchLambda:
    """The line searches refuse a lambda that is negative or not finite
    before any evaluation; 0 is valid (als_pw searches at 0)."""

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean"])
    def test_refused(self, monkeypatch, algorithm, lam):
        data, point0, pair0 = als_pin_setup()
        costs = counting(monkeypatch, wlra.solvers, "cost_unregularized")
        solver, init = (als_manifold, point0) if algorithm == "manifold" else (als_euclidean, pair0)
        with pytest.raises(LambdaOutOfRange, match=f"got {lam}"):
            solver(init, data, lam, ArmijoParams(iota=1e-4), Budget(max_iterations=20))
        assert costs == []

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean"])
    def test_zero_runs(self, algorithm):
        data, point0, pair0 = als_pin_setup()
        solver, init = (als_manifold, point0) if algorithm == "manifold" else (als_euclidean, pair0)
        _, trace = solver(init, data, 0.0, ArmijoParams(iota=1e-4), Budget(max_iterations=5))
        assert trace.iterations.tolist() == [0, 1, 2, 3, 4, 5]
        assert all(r.objective == r.cost_unregularized for r in trace.records)


class TestSolverIterateShape:
    """Every solver refuses, at its start, an init whose U (X) rows are not m
    or whose V (Y) rows are not n, on both routes."""

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("rows", [(30, 16), (44, 16), (40, 12), (40, 20)])
    def test_refused_before_any_work(self, monkeypatch, route, rows):
        monkeypatch.setattr(wlra.model, "DENSE_FILL", 10**18 if route == "dense" else 0)
        data = observed_instance(40, 16, 3, 0.4, seed=50)
        full = observed_instance(40, 16, 3, 1.0, seed=51, full=True)
        assert (data.grid_blocks is None) == (full.grid_blocks is None) == (route == "gather")
        rng = np.random.default_rng(52)
        point = random_point(*rows, 3, rng)
        pair = FactorPair(rng.standard_normal((rows[0], 3)), rng.standard_normal((rows[1], 3)))
        budget, params = Budget(max_iterations=5), ArmijoParams(iota=1e-4)
        runs = [
            lambda: als_manifold(point, data, 1e-2, params, budget),
            lambda: als_euclidean(pair, data, 1e-2, params, budget),
            lambda: als_pw(point, full, params, budget),
        ]
        for solver, kind, init, problem, lam in (
            (sgd_manifold, PolicyKind.MANIFOLD, point, data, 1e-2),
            (sgd_euclidean, PolicyKind.EUCLIDEAN, pair, data, 1e-2),
            (sgd_pw, PolicyKind.POSITIVE_WEIGHTS, point, full, None),
        ):
            rho = (confinement_euclidean if init is pair else confinement_manifold)(init)
            policy = make_policy(kind, problem, rho, lam, 1.0)
            config = SolverConfig(kind=kind, policy=policy, budget=budget, seed=0)
            runs.append(partial(solver, init, problem, config))
        costs = counting(monkeypatch, wlra.solvers, "cost_unregularized")
        samples = counting(monkeypatch, wlra.solvers, "sample_index")
        for run in runs:
            with pytest.raises(ShapeMismatch, match=f"{rows[0]} and {rows[1]} rows"):
                run()
        assert costs == [] and samples == []


class TestFreezeRule:
    """The line search freezes when the full step's first-order decrease
    alpha_bar ||g||^2 is below float noise in f; iota does not enter."""

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean"])
    def test_steps_at_small_lambda_with_preset_iota(self, algorithm):
        data = problem_from_triplets(synth_lowrank(300, 100, 5, 0.3, 0.1, seed=1), 5)
        point0, pair0 = truncated_svd_init(fill_missing_column_mean(data), 5)
        params = ArmijoParams(iota=IOTA_PRESETS[1e-6])
        solver, init = (als_manifold, point0) if algorithm == "manifold" else (als_euclidean, pair0)
        _, trace = solver(init, data, 1e-6, params, Budget(max_iterations=20))
        first = trace.records[0]
        # a rule scaled by iota would freeze here at t = 0
        noise = 1024.0 * np.finfo(float).eps * max(1.0, abs(first.objective))
        assert params.iota * params.alpha_bar * first.grad_norm**2 <= noise
        objectives = [r.objective for r in trace.records]
        assert len(objectives) == 21
        assert all(b < a for a, b in zip(objectives, objectives[1:]))

    @pytest.mark.parametrize("alpha_bar", [1.0, 1e3])
    def test_eckart_young_optimum_freezes(self, alpha_bar):
        # Fully observed with uniform weights, the SVD init is the optimum
        # of the positive-weights cost: the search freezes there, without
        # exhausting its backtracks.
        data = problem_from_triplets(synth_lowrank(40, 16, 3, 1.0, 0.1, seed=3), 3)
        point0, _ = truncated_svd_init(fill_missing_column_mean(data), 3)
        params = ArmijoParams(iota=1e-4, alpha_bar=alpha_bar)
        final, trace = als_pw(point0, data, params, Budget(max_iterations=20))
        for got, want in zip(dataclasses.astuple(final), dataclasses.astuple(point0)):
            np.testing.assert_array_equal(got, want)
        assert len(trace.records) == 21
        assert {r.backtracks for r in trace.records} == {0}


class TestIterationLoop:
    """Budget, trace cadence and trace clock, which every solver shares."""

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_als_time_budget_stops_at_first_late_trace_point(self, algorithm):
        _, trace = run_als(algorithm, Budget(max_seconds=1e-9), trace_every=5)
        assert [r.t for r in trace.records] == [0, 5]

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_off_cadence_record_carries_last_phi(self, algorithm):
        solver, init, data, config = sgd_run_setup(algorithm, iters=7, trace_every=5)
        _, trace = solver(init, data, config)
        assert [r.t for r in trace.records] == [0, 5, 7]
        assert trace.records[0].phi is None
        assert trace.records[-1].phi == config.policy.phi_min

    def test_trace_every_zero_refused(self):
        _, _, _, config = sgd_run_setup("manifold", iters=10, trace_every=1)
        with pytest.raises(ShapeMismatch, match="trace_every"):
            dataclasses.replace(config, trace_every=0)
        for algorithm in ("manifold", "euclidean", "pw"):
            with pytest.raises(ShapeMismatch, match="trace_every"):
                run_als(algorithm, Budget(max_iterations=10), trace_every=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_budget_refuses_non_positive_or_non_finite_seconds(self, value):
        with pytest.raises(ShapeMismatch, match="max_seconds"):
            Budget(max_seconds=value)

    def test_trace_points_are_left_out_of_elapsed_time(self, monkeypatch):
        nap = 0.002
        real = wlra.solvers.cost_unregularized

        def slow_cost(source, data):
            time.sleep(nap)
            priced.append(type(source))
            return real(source, data)

        priced = []
        monkeypatch.setattr(wlra.solvers, "cost_unregularized", slow_cost)
        solver, init, data, config = sgd_run_setup("euclidean", iters=100, trace_every=10)
        _, trace = solver(init, data, config)
        assert len(trace.records) == 11
        assert priced == [ScaledPair] * 11  # the state itself, no view of it
        assert trace.bookkeeping_seconds >= 11 * nap
        assert trace.records[-1].elapsed_seconds < trace.bookkeeping_seconds

    @pytest.mark.parametrize("algorithm", ["manifold", "euclidean", "pw"])
    def test_alias_build_is_left_out_of_elapsed_time(self, algorithm, monkeypatch):
        nap = 0.2

        class SlowSampler(CdfSampler):
            def __init__(self, probs):
                time.sleep(nap)
                super().__init__(probs)

        monkeypatch.setattr(wlra.model, "CdfSampler", SlowSampler)
        solver, init, data, config = sgd_run_setup(algorithm, iters=10, trace_every=5)
        _, trace = solver(init, data, config)
        assert isinstance(data.sampler, SlowSampler)
        assert [r.t for r in trace.records] == [0, 5, 10]
        assert trace.records[1].elapsed_seconds < nap / 4
