"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np

from wlra.cli import main
from wlra.data_io import problem_from_triplets, synth_lowrank, write_triplets
from wlra.geometry import (
    ProductPoint,
    ProductTangent,
    orthonormality_defect,
    retract,
    tangent_project,
)
from wlra.model import (
    FactorPair,
    ProblemData,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    full_grad_euclidean,
    full_grad_manifold,
    full_grad_pw,
)
from wlra.solvers import (
    ArmijoParams,
    Budget,
    SolverConfig,
    als_euclidean,
    als_manifold,
    als_pw,
    sgd_euclidean,
    sgd_manifold,
)
from wlra.step_policy import (
    PolicyKind,
    adaptive_A_B,
    compute_phi_min,
    compute_rho0,
    make_policy,
    tilde_A_B_of_rho,
)
from wlra.svd_init import fill_missing_column_mean, truncated_svd_init

from helpers import (
    best_rank_k,
    check_stationarity,
    dense_stoch_grad_euclidean,
    dense_stoch_grad_manifold,
    dense_stoch_grad_pw,
    inner,
    norm,
    random_point,
    random_tangent,
    regularized_cost,
    sample_cost_euclidean,
    sample_cost_manifold,
    sample_cost_pw,
)

ZETA_1_2 = 5.5915824411777519  # sum of (t + 1)^(-1.2) over t >= 0


def report(criterion: int, ok: bool, detail: str, gating: bool = True):
    status = "PASS" if ok else ("FAIL" if gating else "REPORT")
    print(f"[criterion {criterion:2d}] {status} {detail}")
    if gating:
        assert ok, f"criterion {criterion}: {detail}"


def sparse_instance(m, n, k, density, seed, full=False):
    rng = np.random.default_rng(seed)
    if full:
        rows, cols = np.nonzero(np.ones((m, n)))
    else:
        nnz = max(k + 2, int(density * m * n))
        flat = rng.choice(m * n, size=nnz, replace=False)
        rows, cols = flat // n, flat % n
    a = rng.standard_normal(rows.size)
    w = np.full(rows.size, 1.0 / rows.size)
    w[-1] = 1.0 - w[:-1].sum()
    return ProblemData(m=m, n=n, k=k, rows=rows, cols=cols, a_vals=a, w_vals=w)


def test_criterion_1_geometry_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_ortho = worst_idem = worst_adj = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, min(m, n, 8) + 1))
        p = random_point(m, n, k, rng)
        v = random_tangent(p, rng)
        worst_ortho = max(
            worst_ortho, orthonormality_defect(p.u), orthonormality_defect(p.v)
        )
        q = retract(p, v)
        worst_ortho = max(
            worst_ortho, orthonormality_defect(q.u), orthonormality_defect(q.v)
        )
        xi = rng.standard_normal((m, k))
        once = tangent_project(p.u, xi)
        worst_idem = max(worst_idem, float(np.linalg.norm(tangent_project(p.u, once) - once)))
        eta = tangent_project(p.u, rng.standard_normal((m, k)))
        worst_adj = max(
            worst_adj,
            abs(float(np.sum(once * eta)) - float(np.sum(xi * tangent_project(p.u, eta)))),
        )
    slopes = []
    for _ in range(5):
        p = random_point(30, 12, 4, rng)
        v = random_tangent(p, rng)
        ts = np.array([1e-2, 1e-3, 1e-4])
        devs = []
        for t in ts:
            q = retract(p, v.scaled(t))
            devs.append(
                math.sqrt(
                    np.linalg.norm(q.u - (p.u + t * v.du)) ** 2
                    + np.linalg.norm(q.v - (p.v + t * v.dv)) ** 2
                )
            )
        slopes.append(np.polyfit(np.log(ts), np.log(devs), 1)[0])
    elapsed = time.perf_counter() - start
    ok = (
        worst_ortho <= 1e-10
        and worst_idem <= 1e-12
        and worst_adj <= 1e-12
        and all(1.8 <= s <= 2.2 for s in slopes)
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"ortho {worst_ortho:.2e}, idem {worst_idem:.2e}, adj {worst_adj:.2e}, "
        f"slopes {min(slopes):.2f}..{max(slopes):.2f}, {elapsed:.1f}s",
    )


def _fd_err_manifold(cost, p, grad, rng, n_dirs=20, h=1e-6):
    worst = 0.0
    for _ in range(n_dirs):
        d = random_tangent(p, rng)
        num = (cost(retract(p, d.scaled(h))) - cost(retract(p, d.scaled(-h)))) / (2 * h)
        ana = inner(grad, d)
        worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
    return worst


def _fd_err_euclidean(cost, f, grad, rng, n_dirs=20, h=1e-6):
    worst = 0.0
    for _ in range(n_dirs):
        d = FactorPair(rng.standard_normal(f.x.shape), rng.standard_normal(f.y.shape))
        num = (cost(f.add_scaled(d, h)) - cost(f.add_scaled(d, -h))) / (2 * h)
        ana = inner(grad, d)
        worst = max(worst, abs(num - ana) / max(1.0, abs(ana)))
    return worst


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    lam = 0.07
    data = sparse_instance(8, 6, 2, 0.5, seed=2002)
    full = sparse_instance(8, 6, 2, 1.0, seed=2003, full=True)
    p = random_point(8, 6, 2, rng)
    f = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((6, 2)))
    t, tf = 1, 5
    lam_pw = 0.4 * float(full.w_vals.min())
    errs = {
        "stoch-manifold": _fd_err_manifold(
            lambda q: sample_cost_manifold(q, t, data, lam), p,
            dense_stoch_grad_manifold(p, t, data, lam), rng,
        ),
        "full-manifold": _fd_err_manifold(
            lambda q: regularized_cost(q, data, lam), p,
            full_grad_manifold(p, data, lam), rng,
        ),
        "stoch-euclidean": _fd_err_euclidean(
            lambda q: sample_cost_euclidean(q, t, data, lam), f,
            dense_stoch_grad_euclidean(f, t, data, lam), rng,
        ),
        "full-euclidean": _fd_err_euclidean(
            lambda q: regularized_cost(q, data, lam), f,
            full_grad_euclidean(f, data, lam), rng,
        ),
        "stoch-pw": _fd_err_manifold(
            lambda q: sample_cost_pw(q, tf, full, lam_pw), p,
            dense_stoch_grad_pw(p, tf, full, lam_pw), rng,
        ),
        "full-pw": _fd_err_manifold(
            lambda q: cost_unregularized(q, full), p, full_grad_pw(p, full), rng
        ),
    }
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    ok = worst <= 1e-5 and elapsed < 5.0
    report(2, ok, f"worst FD relative error {worst:.2e} over {len(errs)} gradients, {elapsed:.1f}s")


def test_criterion_3_unbiasedness():
    start = time.perf_counter()
    rng = np.random.default_rng(3003)
    data = sparse_instance(8, 7, 2, 0.6, seed=3003)
    full = sparse_instance(7, 6, 2, 1.0, seed=3004, full=True)
    assert data.nnz <= 100 and full.nnz <= 100
    lam = 0.2
    lam_pw = 0.3 * float(full.w_vals.min())

    p = random_point(8, 7, 2, rng)
    acc = ProductTangent(np.zeros((8, 2)), np.zeros(2), np.zeros((7, 2)))
    for t in range(data.nnz):
        g = dense_stoch_grad_manifold(p, t, data, lam)
        w = data.w_vals[t]
        acc = ProductTangent(acc.du + w * g.du, acc.dx + w * g.dx, acc.dv + w * g.dv)
    gm = full_grad_manifold(p, data, lam)
    err_m = norm(ProductTangent(acc.du - gm.du, acc.dx - gm.dx, acc.dv - gm.dv))

    f = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((7, 2)))
    acc_f = FactorPair(np.zeros((8, 2)), np.zeros((7, 2)))
    for t in range(data.nnz):
        g = dense_stoch_grad_euclidean(f, t, data, lam)
        acc_f = acc_f.add_scaled(g, float(data.w_vals[t]))
    err_e = norm(acc_f.add_scaled(full_grad_euclidean(f, data, lam), -1.0))

    pp = random_point(7, 6, 2, rng)
    acc_p = ProductTangent(np.zeros((7, 2)), np.zeros(2), np.zeros((6, 2)))
    for t in range(full.nnz):
        g = dense_stoch_grad_pw(pp, t, full, lam_pw)
        w = full.w_vals[t]
        acc_p = ProductTangent(acc_p.du + w * g.du, acc_p.dx + w * g.dx, acc_p.dv + w * g.dv)
    gp = full_grad_pw(pp, full)
    err_p = norm(ProductTangent(acc_p.du - gp.du, acc_p.dx - gp.dx, acc_p.dv - gp.dv))

    elapsed = time.perf_counter() - start
    worst = max(err_m, err_e, err_p)
    ok = worst <= 1e-12 and elapsed < 1.0
    report(3, ok, f"worst expectation gap {worst:.2e} across 3 families, {elapsed:.2f}s")


def test_criterion_4_step_policy_formulas():
    start = time.perf_counter()
    ref = compute_phi_min(PolicyKind.MANIFOLD, 1.0, 1.0, 1.0, 1, 0.25)
    ok_ref = abs(ref - 11.4664) <= 1e-3

    data = sparse_instance(8, 6, 2, 1.0, seed=4004, full=True)
    rng = np.random.default_rng(4004)
    dominance = True
    for kind, lam in (
        (PolicyKind.MANIFOLD, 0.05),
        (PolicyKind.EUCLIDEAN, 0.05),
        (PolicyKind.POSITIVE_WEIGHTS, None),
    ):
        policy = make_policy(kind, data, 0.0, lam, 1.0)
        for _ in range(100):
            if kind is PolicyKind.EUCLIDEAN:
                it = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((6, 2)))
                rho = confinement_euclidean(it)
            else:
                q = random_point(8, 6, 2, rng)
                it = ProductPoint(q.u, q.x * rng.uniform(0.1, 3.0), q.v)
                rho = confinement_manifold(it)
            a_t, b_t = adaptive_A_B(it, data, policy)
            at, bt = tilde_A_B_of_rho(rho, data.k, policy)
            dominance &= at >= a_t - 1e-12 and bt >= b_t - 1e-12

    man_vals, euc_vals = [], []
    for lam in (1e-2, 1e-4, 1e-6):
        r_m = compute_rho0(PolicyKind.MANIFOLD, 0.0, 1.0, lam)
        man_vals.append(compute_phi_min(PolicyKind.MANIFOLD, 1.0, lam, 1.0, 1, r_m))
        r_e = compute_rho0(PolicyKind.EUCLIDEAN, 0.0, 1.0, lam)
        euc_vals.append(compute_phi_min(PolicyKind.EUCLIDEAN, 1.0, lam, 1.0, 1, r_e))
    ok_bounded = max(man_vals) <= 2.0 * min(man_vals)
    r1 = euc_vals[1] / euc_vals[0]
    r2 = euc_vals[2] / euc_vals[1]
    ok_growth = 50.0 <= r1 <= 200.0 and 50.0 <= r2 <= 200.0

    elapsed = time.perf_counter() - start
    ok = ok_ref and dominance and ok_bounded and ok_growth and elapsed < 1.0
    report(
        4,
        ok,
        f"phi_min ref {ref:.4f}, dominance {dominance}, manifold spread "
        f"{max(man_vals)/min(man_vals):.3f}, euclidean ratios {r1:.0f}/{r2:.0f}, {elapsed:.2f}s",
    )


def test_criterion_5_sgd_confinement():
    start = time.perf_counter()
    lam = 1e-2
    data = sparse_instance(20, 10, 2, 0.5, seed=5005)
    rng = np.random.default_rng(5005)

    # start exactly on the confinement boundary rho(init) = rho0
    init = random_point(20, 10, 2, rng)
    policy = make_policy(PolicyKind.MANIFOLD, data, 0.0, lam, 1.0)
    scale = math.sqrt(policy.rho0 / confinement_manifold(init))
    init = ProductPoint(init.u, init.x * scale, init.v)
    config = SolverConfig(
        kind=PolicyKind.MANIFOLD, policy=policy, budget=Budget(max_iterations=5000),
        seed=5005, trace_every=1, record_rho=True,
    )
    _, trace = sgd_manifold(init, data, config)
    rho_max = max(r.rho for r in trace.records)
    ok_m = rho_max < policy.rho1

    pair = FactorPair(0.5 * rng.standard_normal((20, 2)), 0.5 * rng.standard_normal((10, 2)))
    policy_e = make_policy(PolicyKind.EUCLIDEAN, data, 0.0, lam, 1.0)
    pair = pair.scaled(math.sqrt(policy_e.rho0 / confinement_euclidean(pair)))
    config_e = SolverConfig(
        kind=PolicyKind.EUCLIDEAN, policy=policy_e, budget=Budget(max_iterations=5000),
        seed=5006, trace_every=1, record_rho=True,
    )
    _, trace_e = sgd_euclidean(pair, data, config_e)
    rho_max_e = max(r.rho for r in trace_e.records)
    ok_e = rho_max_e < policy_e.rho1

    elapsed = time.perf_counter() - start
    ok = ok_m and ok_e and elapsed < 30.0
    report(
        5,
        ok,
        f"manifold rho {rho_max:.2f} < {policy.rho1:.2f}, euclidean rho "
        f"{rho_max_e:.2f} < {policy_e.rho1:.2f}, {elapsed:.1f}s",
    )


def test_criterion_6_als_descent_and_convergence():
    start = time.perf_counter()
    lam = 1e-2
    params = ArmijoParams(iota=1e-4)
    data = sparse_instance(20, 10, 2, 0.5, seed=6006)
    rng = np.random.default_rng(6006)

    init = random_point(20, 10, 2, rng)
    _, tr_m = als_manifold(init, data, lam, params, Budget(max_iterations=2000))
    objs = np.array([r.objective for r in tr_m.records])
    mono_m = bool(np.all(np.diff(objs) <= 1e-12 * max(1.0, objs[0])))
    best_gnorm = min(r.grad_norm for r in tr_m.records)
    ok_conv = best_gnorm <= 1e-3

    pair = FactorPair(0.5 * rng.standard_normal((20, 2)), 0.5 * rng.standard_normal((10, 2)))
    _, tr_e = als_euclidean(pair, data, lam, params, Budget(max_iterations=500))
    objs_e = np.array([r.objective for r in tr_e.records])
    mono_e = bool(np.all(np.diff(objs_e) <= 1e-12 * max(1.0, objs_e[0])))

    full = sparse_instance(10, 8, 2, 1.0, seed=6007, full=True)
    init_p = random_point(10, 8, 2, rng)
    _, tr_p = als_pw(init_p, full, params, Budget(max_iterations=500))
    objs_p = np.array([r.objective for r in tr_p.records])
    mono_p = bool(np.all(np.diff(objs_p) <= 1e-12 * max(1.0, objs_p[0])))

    elapsed = time.perf_counter() - start
    ok = mono_m and mono_e and mono_p and ok_conv and elapsed < 60.0
    report(
        6,
        ok,
        f"monotone {mono_m}/{mono_e}/{mono_p}, best grad norm {best_gnorm:.2e}, {elapsed:.1f}s",
    )


def _refined_candidates_best(a, k, n_candidates, sweeps, seed):
    m, n = a.shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_candidates, m, k))
    ridge = 1e-12 * np.eye(k)
    y = None
    for _ in range(sweeps):
        g = np.transpose(x, (0, 2, 1)) @ x + ridge
        y = np.transpose(np.linalg.solve(g, np.transpose(x, (0, 2, 1)) @ a), (0, 2, 1))
        g = np.transpose(y, (0, 2, 1)) @ y + ridge
        x = np.transpose(np.linalg.solve(g, np.transpose(y, (0, 2, 1)) @ a.T), (0, 2, 1))
    resid = a[None] - x @ np.transpose(y, (0, 2, 1))
    return float(np.min(np.sum(resid**2, axis=(1, 2))))


def test_criterion_7_best_rank_k_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7007)
    worst_cost_gap = worst_brute_gap = 0.0
    all_stationary = True
    for i in range(20):
        m = int(rng.integers(4, 11))
        n = int(rng.integers(3, 9))
        a = rng.standard_normal((m, n))
        s = np.linalg.svd(a, compute_uv=False)
        for k in range(1, min(m, n) + 1):
            p, cost = best_rank_k(a, k)
            worst_cost_gap = max(
                worst_cost_gap,
                abs(cost - float(np.sum(s[k:] ** 2))),
                abs(cost - float(np.linalg.norm(a - p) ** 2)),
            )
            all_stationary &= check_stationarity(a, p, tol=1e-8)
            brute = _refined_candidates_best(a, k, 10000, 5, seed=1000 * i + k)
            worst_brute_gap = max(worst_brute_gap, cost - brute)
    elapsed = time.perf_counter() - start
    ok = (
        worst_cost_gap <= 1e-8
        and all_stationary
        and worst_brute_gap <= 1e-6
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"cost gap {worst_cost_gap:.2e}, stationary {all_stationary}, "
        f"brute margin {worst_brute_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_8_sgd_progress():
    start = time.perf_counter()
    tm = synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0)
    data = problem_from_triplets(tm, 3)
    dense = fill_missing_column_mean(data)
    point0, _ = truncated_svd_init(dense, 3)
    # slower-decaying valid schedule: sum c_t diverges, sum c_t^2 = zeta(1.2)
    schedule = lambda t: (t + 1.0) ** -0.6
    policy = make_policy(
        PolicyKind.MANIFOLD, data, confinement_manifold(point0), 1e-4, 1.0,
        schedule=schedule, c=1.0, sigma=ZETA_1_2,
    )
    config = SolverConfig(
        kind=PolicyKind.MANIFOLD, policy=policy, budget=Budget(max_iterations=10000),
        seed=2024, trace_every=10,
    )
    _, trace = sgd_manifold(point0, data, config)
    costs = trace.costs
    init = costs[0]
    final = costs[-1]
    trail = costs[trace.iterations >= 9000]
    trail_range = float(trail.max() - trail.min())
    elapsed = time.perf_counter() - start
    ok = final < 0.9 * init and trail_range < 0.05 * init and elapsed < 60.0
    report(
        8,
        ok,
        f"cost {init:.4f} -> {final:.4f} (ratio {final/init:.3f}), trailing range "
        f"{trail_range/init:.4f} of initial, {elapsed:.1f}s",
    )


def test_criterion_9_qualitative_replication():
    start = time.perf_counter()
    tm = synth_lowrank(50, 20, 3, 0.4, 0.1, seed=0)
    data = problem_from_triplets(tm, 3)
    dense = fill_missing_column_mean(data)
    point0, pair0 = truncated_svd_init(dense, 3)
    big_k_manifold, big_k_euclidean = 5.0, 1.0  # tuned per algorithm on this instance
    counts = {}
    for lam in (1e-2, 1e-4):
        policy_m = make_policy(
            PolicyKind.MANIFOLD, data, confinement_manifold(point0), lam, big_k_manifold
        )
        policy_e = make_policy(
            PolicyKind.EUCLIDEAN, data, confinement_euclidean(pair0), lam, big_k_euclidean
        )
        wins = 0
        for seed in range(10):
            cfg_m = SolverConfig(
                kind=PolicyKind.MANIFOLD, policy=policy_m,
                budget=Budget(max_iterations=1000), seed=seed, trace_every=1000,
            )
            _, tr_m = sgd_manifold(point0, data, cfg_m)
            cfg_e = SolverConfig(
                kind=PolicyKind.EUCLIDEAN, policy=policy_e,
                budget=Budget(max_iterations=1000), seed=seed, trace_every=1000,
            )
            _, tr_e = sgd_euclidean(pair0, data, cfg_e)
            wins += tr_m.final_cost() <= tr_e.final_cost()
        counts[lam] = wins
    elapsed = time.perf_counter() - start
    ok = all(w >= 7 for w in counts.values())
    detail = ", ".join(f"lambda={lam:g}: manifold wins {w}/10" for lam, w in counts.items())
    # informative only; the comparison depends on the data instance
    report(9, ok, f"{detail}, {elapsed:.1f}s", gating=False)


def test_criterion_10_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    synth = tmp_path / "data.csv"
    write_triplets(synth_lowrank(40, 16, 3, 0.4, 0.1, seed=3), synth)
    run_args = lambda out: [
        "run", "--in", str(synth), "--algorithm", "sgd-manifold",
        "--k", "3", "--lambda", "1e-2", "--seed", "17",
        "--iters", "2000", "--trace-every", "20", "--out", str(out),
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(run_args(a)) == 0
    assert main(run_args(b)) == 0
    same = a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - start
    ok = same and elapsed < 30.0
    report(10, ok, f"byte-identical CSVs: {same}, {elapsed:.1f}s")
