import dataclasses

import numpy as np
import pytest

import wlra.model

from wlra.errors import (
    EmptySupport,
    LambdaOutOfRange,
    NonPositiveWeight,
    ShapeMismatch,
)
from wlra.geometry import (
    FactoredPoint,
    ProductPoint,
    ProductTangent,
    assemble,
    project_tangent,
    retract,
)
from wlra.data_io import TripletMatrix, binary_weights
from wlra.model import (
    DENSE_FILL,
    SUPPORT_BLOCK,
    AliasSampler,
    FactorPair,
    ProblemData,
    ScaledPair,
    confinement_euclidean,
    confinement_manifold,
    cost_unregularized,
    full_grad_euclidean,
    full_grad_manifold,
    full_grad_pw,
    sample_index,
    stoch_grad_euclidean,
    stoch_grad_manifold,
    stoch_grad_pw,
)

from helpers import (
    draw_many,
    random_point,
    random_tangent,
    regularized_cost,
    sample_cost_euclidean,
    sample_cost_manifold,
    sample_cost_pw,
    tangent_defect,
)


# DENSE_FILL values that send any instance down one route.
ROUTE_FILL = {"dense": 10**18, "gather": 0}


def on_route(data, route, monkeypatch):
    """A fresh copy of `data` whose support passes take `route`."""
    monkeypatch.setattr(wlra.model, "DENSE_FILL", ROUTE_FILL[route])
    copy = dataclasses.replace(data)
    assert (copy.cells is None) == (route == "gather")
    return copy


def scalar_data(a=2.0, w=1.0):
    return ProblemData(m=1, n=1, k=1, rows=[0], cols=[0], a_vals=[a], w_vals=[w])


def scalar_point(u=1.0, x=1.0, v=1.0):
    return ProductPoint(np.array([[u]]), [x], np.array([[v]]))


def random_data(m, n, k, nnz, seed, full=False, min_w=0.0):
    rng = np.random.default_rng(seed)
    if full:
        rows, cols = np.nonzero(np.ones((m, n)))
    else:
        flat = rng.choice(m * n, size=nnz, replace=False)
        rows, cols = flat // n, flat % n
    a = rng.standard_normal(rows.size)
    w = min_w + rng.random(rows.size)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return ProblemData(m=m, n=n, k=k, rows=rows, cols=cols, a_vals=a, w_vals=w)


class TestProblemData:
    def test_weight_sum_enforced(self):
        with pytest.raises(ShapeMismatch):
            ProblemData(m=2, n=2, k=1, rows=[0], cols=[0], a_vals=[1.0], w_vals=[0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            ProblemData(
                m=2, n=2, k=1, rows=[0, 1], cols=[0, 1],
                a_vals=[1.0, 2.0], w_vals=[1.5, -0.5],
            )

    def test_rank_cap(self):
        with pytest.raises(ShapeMismatch):
            ProblemData(m=2, n=2, k=3, rows=[0], cols=[0], a_vals=[1.0], w_vals=[1.0])

    def test_empty_rejected(self):
        with pytest.raises(EmptySupport):
            ProblemData(m=2, n=2, k=1, rows=[], cols=[], a_vals=[], w_vals=[])

    def test_nan_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            ProblemData(
                m=2, n=2, k=1, rows=[0, 1], cols=[0, 1],
                a_vals=[1.0, 2.0], w_vals=[np.nan, 1.0],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ShapeMismatch):
            ProblemData(
                m=2, n=2, k=1, rows=[0, 1], cols=[0, 1],
                a_vals=[bad, 2.0], w_vals=[0.5, 0.5],
            )


class TestCosts:
    def test_zero_iterate_gives_weighted_energy(self):
        data = random_data(5, 4, 2, 12, seed=0)
        p = ProductPoint(np.eye(5)[:, :2], [0.0, 0.0], np.eye(4)[:, :2])
        expected = float(np.dot(data.w_vals, data.a_vals**2))
        assert abs(cost_unregularized(p, data) - expected) <= 1e-14

    def test_perfect_fit_is_zero(self):
        # integer factors, so the fitted values are exact
        rng = np.random.default_rng(1)
        f = FactorPair(rng.integers(-3, 4, (5, 2)), rng.integers(-3, 4, (4, 2)))
        data = random_data(5, 4, 2, 12, seed=1)
        data = dataclasses.replace(data, a_vals=(f.x @ f.y.T)[data.rows, data.cols])
        assert cost_unregularized(f, data) == 0.0

    def test_scalar_hand_values(self):
        data = scalar_data()
        assert cost_unregularized(scalar_point(), data) == 1.0
        assert confinement_manifold(scalar_point()) == 1.0
        f = FactorPair(np.array([[1.0]]), np.array([[1.0]]))
        assert cost_unregularized(f, data) == 1.0
        assert confinement_euclidean(f) == 2.0

    def test_factored_zero_gives_weighted_energy(self):
        data = random_data(5, 4, 2, 12, seed=2)
        f = FactorPair(np.zeros((5, 2)), np.zeros((4, 2)))
        expected = float(np.dot(data.w_vals, data.a_vals**2))
        assert abs(cost_unregularized(f, data) - expected) <= 1e-14

    def test_manifold_cost_matches_dense_route(self):
        rng = np.random.default_rng(3)
        data = random_data(6, 5, 2, 15, seed=3)
        p = random_point(6, 5, 2, rng)
        dense = assemble(p)
        res = data.a_vals - dense[data.rows, data.cols]
        assert abs(cost_unregularized(p, data) - float(np.dot(data.w_vals, res**2))) <= 1e-12
        assert abs(confinement_manifold(p) - float(np.linalg.norm(dense)) ** 2) <= 1e-12

    def test_blocked_equals_whole_support_formula(self, monkeypatch):
        # 9600 cells span three blocks, the last one partial; the dense
        # route must give the same value.
        rng = np.random.default_rng(5)
        full = random_data(120, 80, 3, 0, seed=5, full=True)
        assert full.nnz > 2 * SUPPORT_BLOCK
        p = random_point(120, 80, 3, rng)
        f = FactorPair(rng.standard_normal((120, 3)), rng.standard_normal((80, 3)))
        whole = {
            "point": np.einsum("tk,k,tk->t", p.u[full.rows], p.x, p.v[full.cols]),
            "pair": np.einsum("tk,tk->t", f.x[full.rows], f.y[full.cols]),
        }
        for route in ROUTE_FILL:
            data = on_route(full, route, monkeypatch)
            for name, source in (("point", p), ("pair", f)):
                res = data.a_vals - whole[name]
                ref = float(np.dot(data.w_vals, res**2))
                assert abs(cost_unregularized(source, data) - ref) <= 1e-14 * ref


class TestSampling:
    def test_single_positive_entry_always_drawn(self):
        data = ProblemData(
            m=2, n=2, k=1, rows=[0, 1], cols=[0, 1],
            a_vals=[1.0, 2.0], w_vals=[0.0, 1.0],
        )
        rng = np.random.default_rng(0)
        assert all(sample_index(data, rng) == 1 for _ in range(50))

    def test_uniform_frequencies_chi_square(self):
        data = ProblemData(
            m=2, n=2, k=1, rows=[0, 0, 1, 1], cols=[0, 1, 0, 1],
            a_vals=[1.0, 2.0, 3.0, 4.0], w_vals=[0.25, 0.25, 0.25, 0.25],
        )
        rng = np.random.default_rng(123)
        draws = draw_many(data.sampler, rng, 100000)
        counts = np.bincount(draws, minlength=4)
        freqs = counts / 100000.0
        assert np.all(np.abs(freqs - 0.25) <= 0.01)
        # chi-square GoF, 3 dof; critical value at alpha = 0.001 is 16.266
        stat = float(np.sum((counts - 25000.0) ** 2 / 25000.0))
        assert stat < 16.266

    def test_seeded_determinism(self):
        data = random_data(6, 5, 2, 15, seed=5)
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        seq1 = [sample_index(data, rng1) for _ in range(30)]
        seq2 = [sample_index(data, rng2) for _ in range(30)]
        assert seq1 == seq2

    @pytest.mark.parametrize("pattern", ["uniform", "binary", "random"])
    def test_alias_table_equals_reference_build(self, pattern):
        n = 5000
        rng = np.random.default_rng(12)
        if pattern == "uniform":
            probs = np.full(n, 0.5)
        elif pattern == "binary":
            tm = TripletMatrix(1, n, np.zeros(n, int), np.arange(n), np.zeros(n))
            probs = binary_weights(tm)
        else:
            probs = rng.uniform(0.1, 10.0, n)
        sampler = AliasSampler(probs)
        accept, alias = reference_alias_table(probs)
        assert np.array_equal(sampler.accept, accept)
        assert np.array_equal(sampler.alias, alias)

    def test_alias_table_matches_probabilities(self):
        probs = np.array([0.5, 0.3, 0.2])
        sampler = AliasSampler(probs)
        rng = np.random.default_rng(11)
        draws = draw_many(sampler, rng, 200000)
        freqs = np.bincount(draws, minlength=3) / 200000.0
        assert np.all(np.abs(freqs - probs) <= 0.01)


def reference_alias_table(probs):
    """The alias-table construction as first written, one numpy cell at a time."""
    n = probs.size
    scaled = probs * (n / probs.sum())
    accept = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    for i in small + large:
        accept[i] = 1.0
    return accept, alias


def fd_manifold(cost, p, grad, rng, n_dirs=20, h=1e-6, rel_tol=1e-5):
    """Central differences along retracted tangent directions."""
    for _ in range(n_dirs):
        d = random_tangent(p, rng)
        num = (cost(retract(p, d.scaled(h))) - cost(retract(p, d.scaled(-h)))) / (2 * h)
        ana = grad.inner(d)
        assert abs(num - ana) <= rel_tol * max(1.0, abs(ana))


def fd_euclidean(cost, f, grad, rng, n_dirs=20, h=1e-6, rel_tol=1e-5):
    for _ in range(n_dirs):
        d = FactorPair(rng.standard_normal(f.x.shape), rng.standard_normal(f.y.shape))
        num = (cost(f.add_scaled(d, h)) - cost(f.add_scaled(d, -h))) / (2 * h)
        ana = grad.inner(d)
        assert abs(num - ana) <= rel_tol * max(1.0, abs(ana))


class TestStochGradManifold:
    def test_scalar_hand_case(self):
        g = stoch_grad_manifold(scalar_point(), 0, scalar_data(), 0.5)
        assert g.du[0, 0] == 0.0 and g.dv[0, 0] == 0.0
        np.testing.assert_allclose(g.dx, [-1.0])

    def test_zero_at_interpolation_without_reg(self):
        data = scalar_data(a=2.0)
        p = scalar_point(x=2.0)
        g = stoch_grad_manifold(p, 0, data, 0.0)
        assert g.norm() == 0.0

    def test_finite_differences(self):
        rng = np.random.default_rng(21)
        data = random_data(8, 6, 2, 20, seed=21)
        p = random_point(8, 6, 2, rng)
        lam = 0.3
        g = stoch_grad_manifold(p, 3, data, lam)
        fd_manifold(lambda q: sample_cost_manifold(q, 3, data, lam), p, g, rng)

    def test_lives_in_tangent_space(self):
        rng = np.random.default_rng(22)
        data = random_data(8, 6, 2, 20, seed=22)
        p = random_point(8, 6, 2, rng)
        g = stoch_grad_manifold(p, 0, data, 0.1)
        assert tangent_defect(p.u, g.du) <= 1e-10
        assert tangent_defect(p.v, g.dv) <= 1e-10


class TestStochGradAtFactoredPoint:
    """At a FactoredPoint the per-sample gradients return the point's rows
    and their non-zero ambient rows; placed and projected, the latter are the
    dense tangent."""

    @pytest.mark.parametrize("grad, full", [(stoch_grad_manifold, False), (stoch_grad_pw, True)])
    def test_rows_project_to_dense_tangent(self, grad, full):
        rng = np.random.default_rng(26)
        data = random_data(8, 6, 2, 48 if full else 20, seed=26, full=full, min_w=0.5)
        p = random_point(8, 6, 2, rng)
        lam = 0.2 * float(data.w_vals.min())
        for t in (0, 5, data.nnz - 1):
            rows, g, dx = grad(FactoredPoint(p), t, data, lam)
            i, j = data.rows[t], data.cols[t]
            np.testing.assert_array_equal(rows, [p.u[i], p.v[j]])
            ambient = ProductTangent(np.zeros_like(p.u), dx, np.zeros_like(p.v))
            ambient.du[i] = g[0]
            ambient.dv[j] = g[1]
            dense = grad(p, t, data, lam)
            projected = project_tangent(p, ambient)
            np.testing.assert_array_equal(projected.du, dense.du)
            np.testing.assert_array_equal(projected.dx, dense.dx)
            np.testing.assert_array_equal(projected.dv, dense.dv)


def add_at_grad_manifold(p, data, lam):
    """The np.add.at form of full_grad_manifold, kept as the reference for the
    column-wise bincounts that replaced it."""
    rows, cols = data.rows, data.cols
    e = -2.0 * data.w_vals * (data.a_vals - np.einsum("tk,k,tk->t", p.u[rows], p.x, p.v[cols]))
    gu = np.zeros_like(p.u)
    gv = np.zeros_like(p.v)
    np.add.at(gu, rows, e[:, None] * (p.x * p.v[cols]))
    np.add.at(gv, cols, e[:, None] * (p.x * p.u[rows]))
    gx = (e[:, None] * (p.u[rows] * p.v[cols])).sum(axis=0) + 2.0 * lam * p.x
    return project_tangent(p, ProductTangent(gu, gx, gv))


def add_at_grad_euclidean(f, data, lam):
    """The np.add.at form of full_grad_euclidean (reference)."""
    rows, cols = data.rows, data.cols
    e = -2.0 * data.w_vals * (data.a_vals - np.einsum("tk,tk->t", f.x[rows], f.y[cols]))
    gx = 2.0 * lam * f.x.copy()
    gy = 2.0 * lam * f.y.copy()
    np.add.at(gx, rows, e[:, None] * f.y[cols])
    np.add.at(gy, cols, e[:, None] * f.x[rows])
    return FactorPair(gx, gy)


# Largest max-abs relative difference allowed, slot by slot, between the
# bincount gradients and the np.add.at reference.
KERNEL_SWAP_RTOL = 1e-13


def holey_data(m, n, k, seed):
    """About 40% of an m-by-n matrix observed, in shuffled cell order, with
    row 3 and column 2 unobserved and every fifth cell weighted zero; more
    than two SUPPORT_BLOCKs of cells."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < 0.4
    mask[3, :] = False
    mask[:, 2] = False
    rows, cols = np.nonzero(mask)
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    w = 0.5 + rng.random(rows.size)
    w[::5] = 0.0
    w /= w.sum()
    return ProblemData(
        m=m, n=n, k=k, rows=rows, cols=cols, a_vals=rng.standard_normal(rows.size), w_vals=w
    )


def assert_slots_close(got, want):
    for g, r in zip(got, want):
        assert np.abs(g - r).max() <= KERNEL_SWAP_RTOL * np.abs(r).max()


class TestFullGradKernelSwap:
    """Both routes of the full gradients against the np.add.at reference."""

    @pytest.mark.parametrize("k", [1, 4])
    def test_manifold_matches_add_at(self, monkeypatch, k):
        holey = holey_data(500, 50, k, seed=60 + k)
        assert holey.nnz > 2 * SUPPORT_BLOCK
        assert np.any(np.diff(holey.rows) < 0)  # cells are not sorted
        p = random_point(500, 50, k, np.random.default_rng(61))
        p = ProductPoint(p.u, 3.0 * p.x, p.v)
        want = add_at_grad_manifold(p, holey, 0.05)
        for route in ROUTE_FILL:
            got = full_grad_manifold(p, on_route(holey, route, monkeypatch), 0.05)
            assert_slots_close((got.du, got.dx, got.dv), (want.du, want.dx, want.dv))

    @pytest.mark.parametrize("k", [1, 4])
    def test_euclidean_matches_add_at(self, monkeypatch, k):
        holey = holey_data(500, 50, k, seed=70 + k)
        assert holey.nnz > 2 * SUPPORT_BLOCK
        rng = np.random.default_rng(71)
        f = FactorPair(rng.standard_normal((500, k)), rng.standard_normal((50, k)))
        lam = 0.05
        want = add_at_grad_euclidean(f, holey, lam)
        for route in ROUTE_FILL:
            got = full_grad_euclidean(f, on_route(holey, route, monkeypatch), lam)
            assert_slots_close((got.x, got.y), (want.x, want.y))
            # no observed cell: only the regularization term remains
            np.testing.assert_array_equal(got.x[3], 2.0 * lam * f.x[3])
            np.testing.assert_array_equal(got.y[2], 2.0 * lam * f.y[2])


def duplicated_data(seed):
    """A 60x30 instance, about 40% observed, in which five cells appear twice
    (with different values and weights) and one cell three times."""
    rng = np.random.default_rng(seed)
    flat = rng.choice(60 * 30, size=720, replace=False)
    flat = np.concatenate([flat, flat[:5], flat[7:8], flat[7:8]])
    rng.shuffle(flat)
    w = 0.5 + rng.random(flat.size)
    w /= w.sum()
    return ProblemData(
        m=60, n=30, k=3, rows=flat // 30, cols=flat % 30,
        a_vals=rng.standard_normal(flat.size), w_vals=w,
    )


def residual_case(instance, route, monkeypatch):
    """A `TestRoutes` instance on `route`, a point p and the full gradients
    at p and at a factor pair, each as (source, grad(residual))."""
    base = {
        "holey": lambda: holey_data(300, 40, 3, seed=87),
        "duplicated": lambda: duplicated_data(88),
        "full": lambda: random_data(12, 9, 3, 0, seed=89, full=True, min_w=0.5),
    }[instance]()
    data = on_route(base, route, monkeypatch)
    m, n, k = base.m, base.n, base.k
    rng = np.random.default_rng(90)
    p = random_point(m, n, k, rng)
    p = ProductPoint(p.u, 3.0 * p.x, p.v)
    f = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
    grads = [
        (p, lambda r: full_grad_manifold(p, data, 0.05, r)),
        (f, lambda r: full_grad_euclidean(f, data, 0.05, r)),
    ]
    if instance == "full":
        grads.append((p, lambda r: full_grad_pw(p, data, r)))
    return data, p, grads


def own_residual_weights(source, data):
    """e_t = -2 w_t (a_t - p_t) from the gradient's own prediction pass: the
    full gradients' residual weights before they took a cost pass's residual."""
    if data.cells is not None:
        e = wlra.model._grid_entries(source, data)
        np.subtract(data.a_vals, e, out=e)
        return np.multiply(e, -2.0 * data.w_vals, out=e)
    e = np.empty(data.nnz)
    for start in range(0, data.nnz, SUPPORT_BLOCK):
        cells = slice(start, start + SUPPORT_BLOCK)
        pred = wlra.model._entries(source, data.rows[cells], data.cols[cells])
        e[cells] = -2.0 * data.w_vals[cells] * (data.a_vals[cells] - pred)
    return e


class TestRoutes:
    """The dense-grid and gather routes of the support passes agree."""

    @pytest.mark.parametrize("instance", ["holey", "duplicated"])
    def test_routes_agree(self, monkeypatch, instance):
        base = holey_data(300, 40, 3, seed=80) if instance == "holey" else duplicated_data(81)
        dense, gather = (on_route(base, r, monkeypatch) for r in ("dense", "gather"))
        m, n, k = base.m, base.n, base.k
        rng = np.random.default_rng(82)
        p = random_point(m, n, k, rng)
        p = ProductPoint(p.u, 3.0 * p.x, p.v)
        f = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
        for source in (p, f):
            a, b = cost_unregularized(source, dense), cost_unregularized(source, gather)
            assert abs(a - b) <= KERNEL_SWAP_RTOL * b
        got, want = full_grad_manifold(p, dense, 0.05), full_grad_manifold(p, gather, 0.05)
        assert_slots_close((got.du, got.dx, got.dv), (want.du, want.dx, want.dv))
        got, want = full_grad_euclidean(f, dense, 0.05), full_grad_euclidean(f, gather, 0.05)
        assert_slots_close((got.x, got.y), (want.x, want.y))

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("instance", ["holey", "duplicated", "full"])
    def test_residual_fed_gradients_are_bit_identical(self, monkeypatch, instance, route):
        # The residual a - p that a cost evaluation leaves stands in for the
        # gradient's own prediction pass, with zero-weight and repeated cells.
        data, p, grads = residual_case(instance, route, monkeypatch)
        for source, grad in grads:
            residual = np.full(data.nnz, np.nan)
            assert cost_unregularized(source, data, residual) == cost_unregularized(source, data)
            pred = np.einsum("tk,tk->t", *(
                (source.u[data.rows] * source.x, source.v[data.cols])
                if source is p else (source.x[data.rows], source.y[data.cols])
            ))
            np.testing.assert_allclose(residual, data.a_vals - pred, rtol=1e-12, atol=1e-12)
            got, want = grad(residual), grad(None)
            for a, b in zip(dataclasses.astuple(got), dataclasses.astuple(want)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("instance", ["holey", "duplicated", "full"])
    def test_gradients_match_own_prediction_pass(self, monkeypatch, instance, route):
        # With no residual given, a gradient takes one from a cost pass; it
        # equals the gradient whose residual weights formed the predictions
        # themselves, on both routes.
        data, _, grads = residual_case(instance, route, monkeypatch)
        got = [grad(None) for _, grad in grads]
        own = lambda source, data, _: own_residual_weights(source, data)
        monkeypatch.setattr(wlra.model, "_residual_weights", own)
        for a, (_, grad) in zip(got, grads):
            for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(grad(None))):
                np.testing.assert_array_equal(x, y)

    def test_duplicated_cells_sum(self, monkeypatch):
        # np.add.at adds every copy of a cell, so it is the reference here
        base = duplicated_data(83)
        p = random_point(60, 30, 3, np.random.default_rng(84))
        want = add_at_grad_manifold(p, base, 0.05)
        for route in ROUTE_FILL:
            got = full_grad_manifold(p, on_route(base, route, monkeypatch), 0.05)
            assert_slots_close((got.du, got.dx, got.dv), (want.du, want.dx, want.dv))

    @pytest.mark.parametrize("nnz, route", [(8, "dense"), (7, "gather")])
    def test_rule_boundary(self, nnz, route):
        # m * n == DENSE_FILL * nnz is dense; one cell fewer is gather
        m, n = DENSE_FILL, 8
        data = random_data(m, n, 2, nnz, seed=85)
        assert m * n == DENSE_FILL * 8
        assert (data.cells is None) == (route == "gather")
        zero = FactorPair(np.zeros((m, 2)), np.zeros((n, 2)))
        assert cost_unregularized(zero, data) == float(np.dot(data.w_vals, data.a_vals**2))

    def test_cells_read_only(self):
        data = random_data(5, 4, 2, 12, seed=86)
        np.testing.assert_array_equal(data.cells, data.rows * 4 + data.cols)
        with pytest.raises(ValueError):
            data.cells[0] = 0

    def test_neg_2w_cached_and_read_only(self):
        data = random_data(5, 4, 2, 12, seed=86)
        np.testing.assert_array_equal(data.neg_2w, -2.0 * data.w_vals)
        assert data.neg_2w is data.neg_2w
        with pytest.raises(ValueError):
            data.neg_2w[0] = 0


class TestFullGradManifold:
    def test_finite_differences(self):
        rng = np.random.default_rng(23)
        data = random_data(8, 6, 2, 24, seed=23)
        p = random_point(8, 6, 2, rng)
        lam = 0.05
        g = full_grad_manifold(p, data, lam)
        fd_manifold(lambda q: regularized_cost(q, data, lam), p, g, rng)

    def test_zero_at_representable_fit(self):
        rng = np.random.default_rng(24)
        p = random_point(6, 4, 2, rng)
        dense = assemble(p)
        rows, cols = np.nonzero(np.ones((6, 4)))
        w = np.full(rows.size, 1.0 / rows.size)
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=6, n=4, k=2, rows=rows, cols=cols,
            a_vals=dense[rows, cols], w_vals=w,
        )
        assert full_grad_manifold(p, data, 0.0).norm() <= 1e-12

    def test_unbiasedness(self):
        rng = np.random.default_rng(25)
        data = random_data(4, 3, 2, 10, seed=25)
        p = random_point(4, 3, 2, rng)
        lam = 0.4
        acc = ProductTangent(np.zeros((4, 2)), np.zeros(2), np.zeros((3, 2)))
        for t in range(data.nnz):
            g = stoch_grad_manifold(p, t, data, lam)
            w = data.w_vals[t]
            acc = ProductTangent(acc.du + w * g.du, acc.dx + w * g.dx, acc.dv + w * g.dv)
        full = full_grad_manifold(p, data, lam)
        diff = ProductTangent(acc.du - full.du, acc.dx - full.dx, acc.dv - full.dv)
        assert diff.norm() <= 1e-12


class TestGradEuclidean:
    def test_scalar_hand_case(self):
        f = FactorPair(np.array([[1.0]]), np.array([[1.0]]))
        g = stoch_grad_euclidean(f, 0, scalar_data(), 0.5)
        np.testing.assert_allclose(g.x, [[-1.0]])
        np.testing.assert_allclose(g.y, [[-1.0]])

    def test_zero_at_fit_without_reg(self):
        data = scalar_data(a=2.0)
        f = FactorPair(np.array([[1.0]]), np.array([[2.0]]))
        g = stoch_grad_euclidean(f, 0, data, 0.0)
        assert g.norm() == 0.0

    def test_stoch_finite_differences(self):
        rng = np.random.default_rng(26)
        data = random_data(8, 6, 2, 20, seed=26)
        f = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((6, 2)))
        lam = 0.2
        g = stoch_grad_euclidean(f, 5, data, lam)
        fd_euclidean(lambda q: sample_cost_euclidean(q, 5, data, lam), f, g, rng)

    def test_full_finite_differences(self):
        rng = np.random.default_rng(27)
        data = random_data(8, 6, 2, 22, seed=27)
        f = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((6, 2)))
        lam = 0.2
        g = full_grad_euclidean(f, data, lam)
        fd_euclidean(lambda q: regularized_cost(q, data, lam), f, g, rng)

    def test_full_zero_at_representable_fit(self):
        rng = np.random.default_rng(28)
        f = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((4, 2)))
        dense = f.x @ f.y.T
        rows, cols = np.nonzero(np.ones((6, 4)))
        w = np.full(rows.size, 1.0 / rows.size)
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=6, n=4, k=2, rows=rows, cols=cols, a_vals=dense[rows, cols], w_vals=w
        )
        assert full_grad_euclidean(f, data, 0.0).norm() <= 1e-12

    def test_unbiasedness(self):
        rng = np.random.default_rng(29)
        data = random_data(4, 3, 2, 9, seed=29)
        f = FactorPair(rng.standard_normal((4, 2)), rng.standard_normal((3, 2)))
        lam = 0.15
        acc = FactorPair(np.zeros((4, 2)), np.zeros((3, 2)))
        for t in range(data.nnz):
            g = stoch_grad_euclidean(f, t, data, lam)
            acc = acc.add_scaled(g, float(data.w_vals[t]))
        full = full_grad_euclidean(f, data, lam)
        assert acc.add_scaled(full, -1.0).norm() <= 1e-12


class TestScaledPair:
    """The shared-scale Euclidean SGD state against the dense FactorPair forms."""

    def stepped(self, seed, lam=0.3):
        """A ScaledPair whose scale is no longer 1, with its data and pair."""
        rng = np.random.default_rng(seed)
        data = random_data(8, 6, 2, 20, seed=seed)
        start = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((6, 2)))
        state = ScaledPair(start, lam)
        state.step(3, 4, (rng.standard_normal(2), rng.standard_normal(2)), -0.1)
        assert state.scale == 1.0 - 0.2 * lam
        return data, state, state.pair()

    def test_rows_at_scaled_pair_are_the_dense_data_rows(self):
        data, state, f = self.stepped(40)
        lam = 0.2
        for t in range(data.nnz):
            i, j = data.rows[t], data.cols[t]
            gx_i, gy_j = stoch_grad_euclidean(state, t, data, lam)
            assembled = f.scaled(2.0 * lam)
            assembled.x[i] += gx_i
            assembled.y[j] += gy_j
            dense = stoch_grad_euclidean(f, t, data, lam)
            assert assembled.add_scaled(dense, -1.0).norm() <= 1e-14 * dense.norm()

    def test_step_matches_dense_step(self):
        lam, s = 0.2, -0.3
        data, state, f = self.stepped(41, lam)
        for t in (0, 7, 19):
            expected = f.add_scaled(stoch_grad_euclidean(f, t, data, lam), s)
            rows = stoch_grad_euclidean(state, t, data, lam)
            state.step(data.rows[t], data.cols[t], rows, s)
            f = state.pair()
            np.testing.assert_allclose(f.x, expected.x, rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(f.y, expected.y, rtol=1e-13, atol=1e-15)

    def test_step_leaves_the_start_pair_and_views_alone(self):
        rng = np.random.default_rng(42)
        start = FactorPair(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
        before = FactorPair(start.x.copy(), start.y.copy())
        state = ScaledPair(start, 0.5)
        assert state.pair() is start
        state.step(0, 0, (np.ones(2), np.ones(2)), -0.1)
        view = state.pair()
        assert state.pair() is view  # cached until the next step
        view_before = FactorPair(view.x.copy(), view.y.copy())
        state.step(1, 1, (np.ones(2), np.ones(2)), -0.1)
        for got, want in ((start, before), (view, view_before)):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)

    @pytest.mark.parametrize(
        "s, lam, fold_scale",
        [(-1.0, 0.5, None), (-2.0, 0.5, None), (np.nan, 0.5, None), (-0.25, 0.5, 0.8)],
        ids=["shrink_zero", "shrink_negative", "shrink_nan", "below_fold_scale"],
    )
    def test_fold_takes_the_dense_step(self, monkeypatch, s, lam, fold_scale):
        if fold_scale is not None:
            monkeypatch.setattr(wlra.model, "FOLD_SCALE", fold_scale)
        _, state, f = self.stepped(43, lam)
        # The dense step along data rows of ones at cell (0, 0).
        g = f.scaled(2.0 * lam)
        g.x[0] += 1.0
        g.y[0] += 1.0
        expected = f.add_scaled(g, s)
        state.step(0, 0, (np.ones(2), np.ones(2)), s)
        got = state.pair()
        assert state.scale == 1.0
        if np.isnan(s):
            assert np.isnan(expected.x).all() and np.isnan(expected.y).all()
            assert np.isnan(got.x).all() and np.isnan(got.y).all()
            return
        np.testing.assert_allclose(got.x, expected.x, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(got.y, expected.y, rtol=1e-13, atol=1e-15)

    def test_confinement_reads_the_scale(self):
        _, state, f = self.stepped(44)
        got, want = confinement_euclidean(state), confinement_euclidean(f)
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("sync_steps", [None, 10**5], ids=["synced", "never_synced"])
    def test_running_sq_norm_tracks_the_bases(self, monkeypatch, sync_steps):
        # 10^4 steps with a read before each, as the adaptive gate reads it;
        # the row-by-row value stays within 1e-12 of the exact one even when
        # it is never recomputed, and a fold makes it exact.
        if sync_steps is not None:
            monkeypatch.setattr(wlra.model, "SYNC_STEPS", sync_steps)
        rng = np.random.default_rng(45)
        start = FactorPair(rng.standard_normal((300, 4)), rng.standard_normal((40, 4)))
        state = ScaledPair(start, 0.1)
        worst = 0.0
        for step in range(10**4):
            exact = float(np.vdot(state.x_base, state.x_base) + np.vdot(state.y_base, state.y_base))
            worst = max(worst, abs(state.sq_norm() - exact) / exact)
            i, j = int(rng.integers(300)), int(rng.integers(40))
            state.step(i, j, rng.standard_normal((2, 4)), -0.5 / (step + 10))
        assert worst <= 1e-12
        state.sq_norm()
        state.step(0, 0, np.ones((2, 4)), -100.0)  # the shrink 1 - 20 is negative: a fold
        assert state.scale == 1.0
        exact = float(np.vdot(state.x_base, state.x_base) + np.vdot(state.y_base, state.y_base))
        assert state.sq_norm() == exact


class TestGradPositiveWeights:
    def test_scalar_hand_case(self):
        g = stoch_grad_pw(scalar_point(), 0, scalar_data(), 0.5)
        np.testing.assert_allclose(g.dx, [-2.0])

    def test_lambda_at_boundary_rejected(self):
        data = random_data(4, 3, 2, 12, seed=30, full=True, min_w=0.5)
        p = random_point(4, 3, 2, np.random.default_rng(30))
        w0 = float(data.w_vals.min())
        with pytest.raises(LambdaOutOfRange):
            stoch_grad_pw(p, 0, data, w0)

    def test_partial_support_rejected(self):
        data = random_data(4, 3, 2, 6, seed=31)
        p = random_point(4, 3, 2, np.random.default_rng(31))
        with pytest.raises(NonPositiveWeight):
            stoch_grad_pw(p, 0, data, 1e-3)

    def test_stoch_finite_differences(self):
        rng = np.random.default_rng(32)
        data = random_data(8, 6, 2, 48, seed=32, full=True, min_w=0.5)
        p = random_point(8, 6, 2, rng)
        lam = 0.3 * float(data.w_vals.min())
        g = stoch_grad_pw(p, 7, data, lam)
        fd_manifold(lambda q: sample_cost_pw(q, 7, data, lam), p, g, rng)

    def test_full_finite_differences(self):
        rng = np.random.default_rng(33)
        data = random_data(8, 6, 2, 48, seed=33, full=True, min_w=0.5)
        p = random_point(8, 6, 2, rng)
        g = full_grad_pw(p, data)
        fd_manifold(lambda q: cost_unregularized(q, data), p, g, rng)

    def test_full_zero_at_representable_fit(self):
        rng = np.random.default_rng(34)
        p = random_point(6, 4, 2, rng)
        dense = assemble(p)
        rows, cols = np.nonzero(np.ones((6, 4)))
        w = 0.5 + np.random.default_rng(34).random(rows.size)
        w /= w.sum()
        w[-1] = 1.0 - w[:-1].sum()
        data = ProblemData(
            m=6, n=4, k=2, rows=rows, cols=cols, a_vals=dense[rows, cols], w_vals=w
        )
        assert full_grad_pw(p, data).norm() <= 1e-11

    def test_unbiasedness_against_raw_cost_gradient(self):
        # the weighted sum of per-sample gradients must equal the gradient
        # of the raw cost, i.e. full_grad_pw (no regularizer term)
        rng = np.random.default_rng(35)
        data = random_data(4, 3, 2, 12, seed=35, full=True, min_w=0.5)
        p = random_point(4, 3, 2, rng)
        lam = 0.4 * float(data.w_vals.min())
        acc = ProductTangent(np.zeros((4, 2)), np.zeros(2), np.zeros((3, 2)))
        for t in range(data.nnz):
            g = stoch_grad_pw(p, t, data, lam)
            w = data.w_vals[t]
            acc = ProductTangent(acc.du + w * g.du, acc.dx + w * g.dx, acc.dv + w * g.dv)
        full = full_grad_pw(p, data)
        diff = ProductTangent(acc.du - full.du, acc.dx - full.dx, acc.dv - full.dv)
        assert diff.norm() <= 1e-12

    def test_matches_entrywise_route_at_lambda_zero(self):
        # full_grad_pw against the manifold gradient at lam = 0 (the dense
        # Hadamard-product form is checked in TestFullGradPwKernelSwap)
        rng = np.random.default_rng(36)
        data = random_data(7, 5, 3, 35, seed=36, full=True, min_w=0.5)
        p = random_point(7, 5, 3, rng)
        dense_route = full_grad_pw(p, data)
        sum_route = full_grad_manifold(p, data, 0.0)
        diff = ProductTangent(
            dense_route.du - sum_route.du,
            dense_route.dx - sum_route.dx,
            dense_route.dv - sum_route.dv,
        )
        assert diff.norm() <= 1e-12


def hadamard_grad_pw(p, data):
    """The dense Hadamard-product form of full_grad_pw, kept as the reference
    for the lam = 0 manifold gradient that replaced it."""
    w = np.zeros((data.m, data.n))
    w[data.rows, data.cols] = data.w_vals
    e = -2.0 * w * (data.dense() - (p.u * p.x) @ p.v.T)
    gu = e @ (p.v * p.x)
    gv = e.T @ (p.u * p.x)
    gx = np.einsum("il,ij,jl->l", p.u, e, p.v)
    return project_tangent(p, ProductTangent(gu, gx, gv))


class TestFullGradPwKernelSwap:
    def test_matches_hadamard_reference_on_both_routes(self, monkeypatch):
        full = random_data(40, 25, 3, 0, seed=37, full=True, min_w=0.1)
        p = random_point(40, 25, 3, np.random.default_rng(38))
        p = ProductPoint(p.u, 3.0 * p.x, p.v)
        want = hadamard_grad_pw(p, full)
        assert full.cells is not None  # a fully observed matrix takes the dense route
        for route in ROUTE_FILL:
            got = full_grad_pw(p, on_route(full, route, monkeypatch))
            assert_slots_close((got.du, got.dx, got.dv), (want.du, want.dx, want.dv))


class TestExpectationIdentities:
    def test_per_sample_costs_average_to_full_costs(self):
        rng = np.random.default_rng(37)
        data = random_data(6, 5, 2, 18, seed=37)
        p = random_point(6, 5, 2, rng)
        f = FactorPair(rng.standard_normal((6, 2)), rng.standard_normal((5, 2)))
        lam = 0.25
        g_mean = sum(
            w * sample_cost_manifold(p, t, data, lam)
            for t, w in enumerate(data.w_vals)
        )
        assert abs(g_mean - regularized_cost(p, data, lam)) <= 1e-12
        h_mean = sum(
            w * sample_cost_euclidean(f, t, data, lam)
            for t, w in enumerate(data.w_vals)
        )
        assert abs(h_mean - regularized_cost(f, data, lam)) <= 1e-12

    def test_pw_per_sample_cost_averages_to_raw_cost(self):
        rng = np.random.default_rng(38)
        data = random_data(5, 4, 2, 20, seed=38, full=True, min_w=0.5)
        p = random_point(5, 4, 2, rng)
        lam = 0.3 * float(data.w_vals.min())
        mean = sum(
            w * sample_cost_pw(p, t, data, lam)
            for t, w in enumerate(data.w_vals)
        )
        assert abs(mean - cost_unregularized(p, data)) <= 1e-12


class TestConfinement:
    def test_values(self):
        p = ProductPoint(np.eye(4)[:, :2], [3.0, 4.0], np.eye(3)[:, :2])
        assert confinement_manifold(p) == 25.0
        f = FactorPair(np.zeros((3, 2)), np.zeros((2, 2)))
        assert confinement_euclidean(f) == 0.0

    def test_equals_squared_frobenius_of_assembled(self):
        rng = np.random.default_rng(39)
        p = random_point(7, 6, 3, rng)
        assert abs(confinement_manifold(p) - np.linalg.norm(assemble(p)) ** 2) <= 1e-10

    def test_outward_slope_nonnegative_beyond_rho0(self):
        # <grad rho, stoch grad> = -4 (a - p) p + 4 lam ||x||^2, which must be
        # non-negative once ||x||^2 >= alpha / (4 lam)
        rng = np.random.default_rng(40)
        data = random_data(6, 5, 2, 18, seed=40)
        lam = 0.05
        alpha = float(np.max(data.a_vals**2))
        rho0 = alpha / (4.0 * lam)
        for _ in range(50):
            p = random_point(6, 5, 2, rng)
            scale = np.sqrt(rho0 / confinement_manifold(p))
            p = ProductPoint(p.u, p.x * scale, p.v)
            t = int(rng.integers(data.nnz))
            g = stoch_grad_manifold(p, t, data, lam)
            rho_grad = ProductTangent(np.zeros_like(p.u), 2.0 * p.x, np.zeros_like(p.v))
            assert rho_grad.inner(g) >= -1e-10

    def test_euclidean_outward_slope(self):
        rng = np.random.default_rng(41)
        data = random_data(5, 4, 2, 14, seed=41)
        lam = 0.05
        alpha = float(np.max(data.a_vals**2))
        rho0 = alpha / (2.0 * lam)
        for _ in range(50):
            f = FactorPair(rng.standard_normal((5, 2)), rng.standard_normal((4, 2)))
            scale = np.sqrt(rho0 / confinement_euclidean(f))
            f = f.scaled(scale)
            t = int(rng.integers(data.nnz))
            g = stoch_grad_euclidean(f, t, data, lam)
            rho_grad = FactorPair(2.0 * f.x, 2.0 * f.y)
            assert rho_grad.inner(g) >= -1e-10
