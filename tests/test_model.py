import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

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
    project_tangent,
    retract,
)
from wlra.data_io import TripletMatrix, binary_weights
from wlra.model import (
    DENSE_FILL,
    GRID_BLOCK,
    SUPPORT_BLOCK,
    CdfSampler,
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
from wlra.solvers import Budget, SolverConfig, sgd_pw
from wlra.step_policy import PolicyKind, make_policy

from helpers import (
    assemble,
    dense,
    dense_stoch_grad_euclidean,
    dense_stoch_grad_manifold,
    dense_stoch_grad_pw,
    draw_many,
    full_grid_entries,
    full_grid_sums,
    grid_cells,
    per_pass_grid_entries,
    per_pass_grid_sums,
    point_entries,
    random_point,
    random_tangent,
    regularized_cost,
    sample_cost_euclidean,
    sample_cost_manifold,
    sample_cost_pw,
    sampled_pair,
    sampled_tangent,
    tangent_defect,
)


# DENSE_FILL values that send any instance down one route.
ROUTE_FILL = {"dense": 10**18, "gather": 0}


def on_route(data, route, monkeypatch):
    """A fresh copy of `data` whose support passes take `route`."""
    monkeypatch.setattr(wlra.model, "DENSE_FILL", ROUTE_FILL[route])
    copy = dataclasses.replace(data)
    assert (copy.grid_blocks is None) == (route == "gather")
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

    @pytest.mark.parametrize("big", [1.4e154, -3e200, 1.7976931348623157e308])
    def test_value_whose_square_overflows_rejected(self, big):
        # alpha = max a^2 would be inf, and with it every step-size bound
        with pytest.raises(ShapeMismatch, match=re.escape(f"observed value {big!r} overflows")):
            ProblemData(
                m=2, n=2, k=1, rows=[0, 1], cols=[0, 1],
                a_vals=[1e150, big], w_vals=[0.5, 0.5],
            )
        # the largest value whose square is finite is accepted
        ProblemData(m=1, n=1, k=1, rows=[0], cols=[0], a_vals=[-1.3e154], w_vals=[1.0])

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


def binary_probs(n):
    tm = TripletMatrix(1, n, np.zeros(n, int), np.arange(n), np.zeros(n))
    return binary_weights(tm)


def remainder_probs(n):
    """Equal weights 1/n with the rounding remainder in the last cell."""
    w = np.full(n, 1.0 / n)
    w[-1] = 1.0 - w[:-1].sum()
    return w


def one_heavy(n, share=0.3):
    probs = np.ones(n)
    probs[n // 3] = share * n
    return probs


def zipf_probs(n, exponent=0.9):
    return np.random.default_rng(12).permutation(1.0 / np.arange(1, n + 1) ** exponent)


def spread_probs(n):
    return np.random.default_rng(12).uniform(0.1, 10.0, n)


def pareto_probs(n):
    return np.random.default_rng(12).pareto(1.0, n) + 1e-3


def two_tiers(n):
    # 1% of cells weigh 200, the rest 1.
    return np.where(np.random.default_rng(12).random(n) < 0.01, 200.0, 1.0)


# Weight patterns for the sampler. Uniform and binary weights take the
# equal-weight draw; the rest build cumulative sums, remainder weights too,
# whose last cell takes the rounding remainder.
ALIAS_PATTERNS = {
    "uniform": lambda: np.full(5000, 0.5),
    "binary": lambda: binary_probs(5000),
    "random": lambda: spread_probs(5000),
    "binary-remainder-large": lambda: remainder_probs(46228),
    "binary-remainder-small": lambda: remainder_probs(45000),
    "one-heavy": lambda: one_heavy(2000),
    "zipf": lambda: zipf_probs(5000),
    "two-tiers": lambda: two_tiers(20000),
    "run-beyond-block": lambda: one_heavy(3 * SUPPORT_BLOCK + 5),
    "n1": lambda: np.array([0.7]),
    "n2": lambda: np.array([0.3, 0.7]),
    "spread-200003": lambda: spread_probs(200003),
    # Heavy-tailed: a few cells hold most of the total.
    "pareto": lambda: pareto_probs(5000),
}


class FixedUniform:
    """A generator stand-in whose every draw inverts one uniform `value`."""

    def __init__(self, value):
        self.value = value

    def integers(self, low, high):
        return low + int(self.value * (high - low))

    def random(self):
        return self.value


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

    @pytest.mark.parametrize("pattern", sorted(ALIAS_PATTERNS))
    def test_alias_table_holds_each_cells_mass(self, pattern):
        # Cell i's mass, its span of the cumulative sums over the total, is
        # p_i / sum(p) within one rounding per partial sum and the total's drift.
        probs = ALIAS_PATTERNS[pattern]()
        assert span_error(CdfSampler(probs), probs) <= (probs.size + 2) * 2.0**-53

    def test_pareto_spans_hold_each_cells_mass(self):
        rng = np.random.default_rng(33)
        sizes = [1, 20000, *np.exp(rng.uniform(0.0, math.log(20000), 38)).astype(int)]
        for n in sizes:
            probs = rng.pareto(1.0, n) + 1e-3
            assert span_error(CdfSampler(probs), probs) <= (n + 2) * 2.0**-53, n

    def test_draw_ends_on_the_first_and_last_positive_cells(self):
        # Zero weights lead, trail and sit inside; u = 0 draws the first
        # positive cell and the largest u below 1 the last, never one past it.
        w = np.array([0.0, 0.0, 0.2, 0.0, 0.5, 0.3, 0.0])
        data = ProblemData(
            m=1, n=7, k=1, rows=np.zeros(7, int), cols=np.arange(7),
            a_vals=np.zeros(7), w_vals=w,
        )
        assert sample_index(data, FixedUniform(0.0)) == 2
        assert sample_index(data, FixedUniform(np.nextafter(1.0, 0.0))) == 5

    @pytest.mark.parametrize("pattern", sorted(ALIAS_PATTERNS))
    def test_draw_ends_on_the_first_and_last_cells(self, pattern):
        sampler = CdfSampler(ALIAS_PATTERNS[pattern]())
        assert sampler.draw(FixedUniform(0.0)) == 0
        assert sampler.draw(FixedUniform(np.nextafter(1.0, 0.0))) == sampler.n - 1

    def test_zero_weight_cells_never_drawn(self):
        w = np.array([0.0, 0.1, 0.0, 0.0, 0.4, 0.2, 0.0, 0.3, 0.0])
        data = ProblemData(
            m=3, n=3, k=1, rows=np.repeat(np.arange(3), 3), cols=np.tile(np.arange(3), 3),
            a_vals=np.zeros(9), w_vals=w,
        )
        rng = np.random.default_rng(4)
        drawn = {sample_index(data, rng) for _ in range(20000)}
        assert drawn == {1, 4, 5, 7}

    @pytest.mark.parametrize("n", [1, 3, 4999])
    @pytest.mark.parametrize("value", [0.1, 1.0 / 3.0, 7.0])
    def test_equal_weights_take_the_identity_table(self, n, value):
        # Equal weights draw one integers value and then make one random
        # call, as the Walker alias table's identity draw did: the twin
        # generator's sequence, so binary-weight runs keep their samples.
        sampler = CdfSampler(np.full(n, value))
        assert sampler.head is None
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(2000):
            assert sampler.draw(rng) == int(twin.integers(0, n))
            twin.random()
        assert rng.random() == twin.random()

    @pytest.mark.parametrize(
        "make", [remainder_probs, spread_probs], ids=["remainder-200003", "spread-200003"]
    )
    def test_build_holds_one_cumulative_sum(self, make):
        # The cumulative sums at 8 bytes a cell, head a view of them.
        probs = make(200003)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sampler = CdfSampler(probs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sampler.head is not None
        assert peak <= 8 * probs.size + 4096

    def test_spread_draws_chi_square(self):
        probs = spread_probs(50)
        sampler = CdfSampler(probs)
        count = 100000
        counts = np.bincount(draw_many(sampler, np.random.default_rng(8), count), minlength=50)
        expected = count * probs / probs.sum()
        # chi-square GoF, 49 dof; critical value at alpha = 0.001 is 85.351
        assert float(np.sum((counts - expected) ** 2 / expected)) < 85.351

    def test_alias_table_matches_probabilities(self):
        probs = np.array([0.5, 0.3, 0.2])
        sampler = CdfSampler(probs)
        rng = np.random.default_rng(11)
        draws = draw_many(sampler, rng, 200000)
        freqs = np.bincount(draws, minlength=3) / 200000.0
        assert np.all(np.abs(freqs - probs) <= 0.01)


def span_error(sampler, probs) -> float:
    """Largest |(cdf[i] - cdf[i-1]) / total - p_i / sum(p)| over the cells, in
    exact arithmetic: every float is an integer multiple of the smallest power
    of two among their units in the last place, so spans, the exact sum and
    the cross products are Python integers, with no round-off of the
    checker's own."""
    if sampler.head is None:  # the equal-weight draw: 1/n a cell, exactly
        assert np.all(probs == probs[0])
        return 0.0
    floats = np.concatenate((sampler.head, [sampler.total], probs))
    mant, exp = np.frexp(floats)
    exp -= 53
    ints = (mant * 2.0**53).astype(np.int64).astype(object) << (exp - exp.min()).astype(object)
    cdf, probs = ints[: probs.size], ints[probs.size :]
    spans = np.diff(cdf, prepend=0)
    total, exact = cdf[-1], sum(probs.tolist())
    worst = np.abs(spans * exact - probs * total).max()
    return float(Fraction(int(worst), total * exact))


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
        g = sampled_tangent(stoch_grad_manifold, scalar_point(), 0, scalar_data(), 0.5)
        assert g.du[0, 0] == 0.0 and g.dv[0, 0] == 0.0
        np.testing.assert_allclose(g.dx, [-1.0])

    def test_zero_at_interpolation_without_reg(self):
        data = scalar_data(a=2.0)
        p = scalar_point(x=2.0)
        g = sampled_tangent(stoch_grad_manifold, p, 0, data, 0.0)
        assert g.norm() == 0.0

    def test_finite_differences(self):
        rng = np.random.default_rng(21)
        data = random_data(8, 6, 2, 20, seed=21)
        p = random_point(8, 6, 2, rng)
        lam = 0.3
        g = sampled_tangent(stoch_grad_manifold, p, 3, data, lam)
        fd_manifold(lambda q: sample_cost_manifold(q, 3, data, lam), p, g, rng)

    def test_lives_in_tangent_space(self):
        rng = np.random.default_rng(22)
        data = random_data(8, 6, 2, 20, seed=22)
        p = random_point(8, 6, 2, rng)
        g = sampled_tangent(stoch_grad_manifold, p, 0, data, 0.1)
        assert tangent_defect(p.u, g.du) <= 1e-10
        assert tangent_defect(p.v, g.dv) <= 1e-10


class TestStochGradAtFactoredPoint:
    """At a FactoredPoint the per-sample gradients return the point's rows
    and their non-zero ambient rows; placed and projected, the latter are the
    dense reference's tangent."""

    @pytest.mark.parametrize(
        "grad, dense_grad, full",
        [(stoch_grad_manifold, dense_stoch_grad_manifold, False),
         (stoch_grad_pw, dense_stoch_grad_pw, True)],
        ids=["stoch_grad_manifold-False", "stoch_grad_pw-True"],
    )
    def test_rows_project_to_dense_tangent(self, grad, dense_grad, full):
        rng = np.random.default_rng(26)
        data = random_data(8, 6, 2, 48 if full else 20, seed=26, full=full, min_w=0.5)
        p = random_point(8, 6, 2, rng)
        lam = 0.2 * float(data.w_vals.min())
        for t in (0, 5, data.nnz - 1):
            rows, _, _ = grad(FactoredPoint(p), t, data, lam)
            i, j = data.rows[t], data.cols[t]
            np.testing.assert_array_equal(rows, [p.u[i], p.v[j]])
            dense = dense_grad(p, t, data, lam)
            projected = sampled_tangent(grad, p, t, data, lam)
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
    if data.grid_blocks is not None:
        e = wlra.model._grid_entries(*source.factors(), data)
        np.subtract(data.a_vals, e, out=e)
        return np.multiply(e, -2.0 * data.w_vals, out=e)
    e = np.empty(data.nnz)
    for start in range(0, data.nnz, SUPPORT_BLOCK):
        cells = slice(start, start + SUPPORT_BLOCK)
        pred = wlra.model._entries(*source.factors(), data.rows[cells], data.cols[cells])
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
        assert (data.grid_blocks is None) == (route == "gather")
        zero = FactorPair(np.zeros((m, 2)), np.zeros((n, 2)))
        assert cost_unregularized(zero, data) == float(np.dot(data.w_vals, data.a_vals**2))

    def test_neg_2w_cached_and_read_only(self):
        data = random_data(5, 4, 2, 12, seed=86)
        np.testing.assert_array_equal(data.neg_2w, -2.0 * data.w_vals)
        assert data.neg_2w is data.neg_2w
        with pytest.raises(ValueError):
            data.neg_2w[0] = 0


def shuffled(data, seed):
    """The same triplets in a random order."""
    order = np.random.default_rng(seed).permutation(data.nnz)
    return dataclasses.replace(
        data, rows=data.rows[order], cols=data.cols[order],
        a_vals=data.a_vals[order], w_vals=data.w_vals[order],
    )


def support_passes(source, data, lam=0.05):
    """Cost, cost with a residual buffer, that residual, and the full gradient's slots."""
    residual = np.empty(data.nnz)
    costs = (cost_unregularized(source, data), cost_unregularized(source, data, residual))
    if isinstance(source, FactorPair):
        g = full_grad_euclidean(source, data, lam)
        return costs, residual, (g.x, g.y)
    g = full_grad_manifold(source, data, lam)
    return costs, residual, (g.du, g.dx, g.dv)


class TestGatherIndexViews:
    """The gather route passes writable views of rows and cols to take and
    bincount, which copy a read-only index array on every call."""

    def test_views_share_the_read_only_arrays(self):
        data = holey_data(300, 40, 3, seed=80)
        for public, private in ((data.rows, data._rows), (data.cols, data._cols)):
            assert not public.flags.writeable and private.flags.writeable
            assert np.shares_memory(public, private)
            np.testing.assert_array_equal(public, private)

    def test_gather_gradient_makes_no_index_copy(self):
        # 100k of 4M cells: the gather route. An nnz-long copy of rows or cols
        # would add 8 nnz bytes to the two nnz-long float columns and the
        # factor-sized results. A `replace` copy gets the read-only public
        # index arrays, which it copies once, so its views are writable too.
        rng = np.random.default_rng(90)
        m, n, k, nnz = 4000, 1000, 3, 100_000
        cells = rng.choice(m * n, nnz, replace=False)
        w = np.full(nnz, 1.0 / nnz)
        a = rng.standard_normal(nnz)
        fresh = ProblemData(m=m, n=n, k=k, rows=cells // n, cols=cells % n, a_vals=a, w_vals=w)
        f = FactorPair(rng.standard_normal((m, k)), rng.standard_normal((n, k)))
        for data in (fresh, dataclasses.replace(fresh)):
            assert data.grid_blocks is None
            assert data._rows.flags.writeable and data._cols.flags.writeable
            residual = np.empty(nnz)
            cost_unregularized(f, data, residual)
            want = full_grad_euclidean(f, data, 0.05, residual.copy())  # builds data.neg_2w
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                got = full_grad_euclidean(f, data, 0.05, residual)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 16 * nnz + 24 * (m + n) * k + 65536
            np.testing.assert_array_equal(got.x, want.x)
            np.testing.assert_array_equal(got.y, want.y)


def numbered(plan):
    """Whether no block of a dense-route plan is read in place."""
    return all(cells is not None for *_, cells in plan)


class TestGridOrder:
    """A fully observed matrix in row-major order has cells 0..mn-1, so its
    plan is one block with no cells: the dense route reads the GEMM output
    and forms E from e in place; the values equal those of the
    take/bincount route."""

    def test_flag(self, monkeypatch):
        full = random_data(9, 7, 2, 0, seed=95, full=True)
        assert full.grid_blocks == ((0, 9, slice(0, 63), None),)
        assert numbered(shuffled(full, 96).grid_blocks)
        assert numbered(random_data(9, 7, 2, 40, seed=97).grid_blocks)
        # every cell once, one of them repeated in place of another
        rows = full.rows.copy()
        rows[-1] = 0
        assert numbered(dataclasses.replace(full, rows=rows).grid_blocks)
        assert on_route(full, "gather", monkeypatch).grid_blocks is None

    @pytest.mark.parametrize("source", ["point", "pair"])
    def test_same_values_as_take_and_bincount(self, monkeypatch, source):
        full = random_data(60, 25, 3, 0, seed=98, full=True, min_w=0.1)
        rng = np.random.default_rng(99)
        it = random_point(60, 25, 3, rng)
        if source == "pair":
            it = FactorPair(rng.standard_normal((60, 3)), rng.standard_normal((25, 3)))
        real, scatters = np.bincount, []
        monkeypatch.setattr(np, "bincount", lambda *a: scatters.append(1) or real(*a))
        costs, residual, grad = support_passes(it, full)
        assert not scatters
        # a numbered one-block plan: the take and bincount route on the same triplets
        copy = dataclasses.replace(full)
        vars(copy)["grid_blocks"] = ((0, 60, slice(0, copy.nnz), copy.rows * 25 + copy.cols),)
        general = support_passes(it, copy)
        assert scatters
        assert costs == general[0] and costs[0] == costs[1]
        np.testing.assert_array_equal(residual, general[1])
        for x, y in zip(grad, general[2]):
            np.testing.assert_array_equal(x, y)

    def test_shuffled_copy_takes_general_route(self, monkeypatch):
        full = random_data(60, 25, 3, 0, seed=100, full=True, min_w=0.1)
        mixed = shuffled(full, 101)
        assert numbered(mixed.grid_blocks)
        p = random_point(60, 25, 3, np.random.default_rng(102))
        (cost, _), _, grad = support_passes(p, full)
        real, scatters = np.bincount, []
        monkeypatch.setattr(np, "bincount", lambda *a: scatters.append(1) or real(*a))
        (mixed_cost, _), _, mixed_grad = support_passes(p, mixed)
        assert scatters
        # the weighted sum runs in another order; E, and the GEMMs, are the same
        assert abs(mixed_cost - cost) <= 1e-14 * cost
        for x, y in zip(grad, mixed_grad):
            np.testing.assert_array_equal(x, y)


# Largest max-abs relative difference allowed, slot by slot, between the
# row-blocked gradients and the full-grid reference: E^T left sums its
# blocks one after another. Costs and residuals must match bit for bit.
GRID_BLOCK_RTOL = 1e-14
GRID_INSTANCES = ["sorted", "shuffled", "duplicated", "wide"]


def blocked_data(m, n, prob, seed, empty_row, repeats=0):
    """A dense-route m-by-n instance, about `prob` of it observed in row-major
    order, with row `empty_row` unobserved and, when `repeats` > 0, that many
    cells listed twice (other values and weights), in shuffled order."""
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < prob
    mask[empty_row] = False
    flat = np.flatnonzero(mask)
    if repeats:
        flat = rng.permutation(np.concatenate([flat, rng.choice(flat, repeats, replace=False)]))
    w = 0.5 + rng.random(flat.size)
    w /= w.sum()
    data = ProblemData(
        m=m, n=n, k=3, rows=flat // n, cols=flat % n,
        a_vals=rng.standard_normal(flat.size), w_vals=w,
    )
    assert numbered(data.grid_blocks)
    return data


def grid_block_case(instance):
    """A `TestGridBlocks` instance and its unobserved row."""
    tall = lambda seed, repeats=0: blocked_data(
        3 * (GRID_BLOCK // 120) + 50, 120, 0.3, seed, empty_row=5, repeats=repeats
    )
    return {
        # four blocks, three of 273 rows and one of 50
        "sorted": lambda: (tall(110), 5),
        "shuffled": lambda: (shuffled(tall(110), 111), 5),
        "duplicated": lambda: (tall(113, repeats=40), 5),
        # blocks of two rows, the last of three
        "wide": lambda: (blocked_data(7, GRID_BLOCK + 100, 0.1, 112, empty_row=5), 5),
    }[instance]()


def grid_passes(source, data, lam=0.05):
    """The predictions, the cost with and without a residual buffer, that
    residual, and the full gradient's slots without and with it given."""
    grad = full_grad_euclidean if isinstance(source, FactorPair) else full_grad_manifold
    residual = np.empty(data.nnz)
    costs = (cost_unregularized(source, data), cost_unregularized(source, data, residual))
    given = grad(source, data, lam, residual.copy())
    return (
        wlra.model._grid_entries(*source.factors(), data), costs, residual,
        dataclasses.astuple(grad(source, data, lam)), dataclasses.astuple(given),
    )


def grid_iterate(data, source, seed):
    """A product point (`source` "point") or a factor pair of rank 3 shaped for `data`."""
    rng = np.random.default_rng(seed)
    it = random_point(data.m, data.n, 3, rng)
    if source == "pair":
        return FactorPair(rng.standard_normal((data.m, 3)), rng.standard_normal((data.n, 3)))
    return ProductPoint(it.u, 3.0 * it.x, it.v)


class TestGridBlocks:
    """Outside grid order the dense route fills the grid one block of whole
    rows at a time; its values match the full-grid kernels in
    `tests/helpers.py`: predictions, costs and residuals bit for bit, the
    gradients within GRID_BLOCK_RTOL."""

    @pytest.mark.parametrize("instance", GRID_INSTANCES)
    def test_layout(self, instance):
        data, empty = grid_block_case(instance)
        plan = data.grid_blocks
        assert len(plan) >= 3
        assert [b[0] for b in plan] == [0] + [b[1] for b in plan[:-1]]
        assert plan[-1][1] == data.m
        heights = [r1 - r0 for r0, r1, _, _ in plan]
        if instance == "wide":
            # at least two rows: numpy forms a one-row product by GEMV, whose
            # round-off differs from GEMM's
            assert data.n > GRID_BLOCK and heights == [2, 2, 3]
        else:
            assert heights == [GRID_BLOCK // data.n] * 3 + [50]
        assert any(r0 < empty < r1 - 1 for r0, r1, _, _ in plan)  # inside a block
        # triplets sorted by row take slices, others the stable row order
        sliced = all(isinstance(at, slice) for _, _, at, _ in plan)
        assert sliced == (instance in ("sorted", "wide"))
        order = np.arange(data.nnz) if sliced else np.argsort(data.rows, kind="stable")
        at = np.concatenate([np.arange(data.nnz)[at] for _, _, at, _ in plan])
        np.testing.assert_array_equal(at, order)
        for r0, r1, at, cells in plan:
            assert np.all((data.rows[at] >= r0) & (data.rows[at] < r1))
            np.testing.assert_array_equal(cells, grid_cells(data)[at] - r0 * data.n)
            # writable: numpy's take and bincount copy a read-only index array
            assert cells.dtype == np.int64 and cells.flags.writeable

    @pytest.mark.parametrize("source", ["point", "pair"])
    @pytest.mark.parametrize("instance", GRID_INSTANCES)
    def test_matches_full_grid(self, monkeypatch, instance, source):
        data, empty = grid_block_case(instance)
        it = grid_iterate(data, source, 114)
        pred, costs, residual, grad, given = grid_passes(it, data)
        monkeypatch.setattr(wlra.model, "_grid_entries", full_grid_entries)
        monkeypatch.setattr(wlra.model, "_support_sums", full_grid_sums)
        want = grid_passes(it, data)
        np.testing.assert_array_equal(pred, want[0])
        assert costs == want[1] and costs[0] == costs[1]
        np.testing.assert_array_equal(residual, want[2])
        for got, ref in zip(grad + given, want[3] + want[4]):
            assert np.abs(got - ref).max() <= GRID_BLOCK_RTOL * np.abs(ref).max()
        if source == "pair":  # no observed cell: only the regularization term remains
            np.testing.assert_array_equal(grad[0][empty], 2.0 * 0.05 * it.x[empty])

    @pytest.mark.parametrize("source", ["point", "pair"])
    @pytest.mark.parametrize("instance", GRID_INSTANCES)
    def test_plan_matches_per_pass_numbering(self, monkeypatch, instance, source):
        # The plan's cells, numbered once, against cells numbered on every
        # pass (`tests/helpers.py`): same arithmetic, so every value is equal.
        data, _ = grid_block_case(instance)
        it = grid_iterate(data, source, 117)
        got = grid_passes(it, data)
        monkeypatch.setattr(wlra.model, "_grid_entries", per_pass_grid_entries)
        monkeypatch.setattr(wlra.model, "_support_sums", per_pass_grid_sums)
        want = grid_passes(it, data)
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1]
        np.testing.assert_array_equal(got[2], want[2])
        for x, y in zip(got[3] + got[4], want[3] + want[4]):
            np.testing.assert_array_equal(x, y)

    def test_plan_built_once_on_the_first_pass(self):
        data, _ = grid_block_case("shuffled")
        assert "grid_blocks" not in vars(data)
        p = grid_iterate(data, "point", 118)
        grid_passes(p, data)
        plan = vars(data)["grid_blocks"]
        grid_passes(p, data)
        grid_passes(grid_iterate(data, "pair", 119), data)
        assert data.grid_blocks is plan

    def test_grid_order_builds_no_plan(self):
        # No numbered plan: grid order keeps the one in-place block, no cells.
        full = random_data(60, 25, 3, 0, seed=120, full=True, min_w=0.1)
        grid_passes(grid_iterate(full, "point", 121), full)
        grid_passes(grid_iterate(full, "pair", 122), full)
        assert vars(full)["grid_blocks"] == ((0, 60, slice(0, full.nnz), None),)

    def test_passes_number_no_cells(self):
        # One block holds every triplet, so cells numbered per pass would
        # be an nnz-long int64 array alive beside the block's grid.
        data = blocked_data(200, 150, 0.5, 123, empty_row=0)
        assert len(data.grid_blocks) == 1
        p = grid_iterate(data, "point", 124)
        residual = np.empty(data.nnz)

        def passes():
            cost_unregularized(p, data, residual)
            full_grad_manifold(p, data, 0.05, residual)

        passes()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            passes()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the block's grid, and half of what its numbered cells would add
        assert peak <= 8 * data.m * data.n + 4 * data.nnz

    def test_peak_memory_below_one_grid(self):
        # One m-by-n temporary of 2000x400 floats would be 6.4 MB.
        data = blocked_data(2000, 400, 0.1, 115, empty_row=0)
        p = random_point(2000, 400, 3, np.random.default_rng(116))
        residual = np.empty(data.nnz)

        def passes():
            cost_unregularized(p, data, residual)
            full_grad_manifold(p, data, 0.05, residual)

        passes()  # builds the cached cells, layout and weights, which are not temporaries
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            passes()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert data.grid_blocks is not None
        # about 0.64 MB here: the cost's squared residuals
        assert peak <= 8 * data.m * data.n / 4

    @pytest.mark.parametrize("instance, per_cell", [("partial", 16), ("grid-order", 8)])
    def test_caches_kept_per_cell(self, instance, per_cell):
        # The first cost + gradient pass caches `neg_2w` (8 B/cell) and the
        # plan, whose numbered cells take 8 B/cell on a row-sorted partial
        # grid and none in grid order; no whole-grid index is kept beside it.
        data = dataclasses.replace(
            blocked_data(400, 150, 0.5, 127, empty_row=0) if instance == "partial"
            else random_data(300, 100, 3, 0, seed=128, full=True)
        )
        p = grid_iterate(data, "point", 129)
        residual = np.empty(data.nnz)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cost_unregularized(p, data, residual)
            full_grad_manifold(p, data, 0.05, residual)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert numbered(data.grid_blocks) == (instance == "partial")
        assert kept <= per_cell * data.nnz + 16384


# Instances of the prediction pass: dense-route grids cut in row blocks,
# tall, wide (m < n) and square, in row order, shuffled and with repeated
# cells, and a fully observed grid in row-major order.
PASS_INSTANCES = {
    "tall": lambda: blocked_data(3 * (GRID_BLOCK // 120) + 50, 120, 0.3, 120, empty_row=5),
    "wide": lambda: blocked_data(120, 600, 0.3, 121, empty_row=5),
    "square": lambda: blocked_data(200, 200, 0.3, 122, empty_row=5),
    "shuffled": lambda: shuffled(blocked_data(300, 120, 0.3, 123, empty_row=5), 124),
    "duplicated": lambda: blocked_data(300, 120, 0.3, 125, empty_row=5, repeats=40),
    "grid-order": lambda: random_data(60, 25, 3, 0, seed=126, full=True, min_w=0.1),
}
# Largest relative difference allowed between a trace cost priced from an
# SGD state's factors and the cost of its materialized view, on a close fit
# (residuals of 1e-2 on predictions of order 1); measured up to 2.7e-15.
FACTORED_COST_RTOL = 1e-12


def pass_iterates(data, seed):
    """A product point and a factor pair shaped for `data`."""
    rng = np.random.default_rng(seed)
    p = random_point(data.m, data.n, data.k, rng)
    p = ProductPoint(p.u, 3.0 * p.x, p.v)
    f = FactorPair(rng.standard_normal((data.m, data.k)), rng.standard_normal((data.n, data.k)))
    return p, f


def parent_pass(source, data, entries):
    """(cost, residual) of the pass before the factor-pair kernels: the
    predictions `entries(source, rows, cols)` and, as `cost_unregularized`
    sums them, one dot on the dense route and one per SUPPORT_BLOCK on the
    gather route."""
    res = data.a_vals - entries(source, data.rows, data.cols)
    if data.grid_blocks is not None:
        return float(np.dot(data.w_vals, res**2)), res
    blocks = range(0, data.nnz, SUPPORT_BLOCK)
    cells = [slice(b, b + SUPPORT_BLOCK) for b in blocks]
    return sum(float(np.dot(data.w_vals[c], res[c] ** 2)) for c in cells), res


def dense_parent_entries(data):
    """The dense route's predictions before the passes took factors: the
    full-grid GEMM of (U diag(x), V) or of (X, Y)."""

    def entries(source, rows, cols):
        point = isinstance(source, ProductPoint)
        left, right = (source.u * source.x, source.v) if point else (source.x, source.y)
        return full_grid_entries(left, None, right, data)

    return entries


def pair_entries(f, rows, cols):
    """The pair kernel of the gather route before the passes took factors."""
    return np.einsum("tk,tk->t", f.x.take(rows, axis=0), f.y.take(cols, axis=0))


class TestPredictionPassKernelSwap:
    """The one prediction pass over factors (L, s, R) against the kernels it
    replaced, bit for bit: on the dense route the full-grid GEMM of
    `tests/helpers.py` (which the row blocks matched), on the gather route
    the pair einsum and, for points, the three-operand einsum `point_entries`."""

    @pytest.mark.parametrize("instance", sorted(PASS_INSTANCES))
    def test_dense_route_bit_identical(self, instance):
        data = PASS_INSTANCES[instance]()
        assert data.grid_blocks is not None
        assert numbered(data.grid_blocks) == (instance != "grid-order")
        for source in pass_iterates(data, 130):
            residual = np.full(data.nnz, np.nan)
            cost = cost_unregularized(source, data, residual)
            want_cost, want_res = parent_pass(source, data, dense_parent_entries(data))
            assert cost == want_cost == cost_unregularized(source, data)
            np.testing.assert_array_equal(residual, want_res)

    @pytest.mark.parametrize("instance", sorted(PASS_INSTANCES))
    def test_gather_route_bit_identical(self, monkeypatch, instance):
        data = on_route(PASS_INSTANCES[instance](), "gather", monkeypatch)
        p, f = pass_iterates(data, 131)
        for source, entries in ((f, pair_entries), (p, point_entries)):
            residual = np.full(data.nnz, np.nan)
            cost = cost_unregularized(source, data, residual)
            want_cost, want_res = parent_pass(source, data, entries)
            assert cost == want_cost == cost_unregularized(source, data)
            np.testing.assert_array_equal(residual, want_res)


def stepped_states(data, seed, steps=300):
    """A FactoredPoint and a ScaledPair for `data` after `steps` random row
    steps, as (state, view, data) triples, each data's values the view's
    predictions plus noise of 1e-2, so the costs are those of a close fit."""
    rng = np.random.default_rng(seed)
    p, f = pass_iterates(data, seed)
    p = ProductPoint(p.u, np.sqrt(data.m * data.n) * p.x, p.v)  # predictions of order 1
    point, pair = FactoredPoint(p), ScaledPair(f, 0.05)
    for _ in range(steps):
        i, j = int(rng.integers(data.m)), int(rng.integers(data.n))
        a = 0.3 * rng.standard_normal((2, data.k))
        point.step(i, j, (point.rows(i, j), a, 0.1 * rng.standard_normal(data.k)), 0.05)
        pair.step(i, j, tuple(a), -0.01)
    return [(state, view, close_fit(view, data, rng)) for state, view in (
        (point, point.point()), (pair, pair.pair())
    )]


def close_fit(view, data, rng):
    residual = np.empty(data.nnz)
    cost_unregularized(view, data, residual)
    fit = data.a_vals - residual + 1e-2 * rng.standard_normal(data.nnz)
    return dataclasses.replace(data, a_vals=fit)


class TestFactoredTraceCost:
    """Trace costs priced from an SGD state's factors, the k-by-k core (or
    the squared scale) on the right factor, against the cost of the state's
    materialized view, within FACTORED_COST_RTOL."""

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("instance", ["tall", "wide", "square", "shuffled"])
    def test_matches_view_cost(self, monkeypatch, route, instance):
        data = on_route(PASS_INSTANCES[instance](), route, monkeypatch)
        for state, view, fit in stepped_states(data, 140):
            assert not np.array_equal(state.factors()[0], view.factors()[0])
            want = cost_unregularized(view, fit)
            assert abs(cost_unregularized(state, fit) - want) <= FACTORED_COST_RTOL * want

    def test_past_a_fold(self, monkeypatch):
        # 1100 steps pass the periodic fold at FOLD_STEPS; the cond rule at
        # 1.5 folds some factors on their own too.
        monkeypatch.setattr(wlra.geometry, "FOLD_COND", 1.5)
        data = PASS_INSTANCES["wide"]()
        (point, view, fit), _ = stepped_states(data, 142, steps=1100)
        assert 0 < max(point.steps) < 1100
        want = cost_unregularized(view, fit)
        assert abs(cost_unregularized(point, fit) - want) <= FACTORED_COST_RTOL * want

    @pytest.mark.parametrize("instance", ["tall", "wide"])
    def test_scale_near_fold_scale(self, instance):
        # Eight shrinks of about 2^-41 take the scale to about 1.8e-99, 18
        # times FOLD_SCALE; a^2 is then about 3e-198 and the bases hold about 1e99.
        data = PASS_INSTANCES[instance]()
        rng = np.random.default_rng(143)
        _, f = pass_iterates(data, 143)
        lam = 0.05
        state = ScaledPair(f, lam)
        s = -(1.0 - 2.0**-41) / (2.0 * lam)
        for _ in range(8):
            i, j = int(rng.integers(data.m)), int(rng.integers(data.n))
            state.step(i, j, tuple(rng.standard_normal((2, data.k))), s)
        assert wlra.model.FOLD_SCALE < state.scale < 100 * wlra.model.FOLD_SCALE
        assert np.abs(state.x_base).max() > 1e90
        fit = close_fit(state.pair(), data, rng)
        want = cost_unregularized(state.pair(), fit)
        assert abs(cost_unregularized(state, fit) - want) <= FACTORED_COST_RTOL * want


class TestIterateShape:
    """An iterate whose U (X) rows are not m, or whose V (Y) rows are not n,
    is refused on both routes: the dense route would read a grid of another
    shape at the cells, the gather route other rows or none."""

    @pytest.mark.parametrize("route", ["dense", "gather"])
    @pytest.mark.parametrize("rows", [(30, 16), (44, 16), (40, 12), (40, 20)])
    def test_costs_and_gradients_refuse_wrong_rows(self, monkeypatch, route, rows):
        data = on_route(random_data(40, 16, 3, 256, seed=91), route, monkeypatch)
        full = random_data(40, 16, 3, 0, seed=92, full=True, min_w=0.5)
        full = on_route(full, route, monkeypatch)
        rng = np.random.default_rng(93)
        p = random_point(*rows, 3, rng)
        f = FactorPair(rng.standard_normal((rows[0], 3)), rng.standard_normal((rows[1], 3)))
        residual = np.zeros(data.nnz)
        calls = [
            lambda: cost_unregularized(p, data),
            lambda: cost_unregularized(f, data),
            lambda: cost_unregularized(p, data, residual),
            lambda: full_grad_manifold(p, data, 0.05),
            lambda: full_grad_manifold(p, data, 0.05, residual),
            lambda: full_grad_euclidean(f, data, 0.05),
            lambda: full_grad_euclidean(f, data, 0.05, residual),
            lambda: full_grad_pw(p, full),
            lambda: full_grad_pw(p, full, np.zeros(full.nnz)),
        ]
        for call in calls:
            with pytest.raises(ShapeMismatch, match=f"{rows[0]} and {rows[1]} rows.*40x16"):
                call()
        assert not residual.any()


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
            g = sampled_tangent(stoch_grad_manifold, p, t, data, lam)
            w = data.w_vals[t]
            acc = ProductTangent(acc.du + w * g.du, acc.dx + w * g.dx, acc.dv + w * g.dv)
        full = full_grad_manifold(p, data, lam)
        diff = ProductTangent(acc.du - full.du, acc.dx - full.dx, acc.dv - full.dv)
        assert diff.norm() <= 1e-12


class TestGradEuclidean:
    def test_scalar_hand_case(self):
        f = FactorPair(np.array([[1.0]]), np.array([[1.0]]))
        g = sampled_pair(f, 0, scalar_data(), 0.5)
        np.testing.assert_allclose(g.x, [[-1.0]])
        np.testing.assert_allclose(g.y, [[-1.0]])

    def test_zero_at_fit_without_reg(self):
        data = scalar_data(a=2.0)
        f = FactorPair(np.array([[1.0]]), np.array([[2.0]]))
        g = sampled_pair(f, 0, data, 0.0)
        assert g.norm() == 0.0

    def test_stoch_finite_differences(self):
        rng = np.random.default_rng(26)
        data = random_data(8, 6, 2, 20, seed=26)
        f = FactorPair(rng.standard_normal((8, 2)), rng.standard_normal((6, 2)))
        lam = 0.2
        g = sampled_pair(f, 5, data, lam)
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
            g = sampled_pair(f, t, data, lam)
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
            gx_i, gy_j = stoch_grad_euclidean(state, t, data)
            assembled = f.scaled(2.0 * lam)
            assembled.x[i] += gx_i
            assembled.y[j] += gy_j
            dense = dense_stoch_grad_euclidean(f, t, data, lam)
            assert assembled.add_scaled(dense, -1.0).norm() <= 1e-14 * dense.norm()

    def test_step_matches_dense_step(self):
        lam, s = 0.2, -0.3
        data, state, f = self.stepped(41, lam)
        for t in (0, 7, 19):
            expected = f.add_scaled(dense_stoch_grad_euclidean(f, t, data, lam), s)
            rows = stoch_grad_euclidean(state, t, data)
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


def pw_config(data: ProblemData, p: ProductPoint) -> SolverConfig:
    """A one-step sgd_pw config on the fully observed `data` from `p`."""
    policy = make_policy(PolicyKind.POSITIVE_WEIGHTS, data, confinement_manifold(p), None, 1.0)
    return SolverConfig(
        kind=PolicyKind.POSITIVE_WEIGHTS, policy=policy, budget=Budget(max_iterations=1), seed=0
    )


class TestGradPositiveWeights:
    def test_scalar_hand_case(self):
        g = sampled_tangent(stoch_grad_pw, scalar_point(), 0, scalar_data(), 0.5)
        np.testing.assert_allclose(g.dx, [-2.0])

    # stoch_grad_pw checks nothing per sample: sgd_pw refuses lambda >= w0
    # and a partially observed matrix once, before any step.
    def test_lambda_at_boundary_rejected(self):
        data = random_data(4, 3, 2, 12, seed=30, full=True, min_w=0.5)
        p = random_point(4, 3, 2, np.random.default_rng(30))
        config = pw_config(data, p)
        w0 = float(data.w_vals.min())
        config = dataclasses.replace(config, policy=dataclasses.replace(config.policy, lam=w0))
        with pytest.raises(LambdaOutOfRange):
            sgd_pw(p, data, config)

    def test_partial_support_rejected(self):
        data = random_data(4, 3, 2, 6, seed=31)
        p = random_point(4, 3, 2, np.random.default_rng(31))
        full = random_data(4, 3, 2, 12, seed=31, full=True, min_w=0.5)
        with pytest.raises(NonPositiveWeight):
            sgd_pw(p, data, pw_config(full, p))

    def test_stoch_finite_differences(self):
        rng = np.random.default_rng(32)
        data = random_data(8, 6, 2, 48, seed=32, full=True, min_w=0.5)
        p = random_point(8, 6, 2, rng)
        lam = 0.3 * float(data.w_vals.min())
        g = sampled_tangent(stoch_grad_pw, p, 7, data, lam)
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
            g = sampled_tangent(stoch_grad_pw, p, t, data, lam)
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
    e = -2.0 * w * (dense(data) - (p.u * p.x) @ p.v.T)
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
        assert full.grid_blocks is not None  # a fully observed matrix takes the dense route
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
            g = sampled_tangent(stoch_grad_manifold, p, t, data, lam)
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
            g = sampled_pair(f, t, data, lam)
            rho_grad = FactorPair(2.0 * f.x, 2.0 * f.y)
            assert rho_grad.inner(g) >= -1e-10
