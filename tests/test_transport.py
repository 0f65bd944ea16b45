"""Tests for pairwise and multi-marginal transport solvers."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryflow import (
    ConvergenceError,
    CycleLimitError,
    DimensionMismatchError,
    DiscreteMeasure,
    NonFiniteCoordinateError,
    ProductGridError,
    barycenter_point,
    batch_barycenters,
    c_transform,
    canonicalize,
    dual_feasibility_check,
    extract_barycenter,
    pairwise_cost_matrix,
    random_marginals,
    run_verification,
    solve_mmot,
    solve_pairwise,
    stationarity_residual,
    validate_multiplan,
    wb_value,
)
from baryflow import infconv, transport

from .helpers import counted_staircases, measures_close
from .oracles import (
    assignment_value,
    exhaustive_mmot_value,
    pairwise_value_linprog,
    quadratic_tuple_cost,
    tuple_cost_minimize,
)


def random_measure(rng: np.random.Generator, n: int, d: int, uniform: bool = True) -> DiscreteMeasure:
    pts = rng.uniform(size=(n, d))
    if uniform:
        w = np.full(n, 1.0 / n)
    else:
        w = rng.uniform(0.5, 1.5, size=n)
        w /= w.sum()
    return DiscreteMeasure(pts, w)


class TestCostMatrix:
    def test_hand_values(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0], [2.0]])
        m = pairwise_cost_matrix(a, b, 2.0)
        assert np.allclose(m, [[0.0, 4.0], [1.0, 1.0]])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(size=(3, 2))
        b = rng.uniform(size=(4, 2))
        assert np.allclose(pairwise_cost_matrix(a, b, 1.5), pairwise_cost_matrix(b, a, 1.5).T)


class TestPairwise:
    def test_two_diracs(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        nu = DiscreteMeasure([[3.0, 4.0]], [1.0])
        res = solve_pairwise(mu, nu, 3.0)
        assert res.value == pytest.approx(125.0)

    def test_identical_measures_cost_zero(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 4, 2)
        res = solve_pairwise(mu, mu, 2.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_uniform_weights_match_permutation_enumeration(self, p):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(5, 2))
        b = rng.uniform(size=(5, 2))
        ref = assignment_value(a, b, p)
        mu = DiscreteMeasure(a, np.full(5, 0.2))
        nu = DiscreteMeasure(b, np.full(5, 0.2))
        assert solve_pairwise(mu, nu, p).value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_general_weights_match_reference_lp(self, seed):
        rng = np.random.default_rng(100 + seed)
        mu = random_measure(rng, 4, 2, uniform=False)
        nu = random_measure(rng, 5, 2, uniform=False)
        ref = pairwise_value_linprog(mu.points, mu.weights, nu.points, nu.weights, 1.5)
        assert solve_pairwise(mu, nu, 1.5).value == pytest.approx(ref, rel=1e-9)

    def test_coupling_has_the_right_marginals(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 4, 2, uniform=False)
        nu = random_measure(rng, 3, 2, uniform=False)
        res = solve_pairwise(mu, nu, 2.0)
        validate_multiplan(res.plan, [mu, nu])
        dense = res.plan.as_dense()
        assert np.allclose(dense.sum(axis=1), mu.weights, atol=1e-10)
        assert np.allclose(dense.sum(axis=0), nu.weights, atol=1e-10)

    def test_duals_certify_the_value(self):
        rng = np.random.default_rng(4)
        mu = random_measure(rng, 5, 2, uniform=False)
        nu = random_measure(rng, 4, 2, uniform=False)
        res = solve_pairwise(mu, nu, 1.5)
        validate_multiplan(res.plan, [mu, nu])
        psi, phi = res.potentials
        pairing = psi @ mu.weights + phi @ nu.weights
        assert pairing == pytest.approx(res.value, rel=1e-9)
        cost = pairwise_cost_matrix(mu.points, nu.points, 1.5)
        slack = cost - psi[:, None] - phi[None, :]
        assert slack.min() > -1e-9
        # complementary slackness on the support
        dense = res.plan.as_dense()
        assert np.abs(slack[dense > 1e-12]).max() < 1e-9

    def test_translation_shifts_nothing_but_the_points(self):
        rng = np.random.default_rng(5)
        mu = random_measure(rng, 4, 3)
        nu = random_measure(rng, 4, 3)
        shift = np.array([1.0, -2.0, 0.5])
        mu2 = DiscreteMeasure(mu.points + shift, mu.weights)
        nu2 = DiscreteMeasure(nu.points + shift, nu.weights)
        assert solve_pairwise(mu2, nu2, 2.0).value == pytest.approx(
            solve_pairwise(mu, nu, 2.0).value, rel=1e-10
        )


class TestCTransform:
    def test_hand_case(self):
        # potential (0, 0) at points 0, 1 under squared distance
        out = c_transform(np.zeros(2), np.array([[0.0], [1.0]]), np.array([[2.0]]), 2.0)
        assert out == pytest.approx([1.0])

    def test_double_transform_dominates(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(size=(5, 2))
        tgt = rng.uniform(size=(6, 2))
        psi = rng.normal(size=5)
        phi = c_transform(psi, pts, tgt, 1.5)
        psi2 = c_transform(phi, tgt, pts, 1.5)
        assert (psi2 - psi).min() > -1e-12

    def test_double_transform_fixed_point(self):
        # a c-concave potential is invariant under the double transform
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(5, 2))
        tgt = rng.uniform(size=(6, 2))
        phi = c_transform(rng.normal(size=5), pts, tgt, 1.5)
        psi = c_transform(phi, tgt, pts, 1.5)
        phi2 = c_transform(psi, pts, tgt, 1.5)
        assert np.allclose(phi, phi2, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            c_transform(np.zeros(3), np.zeros((2, 1)), np.zeros((2, 1)), 2.0)


class TestMmot:
    def test_two_marginals_reduce_to_scaled_pairwise(self):
        # for two points the inner minimum sits at the midpoint, so the
        # tuple cost is 2^(1-p) |x - y|^p and the optimal values scale
        rng = np.random.default_rng(8)
        mu = random_measure(rng, 3, 2, uniform=False)
        nu = random_measure(rng, 4, 2, uniform=False)
        for p in (1.5, 2.0, 3.0):
            direct = solve_pairwise(mu, nu, p).value
            joint = solve_mmot([mu, nu], p).value
            assert joint == pytest.approx(2.0 ** (1.0 - p) * direct, rel=1e-9)

    def test_dirac_marginals_give_the_tuple_cost(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        mus = [DiscreteMeasure([pt], [1.0]) for pt in pts]
        res = solve_mmot(mus, 1.5)
        assert res.value == pytest.approx(barycenter_point(pts, 1.5).value, rel=1e-12)
        assert len(res.plan) == 1

    def test_identical_marginals_cost_zero(self):
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 4, 2)
        res = solve_mmot([mu, mu, mu], 2.0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert measures_close(extract_barycenter(res), canonicalize(mu))

    def test_plan_is_a_valid_plan(self):
        rng = np.random.default_rng(10)
        mus = [random_measure(rng, n, 2, uniform=False) for n in (3, 4, 2)]
        res = solve_mmot(mus, 1.5)
        validate_multiplan(res.plan, mus)
        assert res.plan.masses.min() > 0.0

    def test_support_is_sparse(self):
        # a basic LP solution has at most (constraint count) active tuples
        rng = np.random.default_rng(11)
        mus = [random_measure(rng, 4, 2, uniform=False) for _ in range(3)]
        res = solve_mmot(mus, 2.0)
        assert len(res.plan) <= 3 * 4

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_matches_exhaustive_reference_lp(self, p):
        rng = np.random.default_rng(12)
        mus = [random_measure(rng, n, 2, uniform=False) for n in (3, 2, 3)]
        pts = [mu.points for mu in mus]
        wts = [mu.weights for mu in mus]
        costs = []
        for tup in itertools.product(*(range(len(m)) for m in mus)):
            stack = np.stack([pts[k][i] for k, i in enumerate(tup)])
            if p == 2.0:
                costs.append(quadratic_tuple_cost(stack))
            else:
                costs.append(tuple_cost_minimize(stack, p))
        ref = exhaustive_mmot_value(pts, wts, np.array(costs))
        assert solve_mmot(mus, p).value == pytest.approx(ref, rel=1e-9)

    def test_potentials_are_frozen(self):
        rng = np.random.default_rng(24)
        res = solve_mmot([random_measure(rng, 3, 2) for _ in range(3)], 2.0)
        for pot in res.potentials:
            with pytest.raises(ValueError):
                pot[0] = 1.0

    def test_stationarity_residual_is_small(self):
        rng = np.random.default_rng(13)
        mus = [random_measure(rng, 3, 2) for _ in range(3)]
        res = solve_mmot(mus, 1.5)
        assert stationarity_residual(res) < 1e-9

    def test_quadratic_tuple_barycenters_are_means(self):
        rng = np.random.default_rng(14)
        mus = [random_measure(rng, 3, 2) for _ in range(3)]
        res = solve_mmot(mus, 2.0)
        sup = np.stack([mus[k].points[res.plan.indices[:, k]] for k in range(3)], axis=1)
        assert np.allclose(res.tuple_barycenters, sup.mean(axis=1), atol=1e-12)
        idx = np.indices([3, 3, 3]).reshape(3, -1).T
        grid = np.stack([mus[k].points[idx[:, k]] for k in range(3)], axis=1)
        assert np.allclose(res.grid_barycenters, grid.mean(axis=1), atol=1e-12)

    def test_grid_cap_enforced(self):
        rng = np.random.default_rng(15)
        mus = [random_measure(rng, 4, 1) for _ in range(3)]
        with pytest.raises(ProductGridError):
            solve_mmot(mus, 2.0, max_grid=63)
        solve_mmot(mus, 2.0, max_grid=64)

    def test_unconverged_tuple_grid_named_in_error(self, monkeypatch):
        # a zero Newton tolerance cannot be met on spread-out tuples
        monkeypatch.setattr(infconv, "DEFAULT_TOL", 0.0)
        rng = np.random.default_rng(19)
        mus = [random_measure(rng, 2, 2), random_measure(rng, 3, 2)]
        with pytest.raises(ConvergenceError, match=r"^tuple grid 2x3: \d+ of 6 barycenters unconverged"):
            solve_mmot(mus, 1.5)

    def test_single_marginal_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(DimensionMismatchError):
            solve_mmot([random_measure(rng, 3, 2)], 2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_overflowing_cost_scale_is_named(self, p):
        # the supports span 2e200, so the costs scale by (2e200)^p: about
        # 3e300 at p = 1.5, which fits, and beyond the largest float at
        # p = 2 and 3, where the costs once became nan or inf with a numpy
        # warning or an error that named no grid
        mu = DiscreteMeasure([[0.0], [1e200]], [0.5, 0.5])
        nu = DiscreteMeasure([[-1e200], [0.0]], [0.5, 0.5])
        if p == 1.5:
            unit = [DiscreteMeasure(m.points / 1e200, m.weights) for m in (mu, nu, mu)]
            value = solve_mmot([mu, nu, mu], p).value
            assert value == pytest.approx(1e300 * solve_mmot(unit, p).value, rel=1e-12)
        else:
            with pytest.raises(NonFiniteCoordinateError, match=r"^tuple grid 2x2x2: .*cost scale"):
                solve_mmot([mu, nu, mu], p)

    def test_mixed_dimensions_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(DimensionMismatchError):
            solve_mmot([random_measure(rng, 3, 2), random_measure(rng, 3, 1)], 2.0)


def frame_atoms(mus: list[DiscreteMeasure]) -> list[np.ndarray]:
    """Each marginal's points in the instance's frame, as ``solve_mmot`` maps them."""
    centre, size = transport._frame(tuple(mus))
    return [(mu.points - centre) / size for mu in mus]


def full_grid_costs(mus: list[DiscreteMeasure], p: float) -> np.ndarray:
    """Tuple costs from Newton on every grid tuple, in the instance's frame."""
    _, costs, _ = batch_barycenters(transport._grid_points(frame_atoms(mus)).transpose(2, 0, 1), p)
    return costs * transport._frame(tuple(mus))[1] ** p


def full_grid_solve(mus: list[DiscreteMeasure], p: float) -> tuple[np.ndarray, float]:
    """``full_grid_costs`` and the transport simplex's value on them."""
    costs = full_grid_costs(mus, p)
    sizes = tuple(len(mu) for mu in mus)
    return costs, transport._transport_simplex(costs.reshape(sizes), [mu.weights for mu in mus])[2]


class TestLazyCosts:
    # solve_mmot runs Newton only on the tuples its LP can use; the others
    # keep a lower bound at their mean that stays above their dual sum.
    # Below p = 1.01 the dual check's own bound can overflow at an exact
    # meeting point (at p = 1 + 2e-16 on a single tuple), lazy or not.
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(1.01, 4.0),
        n_marginals=st.sampled_from([2, 3]),
        n_atoms=st.integers(1, 6),
        dim=st.sampled_from([1, 2]),
        scale=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(p=2.0, n_marginals=3, n_atoms=6, dim=2, scale=1.0, seed=0)
    @example(p=1.2, n_marginals=3, n_atoms=6, dim=2, scale=1e-3, seed=1)
    def test_value_matches_the_full_grid(self, p, n_marginals, n_atoms, dim, scale, seed):
        rng = np.random.default_rng(seed)
        mus = [
            DiscreteMeasure(scale * rng.uniform(size=(n_atoms, dim)), rng.dirichlet(np.ones(n_atoms)))
            for _ in range(n_marginals)
        ]
        try:
            costs, reference = full_grid_solve(mus, p)
        except ConvergenceError:
            costs = reference = None
        try:
            res = solve_mmot(mus, p)
        except ConvergenceError:
            # Newton runs on some of the full grid's rows, with the same bits
            assert reference is None
            return
        if reference is not None:
            assert res.value == pytest.approx(reference, rel=1e-12, abs=0.0)
        else:
            # the objective at each witness bounds its tuple cost from above
            grid = transport._grid_points([mu.points for mu in mus])
            costs = infconv._objective(grid, res.grid_barycenters.T, p)
        assert dual_feasibility_check(res).max_violation <= 1e-9 * costs.max()

    def test_unconverged_off_basis_tuple_no_longer_fails_the_solve(self):
        # on this p = 1.2 grid Newton leaves one tuple of 512 above the
        # tolerance, a tuple the LP never needs
        rng = np.random.default_rng(11)
        mus = [DiscreteMeasure(rng.uniform(size=(8, 2)), rng.dirichlet(np.ones(8))) for _ in range(3)]
        with pytest.raises(ConvergenceError, match="^1 of 512 barycenters unconverged"):
            full_grid_solve(mus, 1.2)
        res = solve_mmot(mus, 1.2)
        assert_certified(res)
        assert run_verification(mus, 1.2).passed


class TestScalingLaw:
    # value(s mu) = s^p value(mu); both solvers decide scale from the
    # instance itself, so no threshold is absolute
    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_mmot(self, p, s):
        mus = random_marginals(61, 3, 6, 2)
        scaled = [DiscreteMeasure(s * mu.points, mu.weights) for mu in mus]
        assert solve_mmot(scaled, p).value == pytest.approx(s**p * solve_mmot(mus, p).value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_pairwise(self, p, s):
        rng = np.random.default_rng(62)
        mu, nu = random_measure(rng, 8, 2, uniform=False), random_measure(rng, 9, 2, uniform=False)
        scaled = [DiscreteMeasure(s * m.points, m.weights) for m in (mu, nu)]
        value = solve_pairwise(*scaled, p).value
        assert value == pytest.approx(s**p * solve_pairwise(mu, nu, p).value, rel=1e-12, abs=0.0)


def quadratic_grid_costs(mus: list[DiscreteMeasure]) -> np.ndarray:
    """Closed-form p = 2 tuple costs over the C-order index grid."""
    return np.array([
        quadratic_tuple_cost(np.stack([mu.points[i] for mu, i in zip(mus, tup)]))
        for tup in itertools.product(*(range(len(mu)) for mu in mus))
    ])


def assert_certified(res) -> None:
    cert = dual_feasibility_check(res)
    assert cert.max_violation < 1e-9
    assert cert.duality_gap < 1e-9 * (1.0 + abs(res.value))
    assert cert.support_slack < 1e-9


def assert_pairwise_certified(res, mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    validate_multiplan(res.plan, [mu, nu])
    psi, phi = res.potentials
    assert psi @ mu.weights + phi @ nu.weights == pytest.approx(res.value, rel=1e-9, abs=1e-12)
    slack = pairwise_cost_matrix(mu.points, nu.points, res.p) - psi[:, None] - phi[None, :]
    assert slack.min() > -1e-9
    assert np.abs(slack[tuple(res.plan.indices.T)]).max() < 1e-9


class TestTransportSimplex:
    """The one transport simplex behind both the pairwise and the joint LP."""

    # On the line every tuple cost here is submodular, so the comonotone
    # plan is optimal, and the staircase over atoms sorted by coordinate
    # is that plan: the cold solves start at an optimal basis and take no
    # pivot, so the basis returned is the start.
    @pytest.mark.parametrize("n_marginals", [3, 4])
    def test_line_mmot_starts_at_its_optimal_basis(self, n_marginals):
        rng = np.random.default_rng(70 + n_marginals)
        mus = [random_measure(rng, int(rng.integers(5, 9)), 1, uniform=False) for _ in range(n_marginals)]
        res = solve_mmot(mus, 2.0)
        assert set(res._basis.tolist()) == set(transport._axis_staircase(mus).tolist())
        assert_certified(res)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_line_pairwise_starts_at_its_optimal_basis(self, monkeypatch, p):
        rng = np.random.default_rng(72)
        mu, nu = random_measure(rng, 9, 1, uniform=False), random_measure(rng, 7, 1, uniform=False)
        seen = []
        original = transport._transport_simplex

        def recorded(costs, weights, start=None):
            out = original(costs, weights, start)
            seen.append((start, out[4]))
            return out

        monkeypatch.setattr(transport, "_transport_simplex", recorded)
        pair = solve_pairwise(mu, nu, p)
        [(start, basis)] = seen
        assert set(basis.tolist()) == set(start.tolist())
        assert pair.value == pytest.approx(
            pairwise_value_linprog(mu.points, mu.weights, nu.points, nu.weights, p), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_highs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n_marginals = 2 + seed % 3
        mus = [
            random_measure(rng, int(rng.integers(1, 9 - n_marginals)), 2, uniform=False)
            for _ in range(n_marginals)
        ]
        ref = exhaustive_mmot_value(
            [mu.points for mu in mus], [mu.weights for mu in mus], quadratic_grid_costs(mus)
        )
        res = solve_mmot(mus, 2.0)
        assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-12)
        assert_certified(res)
        pair = solve_pairwise(mus[0], mus[1], 1.5)
        pair_ref = pairwise_value_linprog(
            mus[0].points, mus[0].weights, mus[1].points, mus[1].weights, 1.5
        )
        assert pair.value == pytest.approx(pair_ref, rel=1e-9, abs=1e-12)
        assert_pairwise_certified(pair, mus[0], mus[1])

    @pytest.mark.parametrize("n_marginals", [2, 3, 4])
    def test_zero_weight_atom_matches_highs(self, n_marginals):
        rng = np.random.default_rng(30 + n_marginals)
        mus = [random_measure(rng, 3, 2, uniform=False) for _ in range(n_marginals)]
        weights = np.array([0.0, 0.4, 0.6])
        mus[0] = DiscreteMeasure(mus[0].points, weights)
        mus[-1] = DiscreteMeasure(mus[-1].points, weights[::-1])
        ref = exhaustive_mmot_value(
            [mu.points for mu in mus], [mu.weights for mu in mus], quadratic_grid_costs(mus)
        )
        res = solve_mmot(mus, 2.0)
        assert res.value == pytest.approx(ref, rel=1e-9)
        assert_certified(res)
        validate_multiplan(res.plan, mus)
        pair = solve_pairwise(mus[0], mus[-1], 2.0)
        pair_ref = pairwise_value_linprog(
            mus[0].points, mus[0].weights, mus[-1].points, mus[-1].weights, 2.0
        )
        assert pair.value == pytest.approx(pair_ref, rel=1e-9)
        assert_pairwise_certified(pair, mus[0], mus[-1])

    @pytest.mark.parametrize("n_marginals", [2, 3, 4])
    def test_all_dirac_marginals(self, n_marginals):
        # one constraint row and one basic tuple (R = 1)
        rng = np.random.default_rng(40 + n_marginals)
        pts = rng.uniform(size=(n_marginals, 2))
        mus = [DiscreteMeasure([pt], [1.0]) for pt in pts]
        res = solve_mmot(mus, 1.5)
        assert res.value == pytest.approx(barycenter_point(pts, 1.5).value, rel=1e-12)
        assert res.plan.indices.tolist() == [[0] * n_marginals]
        assert_certified(res)

    @pytest.mark.parametrize("n_marginals", [2, 3, 4])
    def test_dropped_rows_pin_last_potentials(self, n_marginals):
        # the last atom's row of marginals 2..N is dropped up front, so
        # those potentials are zero and the first marginal carries the rest
        rng = np.random.default_rng(50 + n_marginals)
        mus = [random_measure(rng, 3, 1, uniform=False) for _ in range(n_marginals)]
        res = solve_mmot(mus, 2.0)
        assert [pot[-1] for pot in res.potentials[1:]] == [0.0] * (n_marginals - 1)
        assert_certified(res)
        pair = solve_pairwise(mus[0], mus[1], 2.0)
        assert pair.potentials[1][-1] == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_identical_uniform_supports_terminate(self, p):
        # every north-west-corner step is degenerate on identical uniform
        # supports; pricing must still reach a certified optimum
        rng = np.random.default_rng(60)
        mu = random_measure(rng, 8, 2)
        res = solve_mmot([mu, mu, mu], p)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert_certified(res)
        a, b = rng.uniform(size=(2, 7, 2))
        mu, nu = DiscreteMeasure(a, np.full(7, 1 / 7)), DiscreteMeasure(b, np.full(7, 1 / 7))
        pair = solve_pairwise(mu, nu, p)
        assert pair.value == pytest.approx(assignment_value(a, b, p), rel=1e-10)
        assert_pairwise_certified(pair, mu, nu)

    def test_singular_basis_error_names_grid_and_pivots(self, monkeypatch):
        # the first basis inverse is formed; the next one, after some
        # pivots, is reported singular (on this instance the axis staircase
        # is not optimal, so the cold solve pivots)
        real_inv, calls = np.linalg.inv, []

        def inv_once(matrix):
            calls.append(len(matrix))
            if len(calls) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", inv_once)
        rng = np.random.default_rng(21)
        mu, nu = random_measure(rng, 3, 2, uniform=False), random_measure(rng, 4, 2, uniform=False)
        with pytest.raises(CycleLimitError, match=r"singular on the 3x4 grid after [1-9]\d* pivots"):
            solve_pairwise(mu, nu, 2.0)

    def test_overflowing_costs_rejected(self):
        mu = DiscreteMeasure([[0.0], [1e200]], [0.5, 0.5])
        nu = DiscreteMeasure([[-1e200], [0.0]], [0.5, 0.5])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteCoordinateError):
            solve_pairwise(mu, nu, 3.0)


@st.composite
def glued_instances(draw) -> tuple[list[DiscreteMeasure], float]:
    """Unequal supports in the plane or space with at least
    ``_GLUED_MIN_ROWS`` basis rows; Dirichlet or equal weights, and some
    atoms moved onto others (of the same or another marginal)."""
    n_marginals = draw(st.sampled_from([3, 4]))
    low, high = {3: (10, 16), 4: (8, 10)}[n_marginals]
    sizes = draw(
        st.lists(st.integers(low, high), min_size=n_marginals, max_size=n_marginals).filter(
            lambda s: len(set(s)) > 1 and sum(s) - len(s) + 1 >= transport._GLUED_MIN_ROWS
        )
    )
    dim = draw(st.sampled_from([2, 3]))
    equal = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = [rng.uniform(size=(n, dim)) for n in sizes]
    for _ in range(draw(st.integers(0, 4))):
        a, b = rng.integers(n_marginals, size=2)
        points[b][rng.integers(sizes[b])] = points[a][rng.integers(sizes[a])]
    weights = [np.full(n, 1.0 / n) if equal else rng.dirichlet(np.ones(n)) for n in sizes]
    mus = [DiscreteMeasure(pts, w) for pts, w in zip(points, weights)]
    return mus, draw(st.sampled_from([1.5, 2.0, 3.0]))


def simplex_calls(monkeypatch) -> list:
    """Record (costs, start) of every transport simplex call."""
    calls = []
    original = transport._transport_simplex

    def recorded(costs, weights, start=None):
        calls.append((costs.copy(), None if start is None else np.array(start)))
        return original(costs, weights, start)

    monkeypatch.setattr(transport, "_transport_simplex", recorded)
    return calls


def glued_start_per_hub_atom(mus: tuple[DiscreteMeasure, ...], atoms: list[np.ndarray], p: float) -> np.ndarray:
    """Reference for ``transport._glued_start``: the same pairwise LPs, then
    one ``_northwest_corner`` walk per hub atom over its tree partners,
    sorted by their rank along the axis."""
    weights = [mu.weights for mu in mus]
    orders = transport._axis_orders(mus)
    ranks = [np.argsort(order) for order in orders]
    partners = [[] for _ in weights[0]]
    for k in range(1, len(weights)):
        sizes = (len(weights[0]), len(weights[k]))
        pair = [weights[0], weights[k]]
        start = np.ravel_multi_index(transport._northwest_corner(pair, [orders[0], orders[k]]).T, sizes)
        cost = pairwise_cost_matrix(atoms[0], atoms[k], p)
        support, masses, _, _, tree = transport._transport_simplex(cost, pair, start)
        plan = np.zeros(math.prod(sizes))
        plan[support] = masses
        for i, slot in enumerate(partners):
            mine = tree[tree // sizes[1] == i]
            mine = mine[np.argsort(ranks[k][mine % sizes[1]], kind="stable")]
            slot.append((mine % sizes[1], plan[mine]))
    glued = []
    for i, pairs in enumerate(partners):
        walked = transport._northwest_corner([mass for _, mass in pairs], [np.arange(len(m)) for m, _ in pairs])
        glued += [(i, *(part[j] for (part, _), j in zip(pairs, steps))) for steps in walked]
    return np.array(glued)


class TestGluedStart:
    """A large cold solve in the plane or above starts from the optimal
    pairwise plans between marginal 0 and each other marginal, glued at
    marginal 0's atoms."""

    @settings(max_examples=25, deadline=None)
    @given(instance=glued_instances())
    def test_start_is_an_accepted_basis_with_the_axis_value(self, instance):
        mus, p = instance
        mus = tuple(mus)
        sizes = tuple(len(mu) for mu in mus)
        rows = sum(sizes) - len(sizes) + 1
        weights = [mu.weights for mu in mus]
        try:
            costs = full_grid_costs(mus, p).reshape(sizes)
        except ConvergenceError:
            return
        with pytest.MonkeyPatch.context() as mp:
            staircases = counted_staircases(mp)
            start = transport._cold_start(mus, frame_atoms(mus), p, "x".join(map(str, sizes)))
            # glued: one two-marginal staircase per pairwise LP
            assert staircases == [2] * (len(mus) - 1)
            assert len(start) == rows and len(np.unique(start)) == rows
            _, _, glued_value, _, _ = transport._transport_simplex(costs, weights, start)
            # accepted: no fallback to the staircase in input order
            assert len(staircases) == len(mus) - 1
        _, _, axis_value, _, _ = transport._transport_simplex(costs, weights, transport._axis_staircase(mus))
        assert glued_value == pytest.approx(axis_value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_walk_equals_a_staircase_per_hub_atom(self, seed):
        rng = np.random.default_rng(seed)
        n_marginals = 3 + seed % 2
        mus = tuple(
            DiscreteMeasure(rng.uniform(size=(n, 2 + seed % 2)), rng.dirichlet(np.ones(n)))
            for n in rng.integers(9, 14, size=n_marginals)
        )
        atoms = frame_atoms(mus)
        glued = transport._glued_start(mus, atoms, 1.5, "grid")
        assert np.array_equal(glued, glued_start_per_hub_atom(mus, atoms, 1.5))

    @pytest.mark.parametrize(
        "sizes, dim",
        [((11, 11, 11), 2), ((9, 9, 8, 8), 2), ((15, 15, 15), 1), ((30, 30), 2)],
        ids=["3-marginals-31-rows", "4-marginals-31-rows", "line", "2-marginals"],
    )
    def test_axis_staircase_below_the_threshold_on_the_line_and_for_two(self, monkeypatch, sizes, dim):
        rng = np.random.default_rng(sum(sizes))
        mus = [DiscreteMeasure(rng.uniform(size=(n, dim)), rng.dirichlet(np.ones(n))) for n in sizes]
        calls = simplex_calls(monkeypatch)
        solve_mmot(mus, 1.5)
        axis = transport._axis_staircase(mus)
        # no pairwise LP: the first simplex solves the grid, from the axis start
        assert calls[0][0].shape == sizes
        assert np.array_equal(calls[0][1], axis)
        assert np.array_equal(transport._cold_start(tuple(mus), frame_atoms(mus), 1.5, "grid"), axis)

    @pytest.mark.parametrize("sizes", [(12, 11, 11), (9, 9, 9, 8)], ids=["3-marginals-32-rows", "4-marginals-32-rows"])
    def test_pairwise_lps_run_from_32_rows(self, monkeypatch, sizes):
        rng = np.random.default_rng(sum(sizes))
        mus = [DiscreteMeasure(rng.uniform(size=(n, 2)), rng.dirichlet(np.ones(n))) for n in sizes]
        calls = simplex_calls(monkeypatch)
        res = solve_mmot(mus, 1.5)
        shapes = [costs.shape for costs, _ in calls]
        assert shapes[: len(sizes)] == [(sizes[0], n) for n in sizes[1:]] + [sizes]
        assert_certified(res)

    @pytest.mark.parametrize("s", [1e-3, 1e3])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_scaling_law(self, monkeypatch, p, s):
        # the pairwise LPs run on the frame points, so their costs, the
        # start and with it the whole solve do not depend on the scale
        mus = random_marginals(63, 3, 12, 2)
        scaled = [DiscreteMeasure(s * mu.points, mu.weights) for mu in mus]
        calls = simplex_calls(monkeypatch)
        value = solve_mmot(mus, p).value
        unit_calls = calls[:]
        calls.clear()
        assert solve_mmot(scaled, p).value == pytest.approx(s**p * value, rel=1e-13, abs=0.0)
        for (unit, _), (frame, _) in zip(unit_calls[:2], calls[:2]):
            assert unit.ndim == 2
            np.testing.assert_allclose(frame, unit, rtol=1e-12, atol=0.0)

    def test_pairwise_cycle_limit_names_the_stage_and_the_grid(self, monkeypatch):
        original = transport._transport_simplex

        def failing(costs, weights, start=None):
            if costs.ndim == 2:
                raise CycleLimitError(f"no optimum on the {costs.shape[0]}x{costs.shape[1]} grid after 9 pivots")
            return original(costs, weights, start)

        monkeypatch.setattr(transport, "_transport_simplex", failing)
        with pytest.raises(
            CycleLimitError,
            match=r"^glued start of the 12x12x12 grid, pairwise LP of marginals 1 and 2: no optimum on the 12x12 ",
        ):
            solve_mmot(random_marginals(64, 3, 12, 2), 1.5)


class TestBarycenterExtraction:
    def test_two_dirac_quadratic_midpoint(self):
        mu = DiscreteMeasure([[0.0, 0.0]], [1.0])
        nu = DiscreteMeasure([[1.0, 1.0]], [1.0])
        bar = extract_barycenter(solve_mmot([mu, nu], 2.0))
        assert len(bar) == 1
        assert bar.points[0] == pytest.approx([0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(18)
        mus = [random_measure(rng, 4, 2, uniform=False) for _ in range(3)]
        bar = extract_barycenter(solve_mmot(mus, 1.5))
        assert bar.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_barycenter_achieves_the_mmot_value(self):
        # the barycenter functional evaluated at the extracted measure
        # reproduces the multi-marginal optimum
        rng = np.random.default_rng(19)
        mus = [random_measure(rng, 3, 2, uniform=False) for _ in range(3)]
        res = solve_mmot(mus, 2.0)
        assert wb_value(extract_barycenter(res), mus, 2.0) == pytest.approx(
            res.value, rel=1e-9
        )

    def test_no_competitor_does_better(self):
        # the barycenter functional at other candidate measures never
        # beats the multi-marginal value
        rng = np.random.default_rng(20)
        mus = [random_measure(rng, 3, 1, uniform=False) for _ in range(3)]
        res = solve_mmot(mus, 2.0)
        for trial in range(5):
            cand = random_measure(rng, 4, 1, uniform=False)
            assert wb_value(cand, mus, 2.0) >= res.value - 1e-10


class TestDualCertificates:
    def test_certificate_is_tight(self):
        rng = np.random.default_rng(21)
        mus = [random_measure(rng, 3, 2, uniform=False) for _ in range(3)]
        res = solve_mmot(mus, 1.5)
        cert = dual_feasibility_check(res)
        assert cert.max_violation < 1e-9
        assert cert.duality_gap < 1e-9 * (1.0 + abs(res.value))
        assert cert.support_slack < 1e-9

    def test_no_barycenter_is_solved_again(self, monkeypatch):
        # the check bounds the costs in closed form at the solve's points
        rng = np.random.default_rng(22)
        res = solve_mmot([random_measure(rng, 3, 2, uniform=False) for _ in range(3)], 1.5)

        def refuse(*args, **kwargs):
            raise AssertionError("the dual check solved a barycenter")

        monkeypatch.setattr(transport, "batch_barycenters", refuse)
        monkeypatch.setattr(infconv, "batch_barycenters", refuse)
        cert = dual_feasibility_check(res)
        assert cert.max_violation < 1e-9

    def test_tuple_means_never_lower_the_violation(self):
        # the meeting points are witnesses only: a worse point can weaken
        # the bounds and raise the violation, never hide one
        rng = np.random.default_rng(23)
        mus = [random_measure(rng, 4, 2, uniform=False) for _ in range(3)]
        res = solve_mmot(mus, 1.5)
        idx = np.indices([4, 4, 4]).reshape(3, -1).T
        means = np.stack([mu.points[idx[:, k]] for k, mu in enumerate(mus)], axis=1).mean(axis=1)
        worse = dataclasses.replace(res, grid_barycenters=means)
        assert dual_feasibility_check(worse).max_violation > dual_feasibility_check(res).max_violation


def pinned_instance(seed: int, n_marginals: int, n_atoms: int, dim: int) -> list[DiscreteMeasure]:
    rng = np.random.default_rng(seed)
    return [
        DiscreteMeasure(rng.uniform(size=(n_atoms, dim)), rng.dirichlet(np.ones(n_atoms)))
        for _ in range(n_marginals)
    ]


# Recorded at commit 4c2be6c, before the tuple grid moved to the planes
# layout and the simplex loop was trimmed; both were to change no bit.
# Keys: (seed, marginals, atoms, dim, p).  Values: solve_mmot's value, plan
# indices and masses, final basis, and the dual certificate's
# (max_violation, duality_gap, support_slack), floats as float.hex.
PINNED_SOLVES = {
    (5, 3, 6, 2, 1.5): dict(
        value="0x1.4236c42e464ecp-2",
        indices=[[0, 2, 4], [0, 3, 2], [0, 3, 4], [1, 0, 3], [1, 2, 3], [1, 5, 5], [2, 0, 3], [2, 1, 3],
                 [3, 0, 3], [4, 3, 1], [4, 3, 2], [4, 4, 1], [5, 2, 0], [5, 2, 4], [5, 2, 5], [5, 5, 5]],
        masses=["0x1.99f20380d81a4p-4", "0x1.2c7855e57a7c0p-10", "0x1.0f89542c45bacp-5", "0x1.8e7e0dc9495c0p-8",
                "0x1.0ce710e1a3936p-5", "0x1.ad65dea9d6384p-4", "0x1.c7da0f6bd4129p-6", "0x1.05eb3ace7f8f8p-12",
                "0x1.137c2432a926dp-2", "0x1.9b4b12aaa3116p-4", "0x1.896788ccf6fe8p-6", "0x1.aaf09af9b4713p-5",
                "0x1.b5aa7e5a4d89ep-9", "0x1.1de2cd98f96fep-3", "0x1.756d7754f8650p-4", "0x1.cf5c032a8d678p-7"],
        basis=[192, 71, 51, 111, 196, 22, 197, 39, 16, 81, 215, 75, 20, 164, 163, 169],
        certificate=["0x1.0000000000000p-54", "0x1.0000000000000p-54", "0x1.0000000000000p-53"],
    ),
    (6, 3, 6, 2, 3.0): dict(
        value="0x1.0d97433097a7bp-5",
        indices=[[0, 1, 1], [1, 1, 1], [1, 1, 5], [1, 2, 2], [1, 2, 3], [1, 4, 3], [1, 5, 3], [1, 5, 5],
                 [2, 0, 0], [2, 0, 1], [2, 0, 4], [2, 3, 4], [3, 0, 0], [3, 1, 0], [4, 1, 0], [5, 4, 3]],
        masses=["0x1.7c91e904b5a6bp-9", "0x1.3d59c80a0f550p-6", "0x1.7b8db2268c61ep-5", "0x1.fcdde9cd5cb57p-11",
                "0x1.c67d5d4f046bfp-7", "0x1.4b3a79936de8ep-4", "0x1.3e8f3b8a19bf5p-2", "0x1.ca88c7565ca9cp-4",
                "0x1.2f3c817750db0p-4", "0x1.85e756671cab8p-4", "0x1.6f205450d2246p-5", "0x1.8db48edf5f933p-4",
                "0x1.d06cedb21e4acp-6", "0x1.383fadd977c36p-5", "0x1.3ada748a8e7ccp-7", "0x1.a0d6750660186p-6"],
        basis=[72, 73, 114, 94, 150, 7, 108, 76, 43, 50, 47, 51, 71, 69, 63, 207],
        certificate=["0x1.0000000000000p-55", "0x0.0p+0", "0x1.0000000000000p-56"],
    ),
    (7, 4, 4, 1, 1.2): dict(
        value="0x1.8aa2c794da5afp-2",
        indices=[[0, 2, 2, 2], [1, 0, 0, 3], [1, 0, 1, 1], [1, 0, 1, 3], [1, 0, 3, 3], [1, 1, 1, 1], [1, 1, 1, 2],
                 [1, 1, 2, 2], [1, 2, 2, 2], [2, 2, 2, 2], [3, 2, 2, 0], [3, 2, 2, 2], [3, 3, 2, 0]],
        masses=["0x1.07fc253081f0dp-5", "0x1.0cfb2faf4e982p-3", "0x1.a6baed65e6160p-6", "0x1.bae1bf3105320p-7",
                "0x1.98add5e1f5e00p-5", "0x1.5609b51aa7628p-3", "0x1.9d0520d363b80p-6", "0x1.22a2a4b61910ep-4",
                "0x1.6a42097ab1394p-5", "0x1.8ef0581c508a4p-10", "0x1.f0de933f0a328p-4", "0x1.0ce0b9df4d88ep-2",
                "0x1.bde82fbc83880p-5"],
        basis=[248, 42, 234, 85, 170, 232, 90, 86, 69, 106, 71, 79, 67],
        certificate=["0x1.0000000000000p-53", "0x1.0000000000000p-54", "0x1.0000000000000p-53"],
    ),
}


class TestPinnedBits:
    @pytest.mark.parametrize("key", list(PINNED_SOLVES))
    def test_solve_and_certificate_bits(self, key):
        seed, n_marginals, n_atoms, dim, p = key
        pinned = PINNED_SOLVES[key]
        res = solve_mmot(pinned_instance(seed, n_marginals, n_atoms, dim), p)
        cert = dual_feasibility_check(res)
        assert res.value.hex() == pinned["value"]
        assert res.plan.indices.tolist() == pinned["indices"]
        assert [float(m).hex() for m in res.plan.masses] == pinned["masses"]
        assert res._basis.tolist() == pinned["basis"]
        certificate = [cert.max_violation.hex(), cert.duality_gap.hex(), cert.support_slack.hex()]
        assert certificate == pinned["certificate"]


class TestMemory:
    # tracemalloc peak of the solve below, 10,697,092 bytes, measured by
    # this test at commit 4c2be6c (numpy 2.4, CPython 3.11, x86-64), when
    # the grid was an (m, N, d) gather from index tuples.
    PEAK_AT_4C2BE6C = 10_697_092

    def test_solve_peak_stays_at_or_below_the_recorded_one(self):
        mus = pinned_instance(0, 3, 30, 2)
        solve_mmot(mus, 1.5)
        tracemalloc.start()
        try:
            solve_mmot(mus, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_AT_4C2BE6C
