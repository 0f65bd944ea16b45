"""Tests for the power cost and its infimal convolution."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from baryflow import (
    ConvergenceError,
    NonFiniteCoordinateError,
    WrongExponentError,
    barycenter_point,
    batch_barycenters,
    check_exponent,
    power_cost_gradient,
)
from baryflow import infconv

from .oracles import pinned_polish_loop, tuple_cost_minimize

# Reference minima computed with a derivative-free method and an
# independent 1-d grid search (step 1e-6, then golden-section polish).
GRID_CASES = [
    # (p, points, minimizer, value)
    (1.5, [0.0, 1.0, 5.0], 1.4564404, 8.736568661145469),
    (3.0, [0.0, 1.0, 2.0], 1.0, 2.0),
    (1.5, [0.0, 1.0], 0.5, 2.0 ** -0.5),
    (4.0, [0.0, 1.0], 0.5, 0.125),
]


class TestExponent:
    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0, np.inf, np.nan])
    def test_bad_exponents_rejected(self, p):
        with pytest.raises(WrongExponentError):
            check_exponent(p)

    def test_barely_admissible(self):
        assert check_exponent(1.0 + 1e-9) == pytest.approx(1.0 + 1e-9)


class TestPowerCost:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        u = rng.uniform(0.2, 1.0, size=3)
        for p in (1.5, 2.0, 2.5, 3.0):
            g = power_cost_gradient(u, p)
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1e-7
                fd = (np.linalg.norm(u + e) ** p - np.linalg.norm(u - e) ** p) / 2e-7
                assert g[k] == pytest.approx(fd, rel=1e-5)

    def test_gradient_zero_at_origin(self):
        # |u|^p with p > 1 is differentiable at zero with gradient 0
        assert np.array_equal(power_cost_gradient(np.zeros(2), 1.5), [0.0, 0.0])
        assert power_cost_gradient(0.0, 1.5) == 0.0

    def test_gradient_broadcasts_over_batches(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(size=(5, 4, 2))
        g = power_cost_gradient(u, 2.5)
        assert g.shape == (5, 4, 2)
        assert np.allclose(g[2], power_cost_gradient(u[2], 2.5))


class TestBarycenterPoint:
    @pytest.mark.parametrize("p,xs,z_ref,value_ref", GRID_CASES)
    def test_matches_grid_search(self, p, xs, z_ref, value_ref):
        res = barycenter_point(np.array(xs), p)
        assert res.barycenter[0] == pytest.approx(z_ref, abs=1e-6)
        assert res.value == pytest.approx(value_ref, rel=1e-12)

    def test_quadratic_case_is_the_mean(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=(5, 3))
        res = barycenter_point(x, 2.0)
        assert np.allclose(res.barycenter, x.mean(axis=0), atol=1e-14)
        assert res.value == pytest.approx(((x - x.mean(axis=0)) ** 2).sum())

    def test_single_point_tuple(self):
        res = barycenter_point(np.array([[2.0, 3.0]]), 1.5)
        assert res.barycenter == pytest.approx([2.0, 3.0])
        assert res.value == pytest.approx(0.0, abs=1e-20)

    def test_identical_points_tuple(self):
        res = barycenter_point(np.array([[1.0], [1.0], [1.0]]), 3.0)
        assert res.barycenter[0] == pytest.approx(1.0)
        assert res.value == pytest.approx(0.0, abs=1e-20)

    def test_gradient_norm_reported_small(self):
        rng = np.random.default_rng(12)
        res = barycenter_point(rng.uniform(size=(4, 2)), 1.5)
        assert res.grad_norm < 1e-9

    def test_one_dimensional_input_accepted(self):
        flat = barycenter_point(np.array([0.0, 2.0]), 2.0)
        shaped = barycenter_point(np.array([[0.0], [2.0]]), 2.0)
        assert flat.barycenter == pytest.approx(shaped.barycenter)

    def test_first_order_optimality(self):
        # the cost gradient in z is -sum_i grad|x_i - z|^p, so the sum of
        # displacement gradients must vanish at the reported barycenter
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 3))
        for p in (1.5, 2.0, 3.0):
            res = barycenter_point(x, p)
            g = power_cost_gradient(x - res.barycenter, p).sum(axis=0)
            r = np.linalg.norm(x - res.barycenter, axis=1)
            scale = 1.0 + (r ** (p - 1)).sum()
            assert np.linalg.norm(g) <= 1e-9 * scale


class TestInfconvValue:
    def test_translation_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.uniform(size=(3, 2))
        shift = np.array([4.0, -7.0])
        for p in (1.5, 2.0, 3.0):
            assert barycenter_point(x + shift, p).value == pytest.approx(
                barycenter_point(x, p).value, rel=1e-10
            )

    def test_positive_homogeneity_of_degree_p(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=(3, 2))
        for p in (1.5, 2.0, 3.0):
            assert barycenter_point(2.0 * x, p).value == pytest.approx(
                2.0 ** p * barycenter_point(x, p).value, rel=1e-9
            )

    def test_below_any_competitor(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(4, 2))
        val = barycenter_point(x, 2.5).value
        for trial in rng.normal(size=(20, 2)):
            assert val <= (np.linalg.norm(x - trial, axis=1) ** 2.5).sum() + 1e-12


class TestBatch:
    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(10, 3, 2))
        for p in (1.5, 2.0, 3.0):
            z, val, grad = batch_barycenters(pts, p)
            assert z.shape == (10, 2)
            for i in (0, 4, 9):
                one = barycenter_point(pts[i], p)
                assert np.allclose(z[i], one.barycenter, atol=1e-9)
                assert val[i] == pytest.approx(one.value, rel=1e-12)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_rows_bit_equal_to_solo_solves(self, p):
        # every row is iterated on its own, whatever else is in the batch,
        # so solving a row alone must give the very same bits
        rng = np.random.default_rng(19)
        pts = rng.uniform(0.0, 1.0, size=(300, 3, 2))
        z, val, grad = batch_barycenters(pts, p)
        for i in range(len(pts)):
            z_i, val_i, grad_i = batch_barycenters(pts[i : i + 1], p)
            assert np.array_equal(z[i : i + 1], z_i)
            assert np.array_equal(val[i : i + 1], val_i)
            assert np.array_equal(grad[i : i + 1], grad_i)

    def test_quadratic_barycenter_is_numpys_mean_bit_for_bit(self):
        # the tuple means are summed one slice at a time; for fewer than 8
        # points that is numpy's own order, so the bits are numpy's
        rng = np.random.default_rng(23)
        for n_points in range(1, 8):
            pts = rng.normal(size=(50, n_points, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(50, n_points, 2))
            assert np.array_equal(batch_barycenters(pts, 2.0)[0], pts.mean(axis=1))

    def test_empty_batch(self):
        z, val, grad = batch_barycenters(np.zeros((0, 3, 2)), 1.5)
        assert z.shape == (0, 2)
        assert val.shape == (0,)

    def test_large_batch_converges_for_small_exponent(self):
        # p < 2 is the delicate regime: the Hessian degenerates near atoms
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(500, 4, 3))
        _, _, grad = batch_barycenters(pts, 1.2)
        assert grad.max() < 1e-8

    def test_mixed_coincident_and_spread_rows(self):
        pts = np.array(
            [
                [[0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [1.0, 1.0]],
            ]
        )
        z, val, _ = batch_barycenters(pts, 1.5)
        assert val[0] == pytest.approx(0.0, abs=1e-20)
        assert np.allclose(z[1], [0.5, 0.5], atol=1e-9)

    def test_minimizer_pinned_to_a_data_point(self):
        # the gradients of the outer three points nearly cancel at the
        # third one, so the minimizer sits ~4e-8 away from it; Newton
        # alone crawls in this regime (curvature diverges for p < 2)
        pts = np.array([[0.90732536], [0.93953158], [0.725885], [-0.06332859]])
        res = barycenter_point(pts, 1.5)
        assert abs(float(res.barycenter[0]) - 0.725885) < 1e-6
        assert res.value == pytest.approx(0.8771567075900678, rel=1e-10)
        assert res.grad_norm < 1e-9

    def test_minimizer_exactly_at_a_data_point(self):
        # symmetric cross: the center atom is the exact minimizer
        pts = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]
        )
        res = barycenter_point(pts, 1.5)
        assert np.abs(res.barycenter).max() < 1e-9
        assert res.value == pytest.approx(4.0)

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_pinned_finish_matches_loop_reference(self, p):
        # the last atom sits near the barycenter of the other three, so the
        # minimizer is pinned to it; start every row close to that atom
        rng = np.random.default_rng(31)
        pts = []
        for _ in range(40):
            rest = rng.uniform(-1.0, 1.0, size=(3, 2))
            offset = 10.0 ** rng.uniform(-6.0, -1.0) * rng.normal(size=2)
            pts.append(np.vstack([rest, barycenter_point(rest, p).barycenter + offset]))
        pts = np.array(pts)
        z0 = pts[:, -1] + 1e-3 * rng.normal(size=(len(pts), 2))
        state = infconv._gradient_state(pts, z0, p)
        z, norm, scale, _ = infconv._pinned_polish(pts, z0, state, p)
        ref = pinned_polish_loop(pts, z0, p, infconv.DEFAULT_TOL)
        assert np.array_equal((z != z0).any(axis=1), (ref != z0).any(axis=1))
        assert np.abs(z - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())
        assert (z != z0).any(axis=1).sum() >= 30
        assert (norm <= infconv.DEFAULT_TOL * scale).sum() >= 5

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    def test_overflowing_distances_raise(self, p):
        # |x| overflows in the norm, which once read as a zero residual
        # against an infinite scale and passed the finish test
        with np.errstate(all="ignore"), pytest.raises(NonFiniteCoordinateError):
            batch_barycenters(np.array([[[0.0, 0.0], [1e160, 0.0]]]), p)

    @pytest.mark.parametrize(
        "tup",
        [
            [[0.0, 0.0], [1e110, 0.0]],
            [[0.0, 0.0], [1e110, 0.0], [0.0, 1e110]],
            [[0.0, 0.0], [1e90, 0.0], [0.0, 1e90]],
        ],
    )
    def test_cost_overflow_at_p_three_raises(self, tup):
        # the distances square fine, but their cube or the squared
        # residual overflows: once an infinite value passed as converged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteCoordinateError, match="overflow"):
                batch_barycenters(np.array([tup]), 3.0)

    def test_pinned_finish_keeps_no_overflowed_point(self):
        # started from the tuple mean, away from any pinned minimizer, the
        # balance steps run off towards infinity on most rows
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(80, 5, 3))
        z0 = pts.mean(axis=1)
        state = infconv._gradient_state(pts, z0, 1.2)
        with np.errstate(all="ignore"):
            z, norm, scale, r = infconv._pinned_polish(pts, z0, state, 1.2)
        assert np.isfinite(z).all() and np.isfinite(scale).all() and np.isfinite(r).all()
        assert (z == z0).all(axis=1).sum() >= 70

    @pytest.mark.parametrize("s, p", [(1e20, 1.2), (1e40, 1.5), (1e60, 1.2)])
    def test_large_triangle_converges(self, s, p):
        # the Hessian regularization is relative to its trace; an absolute
        # floor swamped the curvature p r^(p-2) at these scales, and
        # Newton stalled into a ConvergenceError
        unit = batch_barycenters(np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]]), p)[0]
        z, _, _ = batch_barycenters(np.array([[[0.0, 0.0], [s, 0.0], [0.0, s]]]), p)
        np.testing.assert_allclose(z / s, unit, rtol=1e-9)

    def test_pinned_finish_overflow_is_not_reported(self):
        # at p = 1.01 the balance steps of the pinned finish overflow on
        # tiny spread-out tuples; those points are discarded, and the rows
        # left unconverged raise without a numpy warning
        pts = 1e-6 * np.random.default_rng(0).uniform(size=(300, 3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                batch_barycenters(pts, 1.01)

    @pytest.mark.parametrize("seed", range(6))
    def test_small_exponent_grid_skips_the_newton_tail(self, monkeypatch, seed):
        # the rows pinned to a data point are finished early by the
        # pinned-point balance instead of crawling through every Newton
        # iteration (about 330-380 gradient evaluations on these grids)
        rng = np.random.default_rng(seed)
        marginals = [rng.uniform(0.0, 1.0, (8, 2)) for _ in range(3)]
        idx = np.indices((8, 8, 8)).reshape(3, -1).T
        pts = np.stack([mu[idx[:, i]] for i, mu in enumerate(marginals)], axis=1)
        calls = []
        original = infconv._gradient_state

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(infconv, "_gradient_state", counted)
        _, _, grad = batch_barycenters(pts, 1.2)
        assert len(calls) < 100
        assert grad.max() < 1e-8

    def test_full_step_that_raises_the_objective_is_searched(self):
        # a grid tuple of a p = 1.2, N = 4 benchmark instance (in its
        # frame): full steps that cut the gradient norm but raised the
        # objective alternated with descending line searches, and the row
        # ended 200 iterations about 0.1 from its minimizer, unconverged
        pts = np.array(
            [
                [0.024224445661501802, -0.4547054408782098],
                [-0.03576979980372463, -0.3129963116521549],
                [-0.3090320146799323, 0.45741510855509565],
                [0.015139532490341896, -0.30452925722549],
            ]
        )
        _, val, _ = batch_barycenters(pts[None], 1.2)
        assert val[0] == pytest.approx(tuple_cost_minimize(pts, 1.2), rel=1e-12)


class TestWarmStart:
    @pytest.mark.parametrize("p, offset", [(1.2, 1e6), (3.0, 1e6), (1.5, 1e160)])
    def test_unsettled_rows_repeat_the_cold_bits(self, monkeypatch, p, offset):
        # rows started at their cold answer settle at once, with its bits;
        # far-off rows that are not settled by _PINNED_AFTER (at 1e160 the
        # start state overflows) are solved again from the tuple mean and
        # get the cold bits too
        pts = np.random.default_rng(8).uniform(size=(60, 3, 2))
        cold = batch_barycenters(pts, p)
        far = np.arange(0, 60, 3)
        start = cold[0].copy()
        start[far] += offset
        retried = []
        original = infconv._newton

        def recorded(points, z, state, p, idx, stop, *rest):
            if stop == infconv.DEFAULT_MAX_ITER:
                retried.append(idx)
            return original(points, z, state, p, idx, stop, *rest)

        monkeypatch.setattr(infconv, "_newton", recorded)
        warm = batch_barycenters(pts, p, _start=start)
        (rows,) = retried
        assert rows.size and np.isin(rows, far).all()
        near = np.setdiff1d(np.arange(60), far)
        for got, want in zip(warm, cold):
            assert np.array_equal(got[rows], want[rows]) and np.array_equal(got[near], want[near])


@st.composite
def _tuple_batches(draw):
    """Batches of point tuples, some with coincident or near-coincident atoms."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, 3))
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    pts = np.array(draw(st.lists(coords, min_size=m * n * d, max_size=m * n * d))).reshape(m, n, d)
    for k in range(m):
        gap = draw(st.sampled_from([None, 0.0, 1e-12, 1e-8, 1e-4]))
        if gap is not None:
            i, j = draw(st.permutations(range(n)))[:2]
            pts[k, j] = pts[k, i] + gap
    return pts


class TestSmallExponentProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pts=_tuple_batches(), p=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    def test_returned_rows_are_stationary_and_minimal(self, pts, p):
        try:
            with np.errstate(all="ignore"):
                z, val, grad = batch_barycenters(pts, p)
        except ConvergenceError:
            return
        diff = pts - z[:, None, :]
        r = np.linalg.norm(diff, axis=2)
        scale = 1.0 + (r ** (p - 1.0)).sum(axis=1)
        coeff = np.where(r > 0.0, p * np.where(r > 0.0, r, 1.0) ** (p - 2.0), 0.0)
        resid = np.linalg.norm((coeff[:, :, None] * diff).sum(axis=1), axis=1)
        assert (grad <= infconv.DEFAULT_TOL * scale).all()
        assert np.all(np.abs(resid - grad) <= 1e-12 * scale)
        # convexity: f(z) - f(y) <= |grad f(z)| |z - y| for every y
        for k in range(len(pts)):
            for y in np.vstack([pts[k].mean(axis=0), pts[k]]):
                obj = (np.linalg.norm(pts[k] - y, axis=1) ** p).sum()
                slack = (grad[k] + 1e-12 * scale[k]) * np.linalg.norm(z[k] - y) + 1e-12 * obj
                assert val[k] <= obj + slack


class TestDualLowerBound:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        pts=_tuple_batches(),
        p=st.floats(1.0, 8.0, exclude_min=True),
        scale=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
        offset=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    )
    # gradients of about 3e-167 square below the smallest subnormal
    @example(pts=np.array([[[0.0], [3.12724991e-42]]]), p=5.0, scale=1.0, offset=[0.0, 0.0, 0.0])
    def test_bounds_bracket_the_cost_at_any_witness(self, pts, p, scale, offset):
        # weak duality: L(w) <= cost <= U(w) at every witness w
        pts = scale * pts
        mean = pts.mean(axis=1)
        witnesses = [mean, mean + scale * np.array(offset[: pts.shape[2]])]
        with np.errstate(all="ignore"):
            try:
                z, value, grad = batch_barycenters(pts, p)
            except ConvergenceError:
                value = None
            else:
                witnesses.append(z)
            lower = [infconv._dual_lower_bound(pts, w, p) for w in witnesses]
            upper = [infconv._objective(pts, w, p) for w in witnesses]
        eps = np.finfo(float).eps
        for w, lo, up in zip(witnesses, lower, upper):
            # rounding of L: a few ulps of its terms, which are about p U(w),
            # and |ln r| ulps at radius r from the rounded exponent 1/(p-1)
            r = np.linalg.norm(pts - w[:, None, :], axis=2)
            logs = np.abs(np.log(np.where(r > 0.0, r, 1.0))).max(axis=1)
            allowance = 4 * pts.shape[1] * p * eps * (1.0 + logs) * up
            for other in upper:
                assert (lo <= other + allowance).all()
            if value is not None:
                assert (lo <= value + allowance).all()
                # Newton meets a gradient tolerance, not a value one, so by
                # convexity it is within |grad| |z - w| of the objective at w
                slack = grad * np.linalg.norm(z - w, axis=1)
                assert (value <= up + slack + 4 * eps * value).all()
        if value is not None:
            assert np.array_equal(upper[-1], value)
