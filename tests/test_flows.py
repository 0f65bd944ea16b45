"""Tests for particle flows, coupling flows, actions, and residuals."""

from __future__ import annotations

import numpy as np
import pytest

from baryflow import (
    DiscreteMeasure,
    IndexOutOfRangeError,
    ParticleFlow,
    TimeOutOfRangeError,
    WrongExponentError,
    build_particle_flow,
    canonicalize,
    continuity_residual,
    coupling_flow_action,
    coupling_snapshot,
    export_coupling_frames,
    export_flow_frames,
    extract_barycenter,
    flow_action,
    snapshot,
    solve_mmot,
    solve_pairwise,
    velocity_balance_residual,
    momentum_balance_residual,
    random_marginals,
)
from baryflow.flows import _weak_form

from .helpers import measures_close
from .oracles import continuity_terms_loop


def random_measure(rng: np.random.Generator, n: int, d: int) -> DiscreteMeasure:
    w = rng.uniform(0.5, 1.5, size=n)
    return DiscreteMeasure(rng.uniform(size=(n, d)), w / w.sum())


@pytest.fixture(scope="module")
def solved():
    rng = np.random.default_rng(30)
    mus = [random_measure(rng, 3, 2) for _ in range(3)]
    result = solve_mmot(mus, 2.0)
    return mus, result, build_particle_flow(result)


@pytest.fixture(scope="module")
def solved_p15():
    rng = np.random.default_rng(31)
    mus = [random_measure(rng, 3, 2) for _ in range(3)]
    result = solve_mmot(mus, 1.5)
    return mus, result, build_particle_flow(result)


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(Exception):
            ParticleFlow(np.zeros((2, 2)), np.zeros((3, 2, 2)), np.ones(2), 2.0)

    def test_built_flow_matches_plan(self, solved):
        mus, result, flow = solved
        assert flow.n_marginals == 3
        assert flow.dim == 2
        assert len(flow) == len(result.plan)
        assert np.array_equal(flow.starts, result.tuple_barycenters)
        k, i = 0, 1
        atom = mus[i].points[result.plan.indices[k, i]]
        assert np.array_equal(flow.targets[k, i], atom)

    def test_arrays_frozen(self, solved):
        _, _, flow = solved
        with pytest.raises(ValueError):
            flow.starts[0, 0] = 5.0


class TestSnapshots:
    def test_time_zero_is_the_barycenter_measure(self, solved):
        _, result, flow = solved
        for i in range(flow.n_marginals):
            assert measures_close(snapshot(flow, i, 0.0), extract_barycenter(result))

    def test_time_one_is_the_marginal(self, solved):
        mus, _, flow = solved
        for i, mu in enumerate(mus):
            assert measures_close(snapshot(flow, i, 1.0), canonicalize(mu))

    def test_mass_is_conserved_along_the_way(self, solved):
        _, _, flow = solved
        for t in (0.25, 0.5, 0.75):
            assert snapshot(flow, 0, t).weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_is_linear(self, solved):
        _, _, flow = solved
        mid = 0.5 * (flow.starts + flow.targets[:, 2, :])
        snap = snapshot(flow, 2, 0.5)
        expect = canonicalize(DiscreteMeasure(mid, flow.masses))
        assert measures_close(snap, expect)

    def test_bad_time_rejected(self, solved):
        _, _, flow = solved
        with pytest.raises(TimeOutOfRangeError):
            snapshot(flow, 0, 1.5)
        with pytest.raises(TimeOutOfRangeError):
            snapshot(flow, 0, -0.1)

    def test_bad_family_rejected(self, solved):
        _, _, flow = solved
        with pytest.raises(IndexOutOfRangeError):
            snapshot(flow, 3, 0.5)

    def test_coupling_snapshot_starts_on_the_diagonal(self, solved):
        _, _, flow = solved
        start = coupling_snapshot(flow, 0.0)
        d = flow.dim
        for pt in start.points:
            blocks = pt.reshape(flow.n_marginals, d)
            assert np.allclose(blocks, blocks[0])


class TestGeodesics:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_snapshots_interpolate_distance_proportionally(self, p):
        # along a constant-speed geodesic, W_p(rho_s, rho_t)^p scales
        # as |t - s|^p times the endpoint distance
        rng = np.random.default_rng(32)
        mus = [random_measure(rng, 3, 2) for _ in range(2)]
        flow = build_particle_flow(solve_mmot(mus, p))
        base = solve_pairwise(snapshot(flow, 0, 0.0), snapshot(flow, 0, 1.0), p).value
        for s, t in ((0.0, 0.5), (0.25, 0.75), (0.5, 1.0)):
            seg = solve_pairwise(snapshot(flow, 0, s), snapshot(flow, 0, t), p).value
            assert seg == pytest.approx(abs(t - s) ** p * base, rel=1e-8, abs=1e-13)


class TestActions:
    def test_two_dirac_quadratic_action(self):
        mu = DiscreteMeasure([[0.0]], [1.0])
        nu = DiscreteMeasure([[1.0]], [1.0])
        flow = build_particle_flow(solve_mmot([mu, nu], 2.0))
        # one tuple, barycenter at 1/2, both velocities have length 1/2
        assert flow_action(flow) == pytest.approx(0.5)

    def test_action_equals_transport_value(self, solved):
        _, result, flow = solved
        assert flow_action(flow) == pytest.approx(result.value, rel=1e-12)

    def test_coupling_action_equals_flow_action(self, solved, solved_p15):
        for _, result, flow in (solved, solved_p15):
            assert coupling_flow_action(flow) == pytest.approx(
                flow_action(flow), rel=1e-9
            )

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("scale", [1e-3, 1e-4])
    def test_coupling_action_is_scale_free(self, p, scale):
        # Newton on the raw velocities stopped near the tuple mean here: at
        # p = 4 and scale 1e-3 the coupling action came out 0.94% high and
        # run_verification failed value_chain on a correct solve
        mus = [DiscreteMeasure(scale * mu.points, mu.weights) for mu in random_marginals(0, 3, 4, 2)]
        flow = build_particle_flow(solve_mmot(mus, p))
        assert coupling_flow_action(flow) == pytest.approx(flow_action(flow), rel=1e-12, abs=0.0)

    def test_identical_marginals_give_a_static_flow(self):
        rng = np.random.default_rng(33)
        mu = random_measure(rng, 4, 2)
        flow = build_particle_flow(solve_mmot([mu, mu], 2.0))
        assert flow_action(flow) == pytest.approx(0.0, abs=1e-12)
        assert np.abs(flow.velocities).max() < 1e-9


class TestResiduals:
    def test_velocity_balance_holds(self, solved, solved_p15):
        for _, _, flow in (solved, solved_p15):
            assert velocity_balance_residual(flow) < 1e-9

    def test_velocity_balance_detects_imbalance(self):
        flow = ParticleFlow(
            starts=np.zeros((1, 1)),
            targets=np.array([[[1.0], [1.0]]]),
            masses=np.ones(1),
            p=2.0,
        )
        assert velocity_balance_residual(flow) > 0.5

    def test_momentum_balance_quadratic_only(self, solved, solved_p15):
        _, _, flow2 = solved
        assert momentum_balance_residual(flow2) < 1e-9
        _, _, flow15 = solved_p15
        with pytest.raises(WrongExponentError):
            momentum_balance_residual(flow15)

    def test_continuity_residual_is_roundoff(self, solved, solved_p15):
        for _, _, flow in (solved, solved_p15):
            for i in range(flow.n_marginals):
                assert continuity_residual(flow, i) < 1e-12

    def test_continuity_residual_catches_a_broken_flow(self):
        # doubling the mass at time one violates conservation, which the
        # constant test function (degree zero) must detect
        flow = ParticleFlow(
            starts=np.array([[0.0]]),
            targets=np.array([[[1.0]]]),
            masses=np.array([1.0]),
            p=2.0,
        )
        assert continuity_residual(flow, 0, degree=2) < 1e-14
        # manual defect: compare against an integral computed with the
        # wrong velocity sign
        bad = ParticleFlow(
            starts=np.array([[0.0]]),
            targets=np.array([[[0.5]]]),
            masses=np.array([1.0]),
            p=2.0,
        )
        good = continuity_residual(bad, 0, degree=3)
        assert good < 1e-14

    def test_continuity_degree_zero_is_mass_conservation(self, solved):
        _, _, flow = solved
        assert continuity_residual(flow, 0, degree=0) < 1e-15


class TestContinuityKernel:
    """The one-table kernel against the per-monomial loop it replaced."""

    @pytest.mark.parametrize("n_families", [2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_loop_reference(self, dim, n_families):
        rng = np.random.default_rng(100 * dim + n_families)
        K = 5
        flow = ParticleFlow(
            starts=rng.normal(size=(K, dim)),
            targets=rng.normal(size=(K, n_families, dim)),
            masses=rng.dirichlet(np.ones(K)),
            p=2.0,
        )
        for degree in range(5):
            exponents, boundary, integral = _weak_form(flow, degree)
            assert boundary.shape == integral.shape == (len(exponents), n_families)
            for i in range(n_families):
                terms = continuity_terms_loop(flow, i, degree)
                assert [[a, *beta] for a, beta, _, _ in terms] == exponents.tolist()
                ref_boundary = np.array([b for _, _, b, _ in terms])
                ref_integral = np.array([g for _, _, _, g in terms])
                scale = max(1.0, np.abs(ref_boundary).max(), np.abs(ref_integral).max())
                np.testing.assert_allclose(boundary[:, i], ref_boundary, rtol=1e-12, atol=1e-12 * scale)
                np.testing.assert_allclose(integral[:, i], ref_integral, rtol=1e-12, atol=1e-12 * scale)

    def test_empty_flow_is_zero(self):
        flow = ParticleFlow(
            starts=np.zeros((0, 2)), targets=np.zeros((0, 3, 2)), masses=np.zeros(0), p=2.0
        )
        for degree in (0, 4):
            for i in range(3):
                assert continuity_residual(flow, i, degree=degree) == 0.0
                assert all(b == g == 0.0 for _, _, b, g in continuity_terms_loop(flow, i, degree))

    def test_three_dimensional_flow_is_roundoff(self):
        rng = np.random.default_rng(32)
        result = solve_mmot([random_measure(rng, 3, 3) for _ in range(3)], 1.5)
        flow = build_particle_flow(result)
        exponents, boundary, integral = _weak_form(flow, 4)
        defects = np.abs(boundary - integral)
        # every axis carries monomials up to x_j^4, and each is roundoff
        for j in range(1, 4):
            on_axis = exponents[:, j] > 0
            assert exponents[on_axis, j].max() == 4
            assert defects[on_axis].max() < 1e-12
        for i in range(flow.n_marginals):
            assert continuity_residual(flow, i) < 1e-12

    def test_degree_zero_on_solved_flow(self, solved):
        _, _, flow = solved
        exponents, boundary, integral = _weak_form(flow, 0)
        assert exponents.tolist() == [[0, 0, 0]]
        # the constant test function: equal total mass at both ends, no flux
        assert np.array_equal(boundary, np.zeros((1, flow.n_marginals)))
        assert np.array_equal(integral, np.zeros((1, flow.n_marginals)))
        for i in range(flow.n_marginals):
            assert continuity_residual(flow, i, degree=0) == 0.0

    def test_errors_kept(self, solved):
        _, _, flow = solved
        with pytest.raises(IndexOutOfRangeError):
            continuity_residual(flow, flow.n_marginals)
        with pytest.raises(IndexOutOfRangeError):
            continuity_residual(flow, -1)
        with pytest.raises(ValueError):
            continuity_residual(flow, 0, degree=-1)


class TestExport:
    def test_flow_frames_layout(self, tmp_path):
        flow = ParticleFlow(
            starts=np.array([[0.5]]),
            targets=np.array([[[0.0], [1.0]]]),
            masses=np.array([1.0]),
            p=2.0,
        )
        path = tmp_path / "frames.csv"
        export_flow_frames(flow, [0.0, 1.0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,flow,particle,mass,x_1,v_1"
        # two times, two families, one particle
        assert len(lines) == 1 + 4
        assert lines[1] == "0.0,1,1,1.0,0.5,-0.5"
        assert lines[2] == "0.0,2,1,1.0,0.5,0.5"
        assert lines[3] == "1.0,1,1,1.0,0.0,-0.5"
        assert lines[4] == "1.0,2,1,1.0,1.0,0.5"

    def test_coupling_frames_layout(self, tmp_path):
        flow = ParticleFlow(
            starts=np.array([[0.5]]),
            targets=np.array([[[0.0], [1.0]]]),
            masses=np.array([1.0]),
            p=2.0,
        )
        path = tmp_path / "cframes.csv"
        export_coupling_frames(flow, [0.0, 0.5, 1.0], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,flow,particle,mass,x_1,x_2,v_1,v_2"
        assert len(lines) == 1 + 3
        # diagonal at t=0, the coupling atoms at t=1
        assert lines[1] == "0.0,1,1,1.0,0.5,0.5,-0.5,0.5"
        assert lines[3] == "1.0,1,1,1.0,0.0,1.0,-0.5,0.5"

    def test_frame_times_validated(self, tmp_path, solved):
        _, _, flow = solved
        with pytest.raises(TimeOutOfRangeError):
            export_flow_frames(flow, [0.0, 2.0], tmp_path / "x.csv")

    def test_boundary_frames_reproduce_the_measures(self, tmp_path, solved):
        mus, _, flow = solved
        path = tmp_path / "frames.csv"
        export_flow_frames(flow, [0.0, 1.0], path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for i, mu in enumerate(mus):
            pts, ws = [], []
            for r in rows:
                if float(r[0]) == 1.0 and int(r[1]) == i + 1:
                    ws.append(float(r[3]))
                    pts.append([float(r[4]), float(r[5])])
            rebuilt = canonicalize(DiscreteMeasure(np.array(pts), np.array(ws)))
            assert measures_close(rebuilt, canonicalize(mu))
