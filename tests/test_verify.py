"""Tests for the verification driver and its report."""

from __future__ import annotations

import json

import numpy as np
import pytest

from baryflow import (
    CheckOutcome,
    DiscreteMeasure,
    build_particle_flow,
    continuity_residual,
    extract_barycenter,
    random_marginals,
    run_verification,
    solve_mmot,
    translation_vector,
    wb_value,
)
from baryflow import flows, transport, verify
from baryflow.verify import TRANSLATION_TOL


@pytest.fixture(scope="module")
def report():
    return run_verification(random_marginals(40, 3, 3, 2), 2.0)


class TestOutcome:
    def test_pass_fail_threshold(self):
        assert CheckOutcome(residual=1e-9, tolerance=1e-8).passed
        assert CheckOutcome(residual=1e-8, tolerance=1e-8).passed
        assert not CheckOutcome(residual=2e-8, tolerance=1e-8).passed

    def test_dict_status(self):
        d = CheckOutcome(residual=2e-8, tolerance=1e-8).to_dict()
        assert d == {"residual": 2e-8, "tolerance": 1e-8, "status": "fail"}


class TestTranslationVector:
    def test_alternating_signs(self):
        assert np.array_equal(translation_vector(4), [1.0, -1.0, 1.0, -1.0])
        assert np.array_equal(translation_vector(1), [1.0])


class TestRandomMarginals:
    def test_reproducible(self):
        a = random_marginals(7, 3, 4, 2)
        b = random_marginals(7, 3, 4, 2)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.points, mb.points)

    def test_shapes_and_weights(self):
        mus = random_marginals(8, 4, 5, 3, distribution="gaussian")
        assert len(mus) == 4
        for mu in mus:
            assert mu.points.shape == (5, 3)
            assert np.allclose(mu.weights, 0.2)

    def test_atoms_are_separated(self):
        for mu in random_marginals(9, 2, 6, 1):
            diffs = np.abs(mu.points[:, None, 0] - mu.points[None, :, 0])
            np.fill_diagonal(diffs, np.inf)
            assert diffs.min() >= 1e-6

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            random_marginals(0, 1, 3, 2)
        with pytest.raises(ValueError):
            random_marginals(0, 2, 0, 2)
        with pytest.raises(ValueError):
            random_marginals(0, 2, 3, 2, distribution="cauchy")


class TestRunVerification:
    def test_everything_passes_on_a_generic_instance(self, report):
        assert report.passed
        assert report.failing() == []
        assert report.value_spread <= 1e-7 * (1.0 + abs(report.values["mmot"]))

    def test_values_and_checks_present(self, report):
        assert set(report.values) == {
            "mmot",
            "barycenter_functional",
            "flow_action",
            "coupling_flow_action",
        }
        expected = {
            "value_chain",
            "stationarity",
            "velocity_balance",
            "momentum_balance",
            "continuity",
            "dual_certificate",
            "translation_invariance",
        }
        assert set(report.checks) == expected

    def test_momentum_check_only_for_quadratic_cost(self):
        rep = run_verification(random_marginals(41, 2, 3, 2), 1.5)
        assert "momentum_balance" not in rep.checks
        assert rep.passed

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_non_quadratic_exponents_pass(self, p):
        rep = run_verification(random_marginals(43, 3, 3, 2), p)
        assert rep.passed, rep.failing()

    def test_gaussian_instances_pass(self):
        rep = run_verification(random_marginals(44, 3, 4, 3, distribution="gaussian"), 2.0)
        assert rep.passed, rep.failing()

    def test_one_dimensional_instances_pass(self):
        rep = run_verification(random_marginals(45, 4, 3, 1), 2.0)
        assert rep.passed, rep.failing()

    def test_single_atom_marginals(self):
        mus = [DiscreteMeasure([[0.0, 0.0]], [1.0]), DiscreteMeasure([[1.0, 1.0]], [1.0])]
        rep = run_verification(mus, 2.0)
        assert rep.passed
        assert rep.values["mmot"] == pytest.approx(1.0)  # 2 * |(1,1)/2|^2

    def test_tied_lattice_instance_passes(self):
        # many optimal plans tie on the 3x3 lattice; the shifted instance
        # must land on the same one for translation invariance to hold
        lattice = (
            ((1, 0), (0, 0), (0, 1), (2, 0)),
            ((1, 1), (0, 0), (2, 1), (1, 2)),
            ((0, 0), (0, 1), (2, 2), (2, 0)),
        )
        mus = [DiscreteMeasure(np.array(pts, dtype=float), np.full(4, 0.25)) for pts in lattice]
        rep = run_verification(mus, 2.0)
        assert rep.checks["translation_invariance"].passed
        assert rep.passed, rep.failing()

    def test_continuity_check_is_the_worst_family(self):
        # at scale 1e3 the residual is roundoff on monomials near 1e12, so
        # it is nonzero and the maximum over families is a real choice
        mus = [
            DiscreteMeasure(1e3 * mu.points, mu.weights) for mu in random_marginals(47, 3, 4, 2)
        ]
        rep = run_verification(mus, 1.5)
        flow = build_particle_flow(solve_mmot(mus, 1.5))
        residuals = [continuity_residual(flow, i) for i in range(flow.n_marginals)]
        assert max(residuals) > 0.0
        assert rep.checks["continuity"].residual == max(residuals)

    def test_one_newton_grid_per_solve(self, monkeypatch):
        # the solve and the translated re-solve; the dual certificate
        # reuses the solve's meeting points
        sizes = []
        original = transport.batch_barycenters

        def counted(points, p, **kwargs):
            sizes.append(len(points))
            return original(points, p, **kwargs)

        monkeypatch.setattr(transport, "batch_barycenters", counted)
        monkeypatch.setattr(flows, "batch_barycenters", counted)
        rep = run_verification(random_marginals(48, 3, 4, 2), 1.5)
        assert rep.passed, rep.failing()
        assert sizes.count(4**3) == 2

    @pytest.mark.parametrize("seed", [50, 53])
    @pytest.mark.parametrize("scale", [1e-3, 1.0])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_warm_second_solves_agree_with_cold_ones(self, monkeypatch, seed, scale, p):
        # the functional's pairwise LPs start from the projected plan and
        # the translated re-solve from the first solve's answer
        mus = [DiscreteMeasure(scale * mu.points, mu.weights) for mu in random_marginals(seed, 3, 5, 2)]
        solves = []
        original = verify.solve_mmot

        def recorded(*args, **kwargs):
            solves.append(original(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(verify, "solve_mmot", recorded)
        rep = run_verification(mus, p)
        assert rep.passed, rep.failing()
        first, translated = solves
        cold = wb_value(extract_barycenter(first), mus, p)
        assert abs(rep.values["barycenter_functional"] - cold) <= 1e-9 * (1.0 + abs(cold))
        shift = translation_vector(2)
        shifted = solve_mmot([DiscreteMeasure(mu.points + shift, mu.weights) for mu in mus], p)
        assert abs(translated.value - shifted.value) <= TRANSLATION_TOL * (1.0 + abs(shifted.value))

    def test_impossible_tolerance_fails_the_value_chain(self):
        rep = run_verification(random_marginals(46, 2, 3, 2), 2.0, value_tol=0.0)
        assert not rep.passed
        assert "value_chain" in rep.failing()


class TestReportSerialization:
    def test_dict_layout(self, report):
        d = report.to_dict()
        assert list(d) == [
            "p",
            "values",
            "value_differences",
            "value_spread",
            "checks",
            "passed",
        ]
        assert len(d["value_differences"]) == 6
        assert d["passed"] is True

    def test_difference_keys(self, report):
        d = report.to_dict()
        assert "mmot_vs_barycenter_functional" in d["value_differences"]
        assert "flow_action_vs_coupling_flow_action" in d["value_differences"]

    def test_json_round_trip(self, report):
        parsed = json.loads(report.to_json())
        assert parsed == report.to_dict()

    def test_json_is_deterministic(self):
        a = run_verification(random_marginals(47, 2, 3, 2), 2.0).to_json()
        b = run_verification(random_marginals(47, 2, 3, 2), 2.0).to_json()
        assert a == b
