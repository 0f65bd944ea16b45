"""Acceptance gate: one test per advertised guarantee.

Twenty seeded instances span every marginal count in {2, 3, 4}, support
size in {2, ..., 6}, dimension in {1, 2, 3}, exponent in {1.5, 2, 3},
and both point distributions.  Each criterion below runs over all of
them (or over its own dedicated seeds) and appears as a single pass or
fail line under ``pytest -v``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np
import pytest

from baryflow import (
    DiscreteMeasure,
    barycenter_point,
    build_particle_flow,
    c_transform,
    continuity_residual,
    coupling_flow_action,
    dual_feasibility_check,
    extract_barycenter,
    flow_action,
    momentum_balance_residual,
    random_marginals,
    snapshot,
    solve_mmot,
    solve_pairwise,
    stationarity_residual,
    velocity_balance_residual,
    wb_value,
)
from baryflow.verify import translation_vector

from .oracles import (
    assignment_value,
    exhaustive_mmot_value,
    grid_barycenter_1d,
    quadratic_tuple_cost,
    tuple_cost_minimize,
)

# (seed, n_marginals, atoms, dim, p, distribution)
INSTANCES = [
    (101, 2, 2, 1, 2.0, "uniform-box"),
    (102, 2, 3, 2, 1.5, "uniform-box"),
    (103, 2, 4, 3, 3.0, "gaussian"),
    (104, 2, 5, 2, 2.0, "gaussian"),
    (105, 2, 6, 1, 1.5, "uniform-box"),
    (106, 2, 6, 3, 3.0, "uniform-box"),
    (107, 3, 2, 2, 2.0, "gaussian"),
    (108, 3, 3, 1, 3.0, "uniform-box"),
    (109, 3, 5, 3, 1.5, "uniform-box"),
    (110, 3, 4, 2, 2.0, "uniform-box"),
    (111, 3, 3, 3, 1.5, "gaussian"),
    (112, 3, 5, 1, 3.0, "gaussian"),
    (113, 3, 4, 3, 2.0, "uniform-box"),
    (114, 3, 6, 2, 1.5, "uniform-box"),
    (115, 4, 2, 1, 3.0, "uniform-box"),
    (116, 4, 3, 2, 2.0, "uniform-box"),
    (117, 4, 6, 1, 1.5, "gaussian"),
    (118, 4, 4, 3, 2.0, "gaussian"),
    (119, 4, 3, 3, 3.0, "uniform-box"),
    (120, 4, 5, 2, 1.5, "uniform-box"),
]


@dataclass(frozen=True)
class SolvedInstance:
    marginals: tuple[DiscreteMeasure, ...]
    p: float
    result: object
    barycenter: DiscreteMeasure
    functional: float
    flow: object
    action: float
    caction: float

    @property
    def values(self) -> tuple[float, float, float, float]:
        return (self.result.value, self.functional, self.action, self.caction)


def _solve_chain(mus, p) -> SolvedInstance:
    result = solve_mmot(mus, p)
    barycenter = extract_barycenter(result)
    flow = build_particle_flow(result)
    return SolvedInstance(
        marginals=tuple(mus),
        p=p,
        result=result,
        barycenter=barycenter,
        functional=wb_value(barycenter, mus, p),
        flow=flow,
        action=flow_action(flow),
        caction=coupling_flow_action(flow),
    )


@pytest.fixture(scope="module")
def solved():
    """All twenty instances solved along every route, with wall time."""
    start = time.perf_counter()
    out = []
    for seed, n_marg, atoms, dim, p, dist in INSTANCES:
        mus = random_marginals(seed, n_marg, atoms, dim, dist)
        out.append(_solve_chain(mus, p))
    elapsed = time.perf_counter() - start
    return out, elapsed


def test_criterion_01_equality_chain(solved):
    # the four routes agree to 1e-6 relative on all 20 instances, and
    # the whole batch solves well inside the runtime budget
    instances, elapsed = solved
    for inst in instances:
        vals = inst.values
        spread = (max(vals) - min(vals)) / (1.0 + abs(vals[0]))
        assert spread <= 1e-6, (inst.p, vals)
    assert elapsed < 30.0


def test_criterion_02_two_marginal_closed_form():
    # with two marginals the tuple cost is 2^(1-p) |x - y|^p, so the
    # joint value is the scaled pairwise distance
    ps = itertools.cycle((1.5, 2.0, 3.0))
    for seed, p in zip(range(201, 211), ps):
        mus = random_marginals(seed, 2, 4, 2)
        joint = solve_mmot(mus, p).value
        direct = solve_pairwise(mus[0], mus[1], p).value
        assert abs(joint - 2.0 ** (1.0 - p) * direct) <= 1e-8 * (1.0 + abs(joint))


def test_criterion_03_stationarity(solved):
    # the summed velocity gradients vanish at every tuple barycenter
    instances, _ = solved
    for inst in instances:
        assert stationarity_residual(inst.result) <= 1e-8


def test_criterion_04_velocity_and_momentum_balance(solved):
    instances, _ = solved
    for inst in instances:
        assert velocity_balance_residual(inst.flow) <= 1e-8
        if inst.p == 2.0:
            assert momentum_balance_residual(inst.flow) <= 1e-9


def test_criterion_05_continuity_equation(solved):
    # weak-form defect against all monomials of total degree <= 4
    instances, _ = solved
    for inst in instances:
        for i in range(inst.flow.n_marginals):
            assert continuity_residual(inst.flow, i, degree=4) <= 1e-10


def test_criterion_06_geodesic_property(solved):
    # every family interpolates at constant speed: the distance between
    # two snapshots is proportional to the elapsed time
    instances, _ = solved
    for inst in instances:
        p = inst.p
        for i in range(inst.flow.n_marginals):
            base = solve_pairwise(
                snapshot(inst.flow, i, 0.0), snapshot(inst.flow, i, 1.0), p
            ).value ** (1.0 / p)
            for s, t in ((0.0, 0.5), (0.5, 1.0), (0.25, 0.75)):
                seg = solve_pairwise(
                    snapshot(inst.flow, i, s), snapshot(inst.flow, i, t), p
                ).value ** (1.0 / p)
                assert abs(seg - (t - s) * base) <= 1e-6 * (1.0 + base)


def test_criterion_07_translation_invariance(solved):
    # shifting every marginal by a common vector leaves the value alone
    # and shifts the barycenter by exactly that vector
    instances, _ = solved
    for inst in instances:
        xi = translation_vector(inst.barycenter.dim)
        shifted = [DiscreteMeasure(mu.points + xi, mu.weights) for mu in inst.marginals]
        moved = solve_mmot(shifted, inst.p)
        assert abs(moved.value - inst.result.value) <= 1e-8 * (1.0 + abs(inst.result.value))
        bar = extract_barycenter(moved)
        assert len(bar) == len(inst.barycenter)
        assert np.abs(bar.points - (inst.barycenter.points + xi)).max() <= 1e-9
        assert np.abs(bar.weights - inst.barycenter.weights).max() <= 1e-9


def test_criterion_08_lp_oracle_equivalence():
    # (a) the pairwise solver against brute-force assignment enumeration
    for n, p in itertools.product(range(2, 7), (1.5, 2.0, 3.0)):
        rng = np.random.default_rng(1000 * n + int(10 * p))
        a, b = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
        ref = assignment_value(a, b, p)
        mu = DiscreteMeasure(a, np.full(n, 1.0 / n))
        nu = DiscreteMeasure(b, np.full(n, 1.0 / n))
        got = solve_pairwise(mu, nu, p).value
        assert abs(got - ref) <= 1e-9 * (1.0 + ref)
    # (b) the multi-marginal solver against an exhaustive reference LP
    # whose tuple costs come from independent minimizers
    for p in (2.0, 1.5):
        mus = random_marginals(888, 3, 4, 2)
        pts = [mu.points for mu in mus]
        costs = []
        for tup in itertools.product(range(4), repeat=3):
            stack = np.stack([pts[k][i] for k, i in enumerate(tup)])
            if p == 2.0:
                costs.append(quadratic_tuple_cost(stack))
            else:
                costs.append(tuple_cost_minimize(stack, p))
        ref = exhaustive_mmot_value(pts, [mu.weights for mu in mus], np.array(costs))
        got = solve_mmot(mus, p).value
        assert abs(got - ref) <= 1e-8 * (1.0 + ref)


def test_criterion_09_inner_minimizer_oracle():
    # the damped Newton barycenter against a blind 1-d grid search
    for seed in range(301, 311):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(size=rng.integers(2, 6))
        for p in (1.5, 3.0):
            z_ref, v_ref = grid_barycenter_1d(xs, p)
            res = barycenter_point(xs, p)
            assert abs(float(res.barycenter[0]) - z_ref) <= 1e-4
            assert abs(res.value - v_ref) <= 1e-4


def test_criterion_10_dual_certificates(solved):
    instances, _ = solved
    for inst in instances:
        budget = 1e-7 * (1.0 + abs(inst.result.value))
        cert = dual_feasibility_check(inst.result)
        assert cert.max_violation <= budget
        assert cert.duality_gap <= budget
        assert cert.support_slack <= budget
        # double c-transform: dominates the potential everywhere, equals
        # it on the support of each optimal pairwise coupling
        for mu in inst.marginals:
            pair = solve_pairwise(inst.barycenter, mu, inst.p)
            psi = pair.potentials[0]
            phi = c_transform(psi, inst.barycenter.points, mu.points, inst.p)
            psi_cc = c_transform(phi, mu.points, inst.barycenter.points, inst.p)
            assert (psi_cc - psi).min() >= -1e-7
            coupled_rows = np.unique(pair.plan.indices[:, 0])
            assert np.abs((psi_cc - psi)[coupled_rows]).max() <= 1e-7
