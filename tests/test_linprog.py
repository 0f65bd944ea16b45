"""Tests for the transport simplex as a linear-program solver.

The simplex behind ``solve_pairwise`` and ``solve_mmot`` is called here
directly on cost grids of shape ``(n_1, ..., n_N)``, with arbitrary costs
rather than distance costs, and checked against scipy's HiGHS on the
explicit equality system (all ``sum(n_k)`` marginal rows, redundant ones
included).  Grids too large for a dense system go through ``solve_mmot``
at p = 2, against HiGHS on a sparse system with closed-form costs.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from baryflow import CycleLimitError, DiscreteMeasure, NonFiniteCoordinateError, random_marginals, solve_mmot
from baryflow import transport
from baryflow.transport import _transport_simplex


def marginal_rows(sizes: tuple[int, ...]) -> np.ndarray:
    """One 0/1 row per atom of every marginal over the C-order tuple grid."""
    grid = np.indices(sizes).reshape(len(sizes), -1)
    return np.vstack([grid[k] == i for k, n in enumerate(sizes) for i in range(n)]).astype(float)


def sparse_marginal_rows(sizes: tuple[int, ...]) -> scipy.sparse.csr_array:
    """``marginal_rows(sizes)`` as a sparse matrix."""
    grid = np.indices(sizes).reshape(len(sizes), -1)
    offsets = np.cumsum((0,) + sizes[:-1])
    rows = (grid + offsets[:, None]).ravel()
    cols = np.tile(np.arange(grid.shape[1]), len(sizes))
    shape = (sum(sizes), grid.shape[1])
    return scipy.sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=shape)


def quadratic_grid_costs(points: list[np.ndarray]) -> np.ndarray:
    """``inf_z sum_k |x_k - z|^2`` on the tuple grid: deviation from the mean."""
    n = len(points)
    spread = [
        pts.reshape((1,) * k + (-1,) + (1,) * (n - k - 1) + pts.shape[1:]) for k, pts in enumerate(points)
    ]
    mean = sum(spread) / n
    return sum(((x - mean) ** 2).sum(axis=-1) for x in spread)


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.5, 1.5, size=n)
    return w / w.sum()


def highs_value(costs: np.ndarray, A: np.ndarray, b: np.ndarray) -> float:
    ref = scipy.optimize.linprog(costs.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0, ref.message
    return float(ref.fun)


def dense_plan(flat: np.ndarray, masses: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    x = np.zeros(int(np.prod(sizes)))
    x[flat] = masses
    return x


def counted_staircases(monkeypatch) -> list:
    """Record every north-west staircase the simplex starts from."""
    calls = []
    original = transport._northwest_corner

    def counted(weights, orders):
        calls.append(len(weights))
        return original(weights, orders)

    monkeypatch.setattr(transport, "_northwest_corner", counted)
    return calls


def reduced_costs(costs: np.ndarray, potentials: list[np.ndarray]) -> np.ndarray:
    return costs - sum(np.ix_(*potentials))


class TestProblemValidation:
    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            costs = np.array([[0.0, bad], [1.0, 2.0]])
            with pytest.raises(NonFiniteCoordinateError):
                _transport_simplex(costs, [np.full(2, 0.5), np.full(2, 0.5)])

    def test_negative_mass_at_optimum_raises(self):
        # the kept atoms of the second marginal outweigh the first, so the
        # dropped atom's row implies a negative mass; it must be reported,
        # not clipped to zero, while a dip inside the limit is returned as 0
        costs = np.random.default_rng(0).random((3, 4))
        first = np.full(3, 1 / 3)
        with pytest.raises(CycleLimitError, match=r"basic mass -5\.000e-02 below zero .* 3x4 grid"):
            _transport_simplex(costs, [first, np.array([0.3, 0.3, 0.45, 0.0])])
        _, masses, _, _, _ = _transport_simplex(costs, [first, np.array([0.3, 0.3, 0.4 + 1e-12, 0.0])])
        assert masses.min() > 0.0


class TestSmallProblems:
    def test_single_variable(self):
        # all-Dirac marginals: one tuple carries the whole unit of mass
        for n_marginals in (2, 3):
            costs = np.full((1,) * n_marginals, 3.0)
            flat, masses, value, potentials, _ = _transport_simplex(costs, [np.ones(1)] * n_marginals)
            assert flat.tolist() == [0]
            assert masses == pytest.approx([1.0])
            assert value == pytest.approx(3.0)
            assert sum(pot[0] for pot in potentials) == pytest.approx(3.0)

    def test_degenerate_vertex(self):
        # both marginals exhaust at the same north-west-corner step, so the
        # start carries a basic tuple at zero mass
        costs = np.array([[1.0, 3.0], [3.0, 1.0]])
        flat, masses, value, _, _ = _transport_simplex(costs, [np.full(2, 0.5), np.full(2, 0.5)])
        assert flat.tolist() == [0, 3]
        assert masses == pytest.approx([0.5, 0.5])
        assert value == pytest.approx(1.0)

    def test_zero_rhs_feasible(self):
        # a zero-weight atom: its row has right-hand side 0 and carries no mass
        costs = np.array([[0.0, 0.0], [2.0, 5.0]])
        flat, masses, value, potentials, _ = _transport_simplex(
            costs, [np.array([0.0, 1.0]), np.array([0.5, 0.5])]
        )
        assert np.unravel_index(flat, costs.shape)[0].tolist() == [1, 1]
        assert masses == pytest.approx([0.5, 0.5])
        assert value == pytest.approx(3.5)
        assert reduced_costs(costs, potentials).min() >= -1e-12


class TestDuals:
    def test_duals_satisfy_strong_duality(self):
        rng = np.random.default_rng(3)
        sizes = (3, 4, 2)
        weights = [random_weights(rng, n) for n in sizes]
        costs = rng.uniform(1.0, 2.0, size=sizes)
        _, _, value, potentials, _ = _transport_simplex(costs, weights)
        assert sum(pot @ w for pot, w in zip(potentials, weights)) == pytest.approx(value, rel=1e-9)

    def test_duals_are_feasible(self):
        rng = np.random.default_rng(4)
        sizes = (4, 5, 3)
        weights = [random_weights(rng, n) for n in sizes]
        costs = rng.uniform(1.0, 2.0, size=sizes)
        flat, _, _, potentials, _ = _transport_simplex(costs, weights)
        reduced = reduced_costs(costs, potentials)
        assert reduced.min() >= -1e-9
        # complementary slackness on the support
        assert np.abs(reduced.ravel()[flat]).max() < 1e-9


class TestAgainstScipy:
    @pytest.mark.parametrize(
        "seed, sizes",
        [(seed, None) for seed in range(10)] + [(10, (8, 8, 8)), (11, (30, 30))],
        ids=[str(seed) for seed in range(10)] + ["8x8x8", "30x30"],
    )
    def test_random_problems_match_highs(self, seed, sizes):
        # the fixed sizes take more pivots than the basis has rows, so the
        # periodic refresh of the basis inverse runs
        rng = np.random.default_rng(1000 + seed)
        if sizes is None:
            n_marginals = 2 + seed % 3
            sizes = tuple(int(n) for n in rng.integers(1, 6, size=n_marginals))
        weights = [random_weights(rng, n) for n in sizes]
        costs = rng.uniform(0.0, 2.0, size=sizes)
        A, b = marginal_rows(sizes), np.concatenate(weights)
        ref = highs_value(costs, A, b)
        flat, masses, value, _, _ = _transport_simplex(costs, weights)
        assert value == pytest.approx(ref, rel=1e-8, abs=1e-10)
        assert np.abs(A @ dense_plan(flat, masses, sizes) - b).max() < 1e-9

    def test_redundant_rows_match_highs(self):
        # the N - 1 dependent marginal rows (and a duplicated one) go to
        # HiGHS as they are; the simplex drops them and still returns one
        # potential per atom, zero on the dropped rows
        rng = np.random.default_rng(77)
        sizes = (3, 4, 2)
        weights = [random_weights(rng, n) for n in sizes]
        costs = rng.uniform(1.0, 2.0, size=sizes)
        A, b = marginal_rows(sizes), np.concatenate(weights)
        ref = highs_value(costs, np.vstack([A, A[0]]), np.append(b, b[0]))
        _, _, value, potentials, _ = _transport_simplex(costs, weights)
        assert value == pytest.approx(ref, rel=1e-9)
        assert [len(pot) for pot in potentials] == list(sizes)
        assert [pot[-1] for pot in potentials[1:]] == [0.0, 0.0]


class TestStartingBasis:
    def test_own_final_basis_restarts_at_the_optimum(self, monkeypatch):
        rng = np.random.default_rng(31)
        sizes = (4, 5, 3)
        weights = [random_weights(rng, n) for n in sizes]
        costs = rng.uniform(0.0, 2.0, size=sizes)
        cold = _transport_simplex(costs, weights)
        staircases = counted_staircases(monkeypatch)
        support, masses, value, potentials, basis = _transport_simplex(costs, weights, cold[4])
        assert staircases == []
        assert np.array_equal(support, cold[0]) and np.array_equal(masses, cold[1])
        assert value == cold[2]
        assert all(np.array_equal(a, b) for a, b in zip(potentials, cold[3]))
        assert np.array_equal(basis, cold[4])

    def test_infeasible_or_singular_start_falls_back_to_the_staircase(self, monkeypatch):
        # the tree {(0,0), (1,0), (1,1)} puts -0.8 on (1,0); a repeated
        # tuple spans a singular basis.  Either way the solve starts from
        # the staircase and repeats the cold solve bit for bit.
        costs = np.array([[0.0, 1.0], [1.0, 0.0]])
        weights = [np.array([0.9, 0.1]), np.array([0.1, 0.9])]
        cold = _transport_simplex(costs, weights)
        assert cold[2] == pytest.approx(0.8)
        staircases = counted_staircases(monkeypatch)
        for start in ([0, 2, 3], [0, 0, 3]):
            support, masses, value, potentials, _ = _transport_simplex(costs, weights, np.array(start))
            assert np.array_equal(support, cold[0]) and np.array_equal(masses, cold[1])
            assert value == cold[2]
            assert all(np.array_equal(a, b) for a, b in zip(potentials, cold[3]))
        assert len(staircases) == 2


class TestAxisStart:
    # The tied p = 2 instance on the 3x3 integer lattice of the benchmark's
    # wide workload: several optimal vertices.
    LATTICE = (
        ((1, 0), (0, 0), (0, 1), (2, 0)),
        ((1, 1), (0, 0), (2, 1), (1, 2)),
        ((0, 0), (0, 1), (2, 2), (2, 0)),
    )

    @staticmethod
    def plane_marginals(case: str, seed: int) -> list[DiscreteMeasure]:
        rng = np.random.default_rng(seed)
        if case == "lattice":
            return [DiscreteMeasure(np.array(pts, dtype=float), np.full(4, 0.25)) for pts in TestAxisStart.LATTICE]
        sizes = {"random": (5, 6, 4), "one_atom": (5, 1, 6), "coincident": (3, 4, 2)}[case]
        mus = [DiscreteMeasure(rng.uniform(-1.0, 1.0, size=(n, 2)), random_weights(rng, n)) for n in sizes]
        if case == "coincident":
            # every point is the same: the centred points are zero and the
            # principal axis is arbitrary
            mus = [DiscreteMeasure(np.tile([0.3, -0.7], (len(mu), 1)), mu.weights) for mu in mus]
        return mus

    @pytest.mark.parametrize(
        "case, seed",
        [("random", 41), ("random", 42), ("random", 43), ("one_atom", 44), ("coincident", 45), ("lattice", 0)],
    )
    def test_value_equals_the_input_order_start_and_highs(self, monkeypatch, case, seed):
        mus = self.plane_marginals(case, seed)
        sizes = tuple(len(mu) for mu in mus)
        weights = [mu.weights for mu in mus]
        costs = quadratic_grid_costs([mu.points for mu in mus])
        staircases = counted_staircases(monkeypatch)
        start = transport._axis_staircase(mus)
        assert len(start) == sum(sizes) - len(sizes) + 1
        _, _, axis_value, _, _ = _transport_simplex(costs, weights, start)
        # the axis staircase is always accepted: no fallback staircase
        assert len(staircases) == 1
        _, _, input_value, _, _ = _transport_simplex(costs, weights)
        assert len(staircases) == 2
        ref = highs_value(costs, marginal_rows(sizes), np.concatenate(weights))
        assert axis_value == pytest.approx(input_value, rel=1e-12, abs=1e-15)
        assert axis_value == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_staircase_walks_the_given_orders_in_input_indices(self):
        weights = [np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.6])]
        orders = [np.array([2, 0, 1]), np.array([1, 0])]
        staircase = transport._northwest_corner(weights, orders)
        # sorted masses (0.2, 0.5, 0.3) against (0.6, 0.4)
        assert staircase.tolist() == [[2, 1], [0, 1], [0, 0], [1, 0]]


class TestCycling:
    def test_classic_degenerate_problem_terminates(self):
        # the uniform assignment problem is the classic degenerate transport
        # LP: every vertex has n - 1 basic tuples at zero mass
        rng = np.random.default_rng(5)
        n = 7
        weights = [np.full(n, 1.0 / n)] * 2
        costs = rng.integers(0, 3, size=(n, n)).astype(float)
        ref = highs_value(costs, marginal_rows((n, n)), np.concatenate(weights))
        flat, masses, value, potentials, _ = _transport_simplex(costs, weights)
        assert value == pytest.approx(ref, rel=1e-9, abs=1e-12)
        assert reduced_costs(costs, potentials).min() >= -1e-9
        assert masses.sum() == pytest.approx(1.0)
        assert len(flat) <= 2 * n - 1


class TestLargeGrids:
    @pytest.mark.parametrize(
        "seed, n_atoms", [(16, 30), (2, 50)], ids=["30x30x30-seed16", "50x50x50-seed2"]
    )
    def test_quadratic_grid_matches_highs(self, seed, n_atoms):
        # these grids once drove the ratio test onto entering-column entries
        # of about 1e-10, pure roundoff, until the basis inverse blew up and
        # the solve raised CycleLimitError
        mus = random_marginals(seed, 3, n_atoms, 2)
        sizes = (n_atoms,) * 3
        A, b = sparse_marginal_rows(sizes), np.concatenate([mu.weights for mu in mus])
        ref = highs_value(quadratic_grid_costs([mu.points for mu in mus]), A, b)
        result = solve_mmot(mus, 2.0)
        assert result.value == pytest.approx(ref, rel=1e-8, abs=1e-10)
        flat = np.ravel_multi_index(result.plan.indices.T, sizes)
        assert np.abs(A @ dense_plan(flat, result.plan.masses, sizes) - b).max() < 1e-9
