"""Tests for discrete measures and multi-marginal plans."""

from __future__ import annotations

import json

import numpy as np
import pytest

from baryflow import (
    DimensionMismatchError,
    DiscreteMeasure,
    MarginalMismatchError,
    MultiPlan,
    NegativeWeightError,
    NonFiniteCoordinateError,
    WeightSumError,
    canonicalize,
    load_measure,
    measure_to_dict,
    save_measure,
    validate_measure,
    validate_multiplan,
)
from baryflow.measures import measure_from_dict

from .helpers import measures_close


@pytest.fixture
def uniform_pair() -> DiscreteMeasure:
    return DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])


class TestConstruction:
    def test_one_dimensional_points_get_a_column(self):
        m = DiscreteMeasure([0.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        assert m.points.shape == (3, 1)
        assert m.dim == 1
        assert len(m) == 3

    def test_arrays_are_read_only(self, uniform_pair):
        with pytest.raises(ValueError):
            uniform_pair.points[0, 0] = 7.0
        with pytest.raises(ValueError):
            uniform_pair.weights[0] = 7.0

    def test_ragged_points_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteMeasure([[0.0], [1.0, 2.0]], [0.5, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteMeasure([[0.0], [1.0]], [1.0])

    def test_three_dimensional_points_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DiscreteMeasure(np.zeros((2, 2, 2)), [0.5, 0.5])


class TestValidateMeasure:
    def test_valid_measure_passes_and_returns_itself(self, uniform_pair):
        assert validate_measure(uniform_pair) is uniform_pair

    def test_negative_weight_detected_before_sum(self):
        # weights sum to one, so only the sign check can catch this
        m = DiscreteMeasure([[0.0], [1.0]], [1.5, -0.5])
        with pytest.raises(NegativeWeightError):
            validate_measure(m)

    def test_weight_sum_mismatch(self):
        with pytest.raises(WeightSumError):
            validate_measure(DiscreteMeasure([[0.0]], [0.9]))

    def test_weight_sum_tolerance_is_tight(self):
        validate_measure(DiscreteMeasure([[0.0]], [1.0 + 5e-13]))
        with pytest.raises(WeightSumError):
            validate_measure(DiscreteMeasure([[0.0]], [1.0 + 5e-12]))

    def test_non_finite_coordinate(self):
        with pytest.raises(NonFiniteCoordinateError):
            validate_measure(DiscreteMeasure([[np.nan]], [1.0]))
        with pytest.raises(NonFiniteCoordinateError):
            validate_measure(DiscreteMeasure([[np.inf], [0.0]], [0.5, 0.5]))

    def test_non_finite_weight(self):
        with pytest.raises(NonFiniteCoordinateError):
            validate_measure(DiscreteMeasure([[0.0]], [np.nan]))


class TestCanonicalize:
    def test_sorts_lexicographically(self):
        m = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.2, 0.3, 0.5])
        c = canonicalize(m)
        assert np.array_equal(c.points, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(c.weights, [0.5, 0.3, 0.2])

    def test_merges_atoms_within_tolerance(self):
        m = DiscreteMeasure([[0.0], [5e-10], [1.0]], [0.25, 0.25, 0.5])
        c = canonicalize(m)
        assert len(c) == 2
        # the first occurrence keeps its coordinates
        assert c.points[0, 0] == 0.0
        assert c.weights[0] == 0.5

    def test_merge_is_transitive(self):
        # 0 and 1.2e-9 are farther apart than the tolerance but connect
        # through the midpoint atom
        m = DiscreteMeasure([[0.0], [6e-10], [1.2e-9]], [0.25, 0.25, 0.5])
        assert len(canonicalize(m)) == 1

    def test_distant_atoms_untouched(self):
        m = DiscreteMeasure([[0.0], [1e-8]], [0.5, 0.5])
        assert len(canonicalize(m)) == 2

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        m = DiscreteMeasure(rng.uniform(size=(6, 2)), np.full(6, 1 / 6))
        once = canonicalize(m)
        twice = canonicalize(once)
        assert np.array_equal(once.points, twice.points)
        assert np.array_equal(once.weights, twice.weights)


class TestMultiPlan:
    def make_plan(self) -> tuple[MultiPlan, list[DiscreteMeasure]]:
        mus = [
            DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5]),
            DiscreteMeasure([[2.0], [3.0]], [0.5, 0.5]),
            DiscreteMeasure([[4.0], [5.0]], [0.25, 0.75]),
        ]
        plan = MultiPlan(
            n_marginals=3,
            support_sizes=(2, 2, 2),
            indices=[[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
            masses=[0.125, 0.375, 0.375, 0.125],
        )
        return plan, mus

    def test_valid_plan_passes(self):
        plan, mus = self.make_plan()
        validate_multiplan(plan, mus)

    def test_dense_round_trip(self):
        pair = MultiPlan(2, (2, 2), indices=[[0, 1], [1, 0]], masses=[0.5, 0.5])
        assert np.array_equal(pair.as_dense(), [[0.0, 0.5], [0.5, 0.0]])
        plan, _ = self.make_plan()
        dense = plan.as_dense()
        assert dense.shape == (2, 2, 2)
        assert dense[tuple(plan.indices.T)].tolist() == plan.masses.tolist()
        assert dense.sum() == 1.0

    def test_mismatched_marginal_detected(self):
        plan, mus = self.make_plan()
        mus[2] = DiscreteMeasure([[4.0], [5.0]], [0.5, 0.5])
        with pytest.raises(MarginalMismatchError):
            validate_multiplan(plan, mus)

    def test_wrong_marginal_count_detected(self):
        plan, mus = self.make_plan()
        with pytest.raises(DimensionMismatchError):
            validate_multiplan(plan, mus[:2])


class TestMeasuresClose:
    def test_atom_order_does_not_matter(self):
        a = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
        b = DiscreteMeasure([[1.0], [0.0]], [0.7, 0.3])
        assert measures_close(a, b)

    def test_weight_difference_detected(self):
        a = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
        b = DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
        assert not measures_close(a, b)

    def test_support_size_difference_detected(self):
        a = DiscreteMeasure([[0.0]], [1.0])
        b = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        assert not measures_close(a, b)


class TestSerialization:
    def test_dict_round_trip(self, uniform_pair):
        data = measure_to_dict(uniform_pair)
        assert set(data) == {"points", "weights"}
        back = measure_from_dict(data)
        assert np.array_equal(back.points, uniform_pair.points)
        assert np.array_equal(back.weights, uniform_pair.weights)

    def test_file_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        m = DiscreteMeasure(rng.uniform(size=(4, 3)), np.full(4, 0.25))
        path = tmp_path / "m.json"
        save_measure(m, path)
        back = load_measure(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    def test_load_validates(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"points": [[0.0]], "weights": [0.9]}))
        with pytest.raises(WeightSumError):
            load_measure(path)

    def test_malformed_dict_rejected(self):
        with pytest.raises(DimensionMismatchError):
            measure_from_dict({"points": [[0.0]]})
