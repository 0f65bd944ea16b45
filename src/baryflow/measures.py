"""Discrete measures and multi-marginal plans.

Weighted point clouds are the basic currency of the package: a probability
measure is a finite sum of weighted Dirac atoms, and an N-marginal
transport plan assigns mass to index tuples, one atom per marginal (a
pairwise plan is the case N = 2).  Both are frozen dataclasses wrapping
read-only numpy arrays.

Construction is deliberately permissive (only shape consistency is
enforced), so that invalid objects can be built and then rejected by the
``validate_*`` functions with a precise error.  Numerical code in the rest
of the package assumes validated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    MarginalMismatchError,
    NegativeWeightError,
    NonFiniteCoordinateError,
    WeightSumError,
)

__all__ = [
    "MERGE_TOL",
    "WEIGHT_SUM_TOL",
    "MARGINAL_TOL",
    "DiscreteMeasure",
    "MultiPlan",
    "validate_measure",
    "validate_multiplan",
    "canonicalize",
    "measure_to_dict",
    "measure_from_dict",
    "save_measure",
    "load_measure",
]

# Atoms closer than MERGE_TOL (Euclidean) are merged by canonicalize().
MERGE_TOL = 1e-9
# Allowed |sum(weights) - 1| for a probability measure.
WEIGHT_SUM_TOL = 1e-12
# Allowed per-atom deviation between a plan marginal and its measure.
MARGINAL_TOL = 1e-10
# Weights may dip this far below zero before counting as negative.
_NEG_TOL = 1e-15


def _as_points(points: object) -> np.ndarray:
    """Coerce to a float ``(n, d)`` array; 1-D input is read as ``d = 1``."""
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"points are not a rectangular numeric array: {exc}")
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"points must be a 2-D array, got shape {arr.shape}")
    return arr


def _as_vector(values: object, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatchError(f"{name} is not a numeric vector: {exc}")
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def _freeze(arr: object, dtype: type | None = None) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported measure ``sum_k weights[k] * delta(points[k])``.

    Parameters
    ----------
    points : array_like, shape (n, d)
        Atom locations.  A 1-D array of length n is accepted as n points
        on the line.
    weights : array_like, shape (n,)
        Atom masses.

    Only shape consistency is checked here; call :func:`validate_measure`
    to enforce the probability-measure invariants.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = _as_points(self.points)
        wts = _as_vector(self.weights, "weights")
        if len(pts) != len(wts):
            raise DimensionMismatchError(
                f"{len(pts)} points but {len(wts)} weights"
            )
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "weights", _freeze(wts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class MultiPlan:
    """Sparse N-marginal transport plan over index tuples.

    Entry ``k`` places mass ``masses[k]`` on the atom tuple
    ``(indices[k, 0], ..., indices[k, N-1])``, one index per marginal.
    """

    n_marginals: int
    support_sizes: tuple[int, ...]
    indices: np.ndarray
    masses: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=int)
        masses = _as_vector(self.masses, "masses")
        if idx.ndim != 2 or idx.shape[1] != self.n_marginals:
            raise DimensionMismatchError(
                f"indices must have shape (k, {self.n_marginals}), got {idx.shape}"
            )
        if len(idx) != len(masses):
            raise DimensionMismatchError("indices and masses must share a length")
        if len(self.support_sizes) != self.n_marginals:
            raise DimensionMismatchError("support_sizes must have one entry per marginal")
        object.__setattr__(self, "support_sizes", tuple(int(s) for s in self.support_sizes))
        object.__setattr__(self, "indices", _freeze(idx))
        object.__setattr__(self, "masses", _freeze(masses))

    def __len__(self) -> int:
        return len(self.masses)

    def as_dense(self) -> np.ndarray:
        """Return the plan as a dense array of shape ``support_sizes``."""
        dense = np.zeros(self.support_sizes)
        np.add.at(dense, tuple(self.indices.T), self.masses)
        return dense


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_measure(m: DiscreteMeasure) -> DiscreteMeasure:
    """Check the probability-measure invariants, returning ``m`` unchanged.

    Raises
    ------
    NonFiniteCoordinateError
        If any coordinate or weight is NaN or infinite.
    NegativeWeightError
        If any weight is negative beyond roundoff.
    WeightSumError
        If the weights do not sum to one within ``WEIGHT_SUM_TOL``.
    """
    if not np.isfinite(m.points).all():
        raise NonFiniteCoordinateError("measure has a non-finite coordinate")
    if not np.isfinite(m.weights).all():
        raise NonFiniteCoordinateError("measure has a non-finite weight")
    if len(m) and m.weights.min() < -_NEG_TOL:
        raise NegativeWeightError(f"negative weight {m.weights.min()!r}")
    total = float(m.weights.sum()) if len(m) else 0.0
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"weights sum to {total!r}, expected 1")
    return m


def validate_multiplan(plan: MultiPlan, marginals: Sequence[DiscreteMeasure]) -> MultiPlan:
    """Check that ``plan`` has the given measures as its marginals."""
    if plan.n_marginals != len(marginals):
        raise DimensionMismatchError(
            f"plan has {plan.n_marginals} marginals, got {len(marginals)} measures"
        )
    for k, mu in enumerate(marginals):
        if plan.support_sizes[k] != len(mu):
            raise DimensionMismatchError(f"support size mismatch at marginal {k}")
    if len(plan.masses) and plan.masses.min() < -_NEG_TOL:
        raise NegativeWeightError(f"negative plan mass {plan.masses.min()!r}")
    if not np.isfinite(plan.masses).all():
        raise NonFiniteCoordinateError("plan has a non-finite mass")
    for k, mu in enumerate(marginals):
        idx = plan.indices[:, k]
        if len(idx) and (idx.min() < 0 or idx.max() >= len(mu)):
            raise IndexOutOfRangeError(f"plan entry indexes a missing atom of marginal {k}")
        sums = np.bincount(idx, weights=plan.masses, minlength=len(mu))
        err = float(np.abs(sums - mu.weights).max())
        if err > MARGINAL_TOL:
            raise MarginalMismatchError(f"marginal {k} mismatch {err:.3e}")
    return plan


# ---------------------------------------------------------------------------
# canonical form and projections
# ---------------------------------------------------------------------------

def _find(parent, i: int) -> int:
    """Root of ``i`` in the union-find forest ``parent``, halving its path."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def canonicalize(m: DiscreteMeasure) -> DiscreteMeasure:
    """Merge atoms within ``MERGE_TOL`` of each other and sort the support.

    Merging is transitive (union-find over the proximity graph); each
    group keeps the coordinates of its first atom in input order and the
    summed weight.  The result is sorted lexicographically by coordinates,
    which makes canonical measures directly comparable.
    """
    pts, wts = m.points, m.weights
    n = len(wts)
    if n == 0:
        return m
    parent = np.arange(n)
    diff = pts[:, None, :] - pts[None, :, :]
    close = (diff * diff).sum(axis=2) <= MERGE_TOL * MERGE_TOL
    for i, j in zip(*np.nonzero(np.triu(close, k=1))):
        ri, rj = _find(parent, int(i)), _find(parent, int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    roots = np.array([_find(parent, i) for i in range(n)])
    reps = np.unique(roots)
    merged_w = np.array([wts[roots == r].sum() for r in reps])
    merged_p = pts[reps]
    order = np.lexsort(merged_p.T[::-1])
    return DiscreteMeasure(merged_p[order], merged_w[order])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def measure_to_dict(m: DiscreteMeasure) -> dict:
    return {
        "points": [[float(v) for v in pt] for pt in m.points],
        "weights": [float(w) for w in m.weights],
    }


def measure_from_dict(data: dict) -> DiscreteMeasure:
    if not isinstance(data, dict) or "points" not in data or "weights" not in data:
        raise DimensionMismatchError('expected an object with "points" and "weights"')
    return DiscreteMeasure(data["points"], data["weights"])


def save_measure(m: DiscreteMeasure, path: str | Path) -> None:
    """Write a measure as JSON (two keys: ``points``, ``weights``)."""
    Path(path).write_text(json.dumps(measure_to_dict(m), indent=2) + "\n")


def load_measure(path: str | Path) -> DiscreteMeasure:
    """Read a measure written by :func:`save_measure` and validate it."""
    return validate_measure(measure_from_dict(json.loads(Path(path).read_text())))
