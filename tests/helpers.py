"""Comparison helpers shared by the test modules."""

from __future__ import annotations

import numpy as np

from baryflow import DiscreteMeasure, canonicalize, transport
from baryflow.measures import MARGINAL_TOL, MERGE_TOL


def measures_close(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    """Whether two measures agree atom-by-atom after canonicalization.

    Coordinates must match within ``MERGE_TOL`` and weights within
    ``MARGINAL_TOL``.
    """
    ca, cb = canonicalize(a), canonicalize(b)
    if len(ca) != len(cb) or ca.dim != cb.dim:
        return False
    return bool(
        np.abs(ca.points - cb.points).max(initial=0.0) <= MERGE_TOL
        and np.abs(ca.weights - cb.weights).max(initial=0.0) <= MARGINAL_TOL
    )


def counted_staircases(monkeypatch) -> list:
    """Record every north-west staircase built, by its number of marginals."""
    calls = []
    original = transport._northwest_corner

    def counted(weights, orders):
        calls.append(len(weights))
        return original(weights, orders)

    monkeypatch.setattr(transport, "_northwest_corner", counted)
    return calls
