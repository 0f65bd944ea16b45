"""
Barycenters from multi-marginal transport
=========================================

Three measures on the plane, one linear program, and the measure that
sits "in between" them: the p-Wasserstein barycenter, read off from the
optimal multi-marginal plan.
"""

import numpy as np

from baryflow import (
    DiscreteMeasure,
    barycenter_point,
    extract_barycenter,
    solve_mmot,
    wb_value,
)

# Three small measures: a pair of atoms on the left, a pair on the
# right, and an off-axis third one.
mu1 = DiscreteMeasure([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
mu2 = DiscreteMeasure([[2.0, 0.0], [2.0, 1.0]], [0.5, 0.5])
mu3 = DiscreteMeasure([[1.0, 2.0]], [1.0])

# The cost of matching one atom from each measure is the infimal
# convolution inf_z sum_i |x_i - z|^p: the best meeting point z pays for
# everyone's trip. For p = 2 that point is the plain mean.
tuple_points = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
res = barycenter_point(tuple_points, 2.0)
print("one tuple of atoms:", tuple_points.tolist())
print("meeting point:     ", res.barycenter.tolist())
print("tuple cost:        ", res.value)
print("matches the mean:  ", np.allclose(res.barycenter, tuple_points.mean(axis=0)))
print()

# Exponents other than 2 move the meeting point toward the cluster.
for p in (1.5, 2.0, 3.0):
    res = barycenter_point(tuple_points, p)
    print(f"p = {p}: meeting point {np.round(res.barycenter, 4).tolist()}, cost {res.value:.6f}")
print()

# The multi-marginal problem couples whole measures instead of single
# tuples: it looks for the cheapest joint plan whose projections are the
# three inputs.
result = solve_mmot([mu1, mu2, mu3], 2.0)
print("multi-marginal value:", result.value)
print("plan support size:   ", len(result.plan))
for idx, mass, z in zip(result.plan.indices, result.plan.masses, result.tuple_barycenters):
    print(f"  tuple {idx.tolist()} carries {mass:.3f} meeting at {np.round(z, 4).tolist()}")
print()

# Pushing the plan mass to the meeting points yields the barycenter
# measure. Its defining property: it minimizes the sum of pairwise
# transport costs to the inputs, and that minimal sum IS the
# multi-marginal value.
bary = extract_barycenter(result)
print("barycenter atoms:  ", np.round(bary.points, 4).tolist())
print("barycenter weights:", bary.weights.tolist())

functional = wb_value(bary, [mu1, mu2, mu3], 2.0)
print("sum of pairwise costs at the barycenter:", functional)
print("equals the multi-marginal value:        ", abs(functional - result.value) < 1e-10)
print()

# Any other candidate measure does worse.
for shift in (0.1, 0.5):
    other = DiscreteMeasure(bary.points + shift, bary.weights)
    print(f"competitor shifted by {shift}: functional {wb_value(other, [mu1, mu2, mu3], 2.0):.6f}"
          f" (optimum {result.value:.6f})")
