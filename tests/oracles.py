"""Independent reference implementations used to cross-check the solvers.

Everything here deliberately avoids the package's own numerics: costs
come from closed forms or derivative-free minimization, assignment
values from brute-force permutation enumeration, and linear programs are
solved by scipy's HiGHS backend.  Agreement between these oracles and
the package is what the oracle tests certify; the oracles are never
imported by the package itself.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np
from scipy.optimize import linprog, minimize


def assignment_value(points_a: np.ndarray, points_b: np.ndarray, p: float) -> float:
    """Exact uniform-weight transport value by permutation enumeration.

    For two n-point clouds with weights 1/n the optimal plan is a
    permutation (Birkhoff), so the value is the best assignment cost
    divided by n.  Only usable for small n.
    """
    a = np.atleast_2d(np.asarray(points_a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(points_b, dtype=float).T).T
    n = len(a)
    assert len(b) == n
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p
    best = math.inf
    for perm in permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)))
    return best / n


def pairwise_value_linprog(
    points_a: np.ndarray,
    weights_a: np.ndarray,
    points_b: np.ndarray,
    weights_b: np.ndarray,
    p: float,
) -> float:
    """Transport value via scipy's HiGHS solver on the full LP."""
    a = np.atleast_2d(np.asarray(points_a, dtype=float).T).T
    b = np.atleast_2d(np.asarray(points_b, dtype=float).T).T
    m, n = len(a), len(b)
    cost = (np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) ** p).ravel()
    rows = np.kron(np.eye(m), np.ones((1, n)))
    cols = np.kron(np.ones((1, m)), np.eye(n))
    res = linprog(
        cost,
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([weights_a, weights_b]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def quadratic_tuple_cost(points: np.ndarray) -> float:
    """Closed form of ``inf_z sum_i |x_i - z|^2``: deviation from the mean."""
    pts = np.asarray(points, dtype=float)
    center = pts.mean(axis=0)
    return float(((pts - center) ** 2).sum())


def tuple_cost_minimize(points: np.ndarray, p: float) -> float:
    """``inf_z sum_i |x_i - z|^p`` by derivative-free Nelder-Mead."""
    pts = np.asarray(points, dtype=float)

    def objective(z: np.ndarray) -> float:
        return float((np.linalg.norm(pts - z, axis=1) ** p).sum())

    res = minimize(
        objective,
        pts.mean(axis=0),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20_000, "maxfev": 20_000},
    )
    assert res.success or res.fun is not None
    return float(res.fun)


def exhaustive_mmot_value(
    points_list: list[np.ndarray],
    weights_list: list[np.ndarray],
    tuple_costs: np.ndarray,
) -> float:
    """Multi-marginal optimum via scipy HiGHS on the fully materialized LP.

    ``tuple_costs`` must be supplied by the caller (so the cost route
    stays independent of the solver under test) in the C-order
    enumeration of the index grid.  All marginal constraints are kept,
    redundancy included; HiGHS handles that on its own.
    """
    sizes = [len(w) for w in weights_list]
    total = math.prod(sizes)
    indices = np.indices(sizes).reshape(len(sizes), total).T
    blocks = []
    for k, size in enumerate(sizes):
        blocks.append((indices[:, k][None, :] == np.arange(size)[:, None]).astype(float))
    res = linprog(
        np.asarray(tuple_costs, dtype=float),
        A_eq=np.vstack(blocks),
        b_eq=np.concatenate(weights_list),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def grid_barycenter_1d(xs: np.ndarray, p: float, step: float = 1e-6) -> tuple[float, float]:
    """1-D barycenter by exhaustive grid search plus golden-section polish.

    Scans ``[min(xs), max(xs)]`` at the given step (the minimizer of a
    sum of convex coercive terms lies in the convex hull), then shrinks a
    two-step bracket around the best grid point by golden-section search.
    Returns ``(argmin, min value)``.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    lo, hi = float(xs.min()), float(xs.max())
    if hi == lo:
        return lo, 0.0

    def value(z: float) -> float:
        return float((np.abs(xs - z) ** p).sum())

    count = int(np.ceil((hi - lo) / step)) + 1
    best_z, best_f = lo, math.inf
    chunk = 2_000_000
    for start in range(0, count, chunk):
        zs = lo + step * np.arange(start, min(start + chunk, count))
        total = np.zeros_like(zs)
        for x in xs:
            total += np.abs(x - zs) ** p
        k = int(total.argmin())
        if total[k] < best_f:
            best_f, best_z = float(total[k]), float(zs[k])

    a, b = best_z - step, best_z + step
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = value(c), value(d)
    while b - a > 1e-13:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = value(d)
    z = 0.5 * (a + b)
    return z, value(z)


def continuity_terms_loop(flow, i: int, degree: int) -> list[tuple[int, tuple[int, ...], float, float]]:
    """Weak continuity identity of family ``i``, one monomial at a time.

    For every test monomial ``t^a x^beta`` of total degree at most
    ``degree`` (``a`` ascending, then ``beta`` lexicographic) returns
    ``(a, beta, boundary, integral)``: the change of ``<density, t^a
    x^beta>`` from t = 0 to t = 1, and the time integral of
    ``<density, a t^(a-1) x^beta + t^a v . grad x^beta>`` by
    ``degree + 1`` point Gauss-Legendre quadrature, evaluated with plain
    loops over the monomials, the nodes and the coordinates.
    """
    z = flow.starts
    x = flow.targets[:, i, :]
    v = x - z
    m = flow.masses
    dim = z.shape[1]

    nodes, weights = np.polynomial.legendre.leggauss(degree + 1)
    t_nodes = 0.5 * (nodes + 1.0)
    t_weights = 0.5 * weights

    terms = []
    for a in range(degree + 1):
        for beta_tuple in product(range(degree + 1), repeat=dim):
            if a + sum(beta_tuple) > degree:
                continue
            beta = np.asarray(beta_tuple, dtype=int)
            end = float((m * (x**beta).prod(axis=1)).sum())
            start = float((m * (z**beta).prod(axis=1)).sum()) if a == 0 else 0.0

            integral = 0.0
            for t, w in zip(t_nodes, t_weights):
                y = (1.0 - t) * z + t * x
                mono = (y**beta).prod(axis=1)
                time_part = a * t ** (a - 1) * mono if a >= 1 else np.zeros(len(m))
                advect = np.zeros(len(m))
                for j in range(dim):
                    if beta[j] == 0:
                        continue
                    lowered = beta.copy()
                    lowered[j] -= 1
                    advect += beta[j] * (y**lowered).prod(axis=1) * v[:, j]
                integral += w * float((m * (time_part + t**a * advect)).sum())
            terms.append((a, beta_tuple, end - start, integral))
    return terms


def pinned_polish_loop(points: np.ndarray, z0: np.ndarray, p: float, tol: float, steps: int = 60) -> np.ndarray:
    """Row-by-row pinned-point balance iteration, as a loop reference.

    For each tuple ``points[k]`` (shape (N, d)) the atom nearest to
    ``z0[k]`` is fixed; the point is moved to distance
    ``(|g| / p)^(1/(p-1))`` from it, opposite the gradient ``g`` of the
    other atoms' costs, until the stationarity residual of the tuple is
    within ``tol * (1 + sum_i r_i^(p-1))`` or ``steps`` steps are taken.
    The result replaces ``z0[k]`` only if its residual is lower.
    """

    def residual(pts: np.ndarray, z: np.ndarray) -> tuple[float, float]:
        diff = pts - z
        r = np.linalg.norm(diff, axis=1)
        coeff = np.where(r > 0.0, p * np.where(r > 0.0, r, 1.0) ** (p - 2.0), 0.0)
        return float(np.linalg.norm((coeff[:, None] * diff).sum(axis=0))), 1.0 + float((r ** (p - 1.0)).sum())

    out = np.array(z0, dtype=float)
    for k, pts in enumerate(points):
        i = int(np.linalg.norm(pts - z0[k], axis=1).argmin())
        rest = np.delete(pts, i, axis=0)
        z = z0[k]
        for _ in range(steps):
            diff = rest - z
            r = np.linalg.norm(diff, axis=1)
            coeff = np.where(r > 0.0, p * np.where(r > 0.0, r, 1.0) ** (p - 2.0), 0.0)
            g = -(coeff[:, None] * diff).sum(axis=0)
            gn = float(np.linalg.norm(g))
            z = pts[i].copy() if gn == 0.0 else pts[i] - (gn / p) ** (1.0 / (p - 1.0)) * (g / gn)
            norm, scale = residual(pts, z)
            if norm <= tol * scale:
                break
        if residual(pts, z)[0] < residual(pts, z0[k])[0]:
            out[k] = z
    return out
