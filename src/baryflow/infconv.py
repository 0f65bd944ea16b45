"""Power-cost barycenters of point tuples.

The ground cost between a tuple ``x_1, ..., x_N`` and a free point ``z``
is ``sum_i |x_i - z|^p`` with exponent ``p > 1``.  Minimizing over ``z``
gives the tuple's barycentric cost (an infimal convolution of the single
power costs) and a unique minimizer, characterized by the stationarity
condition ``sum_i grad |.|^p (x_i - z) = 0``.

For ``p = 2`` the minimizer is the arithmetic mean.  Otherwise a damped
Newton iteration on ``z`` is used, with a reweighted-average fallback
step when the Hessian is nearly singular.  Everything is vectorized over
batches of tuples because the transport layer needs barycenters for every
point of a product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, DimensionMismatchError, WrongExponentError
from .measures import _freeze

__all__ = [
    "BarycenterResult",
    "check_exponent",
    "power_cost",
    "power_cost_gradient",
    "barycenter_point",
    "infconv_cost",
    "batch_barycenters",
]

# Default residual tolerance: the stationarity gradient must drop below
# tol * (1 + sum_i r_i^(p-1)), the natural scale of the gradient terms.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
# For p < 2 the Hessian blows up near data points; radii below this are
# clamped inside the Hessian (the gradient always uses true radii).
_PROXIMITY = 1e-11
# Armijo sufficient-decrease constant and halving budget.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


def check_exponent(p: float) -> float:
    """Return ``p`` as a float, rejecting anything outside ``(1, inf)``."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise WrongExponentError(f"cost exponent must be finite and > 1, got {p!r}")
    return p


def power_cost(x: object, p: float) -> np.ndarray | float:
    """Euclidean power cost ``|x|^p``, broadcast over leading axes.

    The last axis of ``x`` is the coordinate axis; scalars are treated as
    points on the line.
    """
    p = check_exponent(p)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return float(abs(arr) ** p)
    r = np.linalg.norm(arr, axis=-1)
    return r**p


def power_cost_gradient(x: object, p: float) -> np.ndarray | float:
    """Gradient of ``|x|^p``, which is ``p |x|^(p-2) x`` and zero at zero.

    Broadcasts like :func:`power_cost`; the zero value at the origin is
    the continuous extension, valid for every ``p > 1``.
    """
    p = check_exponent(p)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        val = float(arr)
        return 0.0 if val == 0.0 else p * abs(val) ** (p - 2) * val
    r = np.linalg.norm(arr, axis=-1, keepdims=True)
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, p * safe ** (p - 2) * arr, 0.0)


@dataclass(frozen=True)
class BarycenterResult:
    """Minimizer of ``z -> sum_i |x_i - z|^p`` for one point tuple.

    Attributes
    ----------
    barycenter : ndarray, shape (d,)
        The unique minimizing point.
    value : float
        The minimal cost, i.e. the infimal-convolution cost of the tuple.
    grad_norm : float
        Norm of the stationarity gradient at the returned point.
    """

    barycenter: np.ndarray
    value: float
    grad_norm: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "barycenter", _freeze(self.barycenter, float))


def _sum_axis1(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)``, added one slice at a time in index order.

    numpy reduces a short axis 1 slowly.  For fewer than 8 entries its
    sum is this same left-to-right loop from zero, so the bits match;
    longer axes (never met by the solvers here, which batch tuples of a
    few points in the plane or on the line) round differently from
    numpy's pairwise sum but are just as accurate.
    """
    out = np.zeros(a.shape[:1] + a.shape[2:])
    for i in range(a.shape[1]):
        out += a[:, i]
    return out


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, summed like :func:`_sum_axis1`."""
    sq = a * a
    out = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        out += sq[..., j]
    return np.sqrt(out, out=out)


def _objective(points: np.ndarray, z: np.ndarray, p: float) -> np.ndarray:
    """Batched ``sum_i |x_i - z|^p`` for points (m, N, d), z (m, d)."""
    return _sum_axis1(_norm(points - z[:, None, :]) ** p)


def _gradient_state(points: np.ndarray, z: np.ndarray, p: float):
    """Return (residual vector, residual norm, scale, radii, displacements).

    The residual is ``sum_i p r_i^(p-2) (x_i - z)``, the negative of the
    objective gradient; ``scale = 1 + sum_i r_i^(p-1)`` normalizes it.
    The displacements are ``x_i - z``, shape (m, N, d).
    """
    diff = points - z[:, None, :]
    r = _norm(diff)
    safe = np.where(r > 0.0, r, 1.0)
    coeff = np.where(r > 0.0, p * safe ** (p - 2.0), 0.0)
    resid = _sum_axis1(coeff[:, :, None] * diff)
    scale = 1.0 + _sum_axis1(r ** (p - 1.0))
    return resid, _norm(resid), scale, r, diff


def batch_barycenters(
    points: object,
    p: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycenters for a batch of point tuples.

    Parameters
    ----------
    points : array_like, shape (m, N, d)
        ``m`` tuples of ``N`` points each.
    p : float
        Cost exponent, strictly greater than one.
    tol : float
        Stationarity tolerance, relative to ``1 + sum_i r_i^(p-1)``.
    max_iter : int
        Newton iteration budget per tuple.

    Returns
    -------
    (barycenters, values, grad_norms)
        Arrays of shape ``(m, d)``, ``(m,)``, ``(m,)``.
    """
    p = check_exponent(p)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        raise DimensionMismatchError(f"expected a (m, N, d) batch, got shape {pts.shape}")
    m = pts.shape[0]

    if p == 2.0:
        z = pts.mean(axis=1)
        _, resid_norm, _, r, _ = _gradient_state(pts, z, p)
        return z, _sum_axis1(r**2), resid_norm

    z = pts.mean(axis=1).copy()
    values = np.zeros(m)
    grad_norms = np.zeros(m)
    active = np.ones(m, dtype=bool)
    eye = np.eye(pts.shape[2])

    # One gradient state is evaluated per iteration: the state at the
    # trial point is the next iteration's state for the rows that take it,
    # and only rows moved by the line search are evaluated afresh.  Every
    # row is computed independently, so this gives the same bits as
    # evaluating each iterate from scratch.
    idx = np.flatnonzero(active)
    x = pts[idx]
    state = _gradient_state(x, z[idx], p)
    for _ in range(max_iter):
        if idx.size == 0:
            break
        zz = z[idx]
        resid, resid_norm, scale, r, diff = state

        finished = resid_norm <= tol * scale
        if finished.any():
            rows = idx[finished]
            values[rows] = _sum_axis1(r[finished] ** p)
            grad_norms[rows] = resid_norm[finished]
            active[rows] = False
            keep = ~finished
            if not keep.any():
                break
            idx, x, zz = idx[keep], x[keep], zz[keep]
            resid, resid_norm, scale, r, diff = resid[keep], resid_norm[keep], scale[keep], r[keep], diff[keep]

        # Newton step on the remaining rows.  The Hessian of the
        # objective is p sum_i r^(p-2) (I + (p-2) u u^T) with u the unit
        # displacement; radii are floored for p < 2 to keep it bounded.
        r_h = np.maximum(r, _PROXIMITY) if p < 2.0 else r
        safe = np.where(r_h > 0.0, r_h, 1.0)
        iso = np.where(r_h > 0.0, p * safe ** (p - 2.0), 0.0)
        u = np.where(r[:, :, None] > 0.0, diff / np.where(r[:, :, None] > 0.0, r[:, :, None], 1.0), 0.0)
        terms = (p - 2.0) * u[:, :, :, None] * u[:, :, None, :]
        terms += eye
        terms *= iso[:, :, None, None]
        hess = _sum_axis1(terms)
        trace = np.trace(hess, axis1=1, axis2=2)
        hess += (1e-12 * (1.0 + trace))[:, None, None] * eye
        step = np.linalg.solve(hess, resid[:, :, None])[:, :, 0]
        descent = _sum_axis1(resid * step)

        # Rows where the Newton direction is unusable fall back to a
        # reweighted average (fixed-point step of the stationarity map).
        bad = ~np.isfinite(step).all(axis=1) | (descent <= 0.0)
        if bad.any():
            w = np.where(r[bad] > 0.0, p * np.where(r[bad] > 0.0, r[bad], 1.0) ** (p - 2.0), 0.0)
            wsum = w.sum(axis=1, keepdims=True)
            wsum = np.where(wsum > 0.0, wsum, 1.0)
            z_avg = (w[:, :, None] * x[bad]).sum(axis=1) / wsum
            step[bad] = z_avg - zz[bad]
            descent[bad] = np.maximum((resid[bad] * step[bad]).sum(axis=1), 0.0)

        # Full Newton steps are accepted outright when they shrink the
        # gradient norm: near the optimum the objective decrease falls
        # below float granularity and cannot drive a line search, while
        # the gradient norm keeps a clean signal all the way down.
        z_try = zz + step
        state = _gradient_state(x, z_try, p)
        _, try_norm, _, try_r, _ = state
        search = try_norm > 0.9 * resid_norm
        if search.any():
            # Armijo backtracking, on the rows where the full step fails
            # the sufficient-decrease test.  The trial state holds the
            # radii at the full step, so its objective costs no new norm.
            rows = np.flatnonzero(search)
            obj = _sum_axis1(r[rows] ** p)
            short = _sum_axis1(try_r[rows] ** p) > obj - _ARMIJO * descent[rows]
            if short.any():
                rows, obj = rows[short], obj[short]
                x_s, zz_s, step_s, descent_s = x[rows], zz[rows], step[rows], descent[rows]
                t = np.ones(len(rows))
                z_s = zz_s.copy()
                obj_s = obj.copy()
                need = np.ones(len(rows), dtype=bool)
                for _halving in range(_MAX_HALVINGS):
                    if not need.any():
                        break
                    t[need] *= 0.5
                    z_s[need] = zz_s[need] + t[need, None] * step_s[need]
                    obj_s[need] = _objective(x_s[need], z_s[need], p)
                    need = obj_s > obj - _ARMIJO * t * descent_s
                z_s[need] = zz_s[need]
                z_try[rows] = z_s
                for part, fresh in zip(state, _gradient_state(x_s, z_s, p)):
                    part[rows] = fresh
        z[idx] = z_try

    # Minimizers that sit almost exactly on a data point defeat Newton
    # for p < 2: the curvature diverges there and the iterates crawl.
    # Balance the singular term against the smooth rest analytically and
    # keep the refined point only where it actually lowers the residual.
    for row in np.flatnonzero(active):
        z_ref = _pinned_polish(pts[row], z[row], p, tol)
        rn_old = _gradient_state(pts[row][None], z[row][None], p)[1]
        rn_new = _gradient_state(pts[row][None], z_ref[None], p)[1]
        if rn_new[0] < rn_old[0]:
            z[row] = z_ref

    idx = np.flatnonzero(active)
    if idx.size:
        _, resid_norm, scale, r, _ = _gradient_state(pts[idx], z[idx], p)
        obj = _sum_axis1(r**p)
        late = resid_norm <= tol * scale
        rows = idx[late]
        values[rows] = obj[late]
        grad_norms[rows] = resid_norm[late]
        active[rows] = False
        if active.any():
            worst = float(resid_norm[~late].max())
            raise ConvergenceError(
                f"{int(active.sum())} of {m} barycenters unconverged after "
                f"{max_iter} iterations (worst residual {worst:.3e})"
            )
    return z, values, grad_norms


def _pinned_polish(points: np.ndarray, z0: np.ndarray, p: float, tol: float, max_iter: int = 60) -> np.ndarray:
    """Refine a minimizer pinned near one data point.

    Splitting the cost into the singular term ``|x_i - z|^p`` of the
    nearest atom and the smooth rest, stationarity places the minimizer
    at distance ``(|g| / p)^(1/(p-1))`` from the atom, opposite the rest
    gradient ``g``.  Iterating this balance contracts much faster than
    Newton in the pinned regime; the caller keeps the result only if it
    improves the residual, so the step is safe everywhere else.
    """
    radii = np.linalg.norm(points - z0, axis=1)
    i = int(radii.argmin())
    anchor = points[i]
    rest = np.delete(points, i, axis=0)
    zz = z0
    for _ in range(max_iter):
        g = -power_cost_gradient(rest - zz, p).sum(axis=0)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            zz = anchor.copy()
        else:
            zz = anchor - (gn / p) ** (1.0 / (p - 1.0)) * (g / gn)
        _, rn, scale, _, _ = _gradient_state(points[None], zz[None], p)
        if rn[0] <= tol * scale[0]:
            break
    return zz


def barycenter_point(
    xs: object,
    p: float,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> BarycenterResult:
    """Barycenter of a single tuple ``xs`` of shape ``(N, d)`` or ``(N,)``.

    Minimizes ``z -> sum_i |x_i - z|^p``.  The returned residual norm
    satisfies ``grad_norm <= tol * (1 + sum_i |x_i - z|^(p-1))``.

    Raises
    ------
    ConvergenceError
        If the iteration budget is exhausted first.
    """
    arr = np.asarray(xs, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise DimensionMismatchError(f"expected an (N, d) tuple of points, got shape {np.shape(xs)}")
    z, value, grad = batch_barycenters(arr[None], p, tol=tol, max_iter=max_iter)
    return BarycenterResult(barycenter=z[0], value=float(value[0]), grad_norm=float(grad[0]))


def infconv_cost(xs: object, p: float, *, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Infimal-convolution cost ``inf_z sum_i |x_i - z|^p`` of one tuple."""
    return barycenter_point(xs, p, tol=tol, max_iter=max_iter).value
