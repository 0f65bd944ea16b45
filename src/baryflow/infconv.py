"""Power-cost barycenters of point tuples.

The ground cost between a tuple ``x_1, ..., x_N`` and a free point ``z``
is ``sum_i |x_i - z|^p`` with exponent ``p > 1``.  Minimizing over ``z``
gives the tuple's barycentric cost (an infimal convolution of the single
power costs) and a unique minimizer, characterized by the stationarity
condition ``sum_i grad |.|^p (x_i - z) = 0``.

For ``p = 2`` the minimizer is the arithmetic mean.  Otherwise a damped
Newton iteration on ``z`` is used, with a batched pinned-point finish for
minimizers that sit on a data point: it is tried on the rows still
active at one early iteration and at the last one, and finishes the rows
it brings within the tolerance.  Everything is vectorized over batches
of tuples because the transport layer needs barycenters for every point
of a product grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NonFiniteCoordinateError,
    WrongExponentError,
)
from .measures import _freeze

__all__ = [
    "BarycenterResult",
    "check_exponent",
    "power_cost_gradient",
    "barycenter_point",
    "batch_barycenters",
]

# Residual tolerance: the stationarity gradient must drop below
# DEFAULT_TOL * (1 + sum_i r_i^(p-1)), the natural scale of the gradient
# terms.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
# Armijo sufficient-decrease constant and halving budget.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
# A full Newton step that raises the objective by more than this fraction
# goes to the line search.  Near the minimizer the objective stalls, and
# two evaluations differ only by the rounding of the norms, powers and
# sums, a few ulps; a step rejected for that would stall a row the
# gradient test is about to finish.  On the Newton grids of the wide
# benchmark workload (p = 1.2, 1.5, 3; seeds 1-4, in the frame) the
# rounding rises of full steps were 1e-16 to 1.5e-14 relative, and every
# real rise, the cycling steps' among them, was above 2.6e-11.
_RISE_TOL = 1e-12
# Balance-step budget of the pinned-point finish.
_POLISH_STEPS = 60
# Newton iteration at which the rows still active first try the
# pinned-point finish.  On random 8x8x8 plane grids at p = 1.2, 20 to 43
# of 512 rows are still active there, all pinned to a data point, where
# Newton would crawl through the rest of the budget.
_PINNED_AFTER = 16


def check_exponent(p: float) -> float:
    """Return ``p`` as a float, rejecting anything outside ``(1, inf)``."""
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise WrongExponentError(f"cost exponent must be finite and > 1, got {p!r}")
    return p


def power_cost_gradient(x: object, p: float) -> np.ndarray | float:
    """Gradient of ``|x|^p``, which is ``p |x|^(p-2) x`` and zero at zero.

    Broadcasts over leading axes (the last axis holds the coordinates;
    scalars are points on the line); the zero value at the origin is the
    continuous extension, valid for every ``p > 1``.
    """
    p = check_exponent(p)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        val = float(arr)
        return 0.0 if val == 0.0 else p * abs(val) ** (p - 2) * val
    r = np.linalg.norm(arr, axis=-1, keepdims=True)
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, p * safe ** (p - 2) * arr, 0.0)


def _balance_residual(diff: np.ndarray, p: float) -> float:
    """Worst normalized stationarity defect over tuples of displacements.

    ``diff`` holds ``x_i - z`` with shape (k, N, d).  Per tuple the norm
    of ``sum_i p |x_i - z|^(p-2) (x_i - z)`` is scaled by
    ``1 + sum_i |x_i - z|^(p-1)``; the maximum is 0 for no tuples.
    """
    grads = power_cost_gradient(diff, p)
    scale = 1.0 + (np.linalg.norm(diff, axis=2) ** (p - 1.0)).sum(axis=1)
    return float((np.linalg.norm(grads.sum(axis=1), axis=1) / scale).max(initial=0.0))


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


def _dual_lower_bound(points: np.ndarray, z: np.ndarray, p: float) -> np.ndarray:
    """Batched lower bound on the tuple cost, for points (m, N, d), z (m, d).

    The conjugate of an infimal convolution is the sum of the conjugates
    (Rockafellar, Convex Analysis, Thm 16.4), ``f*(y) = (p-1) (|y|/p)^(p/(p-1))``
    for ``|.|^p``.  So for any ``z`` and any ``y_i`` summing to zero the
    cost is at least ``sum_i <y_i, x_i - z> - f*(y_i)`` (weak duality),
    with equality when ``z`` is the minimizer and ``y_i`` the gradients
    there; here they are the gradients at ``z`` less their mean.  Using
    displacements ``x_i - z`` keeps the sum from cancelling at large
    coordinates, and splitting the power as ``t t^(1/(p-1))``, ``t = |y|/p``,
    makes the rounded exponent cost p times fewer ulps (about ``|ln r|``).
    Where ``|y_i|`` is below about 1e-154 or above 1e154 its squares
    underflow or overflow (a norm read as 0 made ``L`` p times the cost),
    so there it is taken after dividing ``y_i`` by the power of two of its
    largest component; that scaling is exact, so elsewhere it would change
    no bit.
    """
    diff = points - z[:, None, :]
    return _displacement_lower_bound(diff, _norm(diff), p)


def _displacement_lower_bound(diff: np.ndarray, r: np.ndarray, p: float) -> np.ndarray:
    """:func:`_dual_lower_bound` from the displacements ``x_i - z`` and their norms."""
    safe = np.where(r > 0.0, r, 1.0)
    y = np.where(r > 0.0, p * safe ** (p - 2.0), 0.0)[:, :, None] * diff
    y -= (_sum_axis1(y) / y.shape[1])[:, None, :]
    t = _norm(y)
    extreme = (t < 2.0**-510) | (t > 2.0**510)
    if extreme.any():
        _, exponent = np.frexp(np.abs(y[extreme]).max(axis=1))
        t[extreme] = np.ldexp(_norm(np.ldexp(y[extreme], -exponent[:, None])), exponent)
    t /= p
    conjugate = (p - 1.0) * t * t ** (1.0 / (p - 1.0))
    return _sum_axis1((y * diff).sum(axis=2) - conjugate)


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


def _met(norm: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Rows whose residual norm is within ``DEFAULT_TOL * scale``, at finite radii.

    A radius that overflows makes the scale infinite and the residual
    read zero, which would pass the test; the scale is finite exactly
    when every radius is.
    """
    return (norm <= DEFAULT_TOL * scale) & np.isfinite(scale)


def _start_state(points: np.ndarray, p: float):
    """Tuple means, and the gradient state and objective there.

    Raises if either overflows at some tuple: a radius above about 1e154
    makes the scale infinite and the residual read zero, and for p > 2 a
    finite radius can overflow in the power or the squared residual.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = _sum_axis1(points) / points.shape[1]
        state = _gradient_state(points, z, p)
        value = _sum_axis1(state[3] ** p)
    bad = ~(np.isfinite(state[1]) & np.isfinite(state[2]) & np.isfinite(value))
    if bad.any():
        raise NonFiniteCoordinateError(
            f"{int(bad.sum())} of {len(value)} tuples overflow floating point: at the tuple "
            f"mean the cost sum_i |x_i - z|^{p:g} or its gradient is not finite (distances "
            "above about 1e154 overflow when squared, and lower ones can for p > 2)"
        )
    return z, state, value


def _mean_bounds(points: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tuple means, and a lower and an upper bound on each tuple cost there.

    The upper bound is the objective at the mean and the lower one
    :func:`_dual_lower_bound` there, capped at the upper one (it can be
    ``-inf`` for p near 1).  Raises as :func:`_start_state` does.
    """
    z, state, upper = _start_state(points, p)
    with np.errstate(over="ignore"):
        lower = _displacement_lower_bound(state[4], state[3], p)
    return z, np.minimum(lower, upper), upper


def batch_barycenters(
    points: object, p: float, *, _start: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Barycenters for a batch of point tuples.

    Parameters
    ----------
    points : array_like, shape (m, N, d)
        ``m`` tuples of ``N`` points each.
    p : float
        Cost exponent, strictly greater than one.

    Returns
    -------
    (barycenters, values, grad_norms)
        Arrays of shape ``(m, d)``, ``(m,)``, ``(m,)``.

    Raises
    ------
    ConvergenceError
        If some tuple misses ``DEFAULT_TOL`` after ``DEFAULT_MAX_ITER``
        Newton iterations and the pinned-point finish; its
        ``unconverged`` and ``worst_residual`` give the count of such
        tuples and the largest residual among them.
    NonFiniteCoordinateError
        If the cost or its gradient overflows at the mean of some tuple:
        distances above about 1e154, or lower ones for p > 2.
    """
    p = check_exponent(p)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 3:
        raise DimensionMismatchError(f"expected a (m, N, d) batch, got shape {pts.shape}")
    m = pts.shape[0]

    z, state, start_value = _start_state(pts, p)
    if p == 2.0:
        return z, start_value, state[1]
    state = list(state)

    values = np.zeros(m)
    grad_norms = np.zeros(m)
    rows = np.arange(m)
    if _start is not None:
        # A start point per row (private; the translated re-solve passes
        # the first solve's meeting points).  The rows it settles by the
        # first pinned-point finish keep their point; every other row is
        # solved from its tuple mean below, and since rows are computed
        # independently, it gets the bits it would get without a start.
        z_start = np.array(_start, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            start = _gradient_state(pts, z_start, p)
        live = np.flatnonzero(np.isfinite(start[1]) & np.isfinite(start[2]))
        start = [part[live] for part in start]
        unsettled, _ = _newton(pts[live], z_start, start, p, live, _PINNED_AFTER, values, grad_norms)
        settled = np.zeros(m, dtype=bool)
        settled[live] = True
        settled[unsettled] = False
        z[settled] = z_start[settled]
        rows = np.flatnonzero(~settled)
        pts, state = pts[rows], [part[rows] for part in state]
    unconverged, residuals = _newton(pts, z, state, p, rows, DEFAULT_MAX_ITER, values, grad_norms)
    if unconverged.size:
        raise _unconverged_error(unconverged.size, m, float(residuals.max()))
    return z, values, grad_norms


def _unconverged_error(count: int, batch: int, worst: float) -> ConvergenceError:
    """The error for ``count`` of ``batch`` rows left above the tolerance.

    Built here, not in the raising frame: an exception held by a local of
    the frame in its traceback forms a cycle that keeps the frame's
    arrays alive until the garbage collector runs.
    """
    error = ConvergenceError(
        f"{count} of {batch} barycenters unconverged after "
        f"{DEFAULT_MAX_ITER} iterations (worst residual {worst:.3e})"
    )
    error.unconverged, error.worst_residual = count, worst
    return error


def _newton(
    x: np.ndarray,
    z: np.ndarray,
    state: list,
    p: float,
    idx: np.ndarray,
    stop: int,
    values: np.ndarray,
    grad_norms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton with the pinned-point finish on the rows ``idx`` of a batch.

    ``x`` holds the points of those rows and ``state`` their gradient
    state at ``z[idx]``, a list that is overwritten as the rows move, so
    the caller does not keep the first state alive through the iteration.
    A row that meets the tolerance has its point, value and residual norm
    written into ``z``, ``values`` and ``grad_norms``.  The pinned-point
    finish is tried at iterations ``_PINNED_AFTER`` and ``stop``, after
    which the rows still unfinished are returned with their residual norms.
    """
    eye = np.eye(x.shape[2])

    # One gradient state is evaluated per iteration: the state at the
    # trial point is the next iteration's state for the rows that take it,
    # and only rows moved by the line search are evaluated afresh.  Every
    # row is computed independently, so this gives the same bits as
    # evaluating each iterate from scratch.  Trial points whose radii
    # overflow are never taken, so every state is finite once the start
    # state is.
    for it in range(stop + 1):
        resid, resid_norm, scale, r, diff = state
        finished = _met(resid_norm, scale)
        if finished.any():
            done = idx[finished]
            values[done] = _sum_axis1(r[finished] ** p)
            grad_norms[done] = resid_norm[finished]
        if it in (_PINNED_AFTER, stop) and not finished.all():
            # The pinned-point finish: a row stops here only if its
            # polished point meets the tolerance; every other row goes on
            # from its own iterate and state, unless the budget is spent.
            live = np.flatnonzero(~finished)
            z_p, norm_p, scale_p, r_p = _pinned_polish(
                x[live], z[idx[live]], tuple(part[live] for part in state), p
            )
            polished = _met(norm_p, scale_p)
            if polished.any():
                done = idx[live[polished]]
                z[done] = z_p[polished]
                values[done] = _sum_axis1(r_p[polished] ** p)
                grad_norms[done] = norm_p[polished]
                finished[live[polished]] = True
            if it == stop:
                return idx[live[~polished]], norm_p[~polished]
        if finished.any():
            keep = ~finished
            idx, x = idx[keep], x[keep]
            state[:] = [part[keep] for part in state]
            resid, resid_norm, scale, r, diff = state
        if idx.size == 0:
            break
        zz = z[idx]

        # Newton step on the remaining rows.  The Hessian of the
        # objective is p sum_i r^(p-2) (I + (p-2) u u^T) with u the unit
        # displacement, positive definite for every p > 1.  The
        # regularization is 1e-12 of the trace, so it follows the
        # curvature at every scale.
        safe = np.where(r > 0.0, r, 1.0)
        iso = np.where(r > 0.0, p * safe ** (p - 2.0), 0.0)
        u = np.where(r[:, :, None] > 0.0, diff / np.where(r[:, :, None] > 0.0, r[:, :, None], 1.0), 0.0)
        terms = (p - 2.0) * u[:, :, :, None] * u[:, :, None, :]
        terms += eye
        terms *= iso[:, :, None, None]
        hess = _sum_axis1(terms)
        trace = np.trace(hess, axis1=1, axis2=2)
        hess += (1e-12 * trace)[:, None, None] * eye
        step = np.linalg.solve(hess, resid[:, :, None])[:, :, 0]
        descent = _sum_axis1(resid * step)

        # Full Newton steps are accepted outright when they shrink the
        # gradient norm and raise the objective by no more than rounding
        # (_RISE_TOL): near the optimum the objective decrease falls below
        # float granularity and cannot drive a line search, while the
        # gradient norm keeps a clean signal all the way down.  Without
        # the rise test, full steps that shrink the gradient but climb
        # alternate with line searches that descend, in a cycle that
        # never reaches the minimizer.
        z_try = zz + step
        state[:] = _gradient_state(x, z_try, p)
        _, try_norm, try_scale, try_r, _ = state
        search = (try_norm > 0.9 * resid_norm) | ~np.isfinite(try_scale)
        full = np.flatnonzero(~search)
        with np.errstate(over="ignore", invalid="ignore"):
            climbs = _sum_axis1(try_r[full] ** p) > _sum_axis1(r[full] ** p) * (1.0 + _RISE_TOL)
        search[full[climbs]] = True
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
    return idx, np.zeros(0)


def _pinned_polish(
    points: np.ndarray, z0: np.ndarray, state: tuple, p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Refine minimizers pinned near one data point, batched over rows.

    Minimizers that sit almost exactly on a data point defeat Newton for
    p < 2: the curvature diverges there and the iterates crawl.
    Splitting each row's cost into the singular term ``|x_i - z|^p`` of
    its nearest atom (fixed at ``z0``) and the smooth rest, stationarity
    places the minimizer at distance ``(|g| / p)^(1/(p-1))`` from the
    atom, opposite the rest gradient ``g``.  Iterating this balance
    contracts much faster than Newton in the pinned regime.  It runs for
    at most ``_POLISH_STEPS`` steps, and a row stops as soon as it meets
    ``DEFAULT_TOL``.  Away from a pinned minimizer the steps can run off
    to infinity (their length overflows for p near 1); a row keeps the
    polished point only if its radii are finite and it lowers the
    residual of its ``state`` at ``z0``, so the step is safe everywhere
    else, and its overflows are not reported.  Returns the kept points
    and the residual norm, scale and radii there.

    :func:`batch_barycenters` calls it on the rows still active at Newton
    iterations ``_PINNED_AFTER`` and ``DEFAULT_MAX_ITER``, keeping only
    the rows it brings within ``DEFAULT_TOL``.
    """
    _, start_norm, start_scale, start_r, _ = state
    rows = np.arange(len(points))
    nearest = start_r.argmin(axis=1)
    anchors = points[rows, nearest]
    others = np.ones(start_r.shape, dtype=bool)
    others[rows, nearest] = False
    z, norm, scale, r = z0.copy(), start_norm.copy(), start_scale.copy(), start_r.copy()
    todo = rows
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_POLISH_STEPS):
            if todo.size == 0:
                break
            diff = points[todo] - z[todo][:, None, :]
            radii = _norm(diff)
            safe = np.where(radii > 0.0, radii, 1.0)
            coeff = np.where(others[todo] & (radii > 0.0), p * safe ** (p - 2.0), 0.0)
            g = -_sum_axis1(coeff[:, :, None] * diff)
            # a zero rest gradient leaves the point on its atom
            gn = _norm(g)
            gn = np.where(gn > 0.0, gn, 1.0)
            z[todo] = anchors[todo] - ((gn / p) ** (1.0 / (p - 1.0)))[:, None] * (g / gn[:, None])
            _, norm[todo], scale[todo], r[todo], _ = _gradient_state(points[todo], z[todo], p)
            todo = todo[norm[todo] > DEFAULT_TOL * scale[todo]]
    better = (norm < start_norm) & np.isfinite(scale)
    return (
        np.where(better[:, None], z, z0),
        np.where(better, norm, start_norm),
        np.where(better, scale, start_scale),
        np.where(better[:, None], r, start_r),
    )


def barycenter_point(xs: object, p: float) -> BarycenterResult:
    """Barycenter of a single tuple ``xs`` of shape ``(N, d)`` or ``(N,)``.

    Minimizes ``z -> sum_i |x_i - z|^p``.  The returned residual norm
    satisfies ``grad_norm <= DEFAULT_TOL * (1 + sum_i |x_i - z|^(p-1))``.

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
    z, value, grad = batch_barycenters(arr[None], p)
    return BarycenterResult(barycenter=z[0], value=float(value[0]), grad_norm=float(grad[0]))
