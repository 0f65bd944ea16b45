"""Particle flows induced by an optimal multi-marginal plan.

Each support tuple of the plan spawns one particle per marginal: all N
particles of a tuple start at the tuple's barycenter point and travel in
a straight line at constant speed, reaching the respective marginal atoms
at time one.  Family ``i`` of particles therefore interpolates the
barycenter measure to the ``i``-th marginal; these are the geodesic
(displacement) interpolations of the pairwise transport problems.

Reading a whole tuple as a single particle in the product space gives a
flow of couplings: it starts on the diagonal (every factor at the
barycenter point) and ends at a coupling of the marginals.  It is not a
separate object: the ``coupling_*`` functions take the
:class:`ParticleFlow` and read it in product space.  Its action under the
infimal-convolution cost of the velocity components equals the plain
flow action, because the summed velocity gradients of each tuple vanish
at the barycenter; both quantities are computed here independently so
the equality can be certified rather than assumed.

All time integrals are evaluated in closed form or by Gauss-Legendre
quadrature on polynomial integrands; nothing is time-stepped.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from pathlib import Path
from typing import Sequence

import numpy as np

from .exceptions import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    TimeOutOfRangeError,
    WrongExponentError,
)
from .infconv import _balance_residual, batch_barycenters, check_exponent
from .measures import DiscreteMeasure, _freeze, canonicalize
from .transport import MmotResult, _tuple_points

__all__ = [
    "ParticleFlow",
    "build_particle_flow",
    "snapshot",
    "coupling_snapshot",
    "flow_action",
    "coupling_flow_action",
    "velocity_balance_residual",
    "momentum_balance_residual",
    "continuity_residual",
    "export_flow_frames",
    "export_coupling_frames",
]


@dataclass(frozen=True)
class ParticleFlow:
    """N families of straight-line particles with a shared start.

    Attributes
    ----------
    starts : ndarray, shape (K, d)
        Common initial position of the K particle tuples.
    targets : ndarray, shape (K, N, d)
        Endpoint of particle ``(k, i)``: tuple ``k``, family ``i``.
    masses : ndarray, shape (K,)
        Mass carried by each tuple (shared by all its families).
    p : float
        Cost exponent of the underlying transport problem.
    """

    starts: np.ndarray
    targets: np.ndarray
    masses: np.ndarray
    p: float

    def __post_init__(self) -> None:
        starts = np.asarray(self.starts, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if starts.ndim != 2 or targets.ndim != 3 or masses.ndim != 1:
            raise DimensionMismatchError("expected starts (K,d), targets (K,N,d), masses (K,)")
        if targets.shape[0] != starts.shape[0] or targets.shape[2] != starts.shape[1]:
            raise DimensionMismatchError("targets do not match starts in count or dimension")
        if len(masses) != len(starts):
            raise DimensionMismatchError("one mass per particle tuple is required")
        object.__setattr__(self, "starts", _freeze(starts))
        object.__setattr__(self, "targets", _freeze(targets))
        object.__setattr__(self, "masses", _freeze(masses))
        object.__setattr__(self, "p", check_exponent(self.p))

    @property
    def n_marginals(self) -> int:
        return self.targets.shape[1]

    @property
    def dim(self) -> int:
        return self.starts.shape[1]

    @property
    def velocities(self) -> np.ndarray:
        """Constant velocities, shape (K, N, d)."""
        return self.targets - self.starts[:, None, :]

    def __len__(self) -> int:
        return len(self.masses)


def build_particle_flow(result: MmotResult) -> ParticleFlow:
    """Particle flow of an optimal plan: one tuple of particles per entry."""
    return ParticleFlow(
        starts=result.tuple_barycenters,
        targets=_tuple_points(result.marginals, result.plan.indices),
        masses=result.plan.masses,
        p=result.p,
    )


def _product_space(flow: ParticleFlow) -> tuple[np.ndarray, np.ndarray]:
    """Starts and targets of the coupling flow, both shape (K, N*d).

    Each particle tuple is one product-space particle: it starts on the
    diagonal, every factor at the tuple's start, and ends at the tuple's
    targets laid side by side.
    """
    K, N, d = flow.targets.shape
    return np.tile(flow.starts, (1, N)), flow.targets.reshape(K, N * d)


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise TimeOutOfRangeError(f"time {t!r} outside [0, 1]")
    return t


def snapshot(flow: ParticleFlow, i: int, t: float) -> DiscreteMeasure:
    """Measure of family ``i`` at time ``t``, in canonical form.

    Atoms sit at ``(1-t) start + t target``; time zero reproduces the
    barycenter measure and time one the ``i``-th marginal.
    """
    if not 0 <= i < flow.n_marginals:
        raise IndexOutOfRangeError(f"family index {i} outside 0..{flow.n_marginals - 1}")
    t = _check_time(t)
    positions = (1.0 - t) * flow.starts + t * flow.targets[:, i, :]
    return canonicalize(DiscreteMeasure(positions, flow.masses))


def coupling_snapshot(flow: ParticleFlow, t: float) -> DiscreteMeasure:
    """Product-space measure of the coupling flow of ``flow`` at time ``t``."""
    t = _check_time(t)
    starts, targets = _product_space(flow)
    positions = (1.0 - t) * starts + t * targets
    return canonicalize(DiscreteMeasure(positions, flow.masses))


# ---------------------------------------------------------------------------
# actions and residuals
# ---------------------------------------------------------------------------

def flow_action(flow: ParticleFlow) -> float:
    """Kinetic action ``sum_k mass_k sum_i |velocity_{k,i}|^p``.

    Straight lines at constant speed make the time integral of the
    p-th speed power equal the p-th power of the displacement, so the
    action coincides with the transport value of the generating plan.
    """
    speeds = np.linalg.norm(flow.velocities, axis=2)
    return float((flow.masses * (speeds**flow.p).sum(axis=1)).sum())


def coupling_flow_action(flow: ParticleFlow) -> float:
    """Action of the coupling flow of ``flow`` under the infimal-convolution cost.

    The velocity of a product-space particle has the tuple's velocities
    as its factor components, and its instantaneous cost is
    ``inf_w sum_i |v_i - w|^p``; it is computed here with the same Newton
    solver used for tuple costs, not assumed to simplify.  For flows
    built from an optimal plan the inner minimizer is the zero vector and
    the action equals :func:`flow_action`.

    Newton's tolerances are absolute, so it runs on the velocities divided
    by the longest side of the targets' bounding box (1 if it is zero),
    and the costs scale back by its p-th power: at small coordinates and
    p >= 3 it would otherwise stop near the tuple mean.
    """
    targets = flow.targets.reshape(-1, flow.dim)
    size = float(np.ptp(targets, axis=0).max()) if len(targets) else 0.0
    size = size if size > 0.0 else 1.0
    _, costs, _ = batch_barycenters(flow.velocities / size, flow.p)
    with np.errstate(over="ignore"):
        return float((flow.masses * (costs * np.power(size, flow.p))).sum())


def velocity_balance_residual(flow: ParticleFlow) -> float:
    """Worst normalized violation of the balanced-velocity condition.

    For every tuple the velocity gradients ``p |v_i|^(p-2) v_i`` must sum
    to zero; the norm of the sum is scaled by
    ``1 + sum_i |v_i|^(p-1)`` before taking the maximum.
    """
    return _balance_residual(flow.velocities, flow.p)


def momentum_balance_residual(flow: ParticleFlow) -> float:
    """Worst violation of plain and mass-weighted velocity sums (p = 2).

    For the quadratic cost the balanced-velocity condition loses its
    weights, so both ``sum_i v_i`` and ``mass * sum_i v_i`` must vanish
    per tuple.  Raises :class:`WrongExponentError` for any other
    exponent, where neither sum is expected to vanish.
    """
    if flow.p != 2.0:
        raise WrongExponentError(f"momentum balance needs exponent 2, flow has p={flow.p!r}")
    sums = flow.velocities.sum(axis=1)
    plain = np.linalg.norm(sums, axis=1)
    weighted = flow.masses * plain
    return float(max(plain.max(initial=0.0), weighted.max(initial=0.0)))


def _weak_form(flow: ParticleFlow, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the weak continuity identity, for every family at once.

    Returns ``(exponents, boundary, integral)``: ``exponents`` has one
    row ``(a, beta_1, ..., beta_d)`` per test monomial ``t^a x^beta`` of
    total degree at most ``degree`` (``a`` ascending, then ``beta`` in
    lexicographic order), and ``boundary`` and ``integral`` have shape
    (monomials, N) with

        boundary = [<density, t^a x^beta>] from t = 0 to t = 1,
        integral = int_0^1 <density, a t^(a-1) x^beta + t^a v . grad x^beta> dt.

    All positions at the quadrature nodes and both end times are raised
    to the powers ``0..degree`` once; each monomial and each lowered
    monomial ``x^(beta - e_j)`` is then a product of ``d`` table entries,
    and the mass sums over particles run once per coordinate.
    """
    K, N, d = flow.targets.shape
    n_nodes = degree + 1
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    t_nodes = 0.5 * (nodes + 1.0)
    times = np.concatenate([t_nodes, [0.0, 1.0]])[:, None, None, None]
    positions = (1.0 - times) * flow.starts[:, None, :] + times * flow.targets

    # powers[j, e] = (coordinate j of every position) ** e, by repeated products
    powers = np.empty((d, degree + 1) + positions.shape[:-1])
    powers[:, 0] = 1.0
    coords = np.moveaxis(positions, -1, 0)
    for e in range(1, degree + 1):
        np.multiply(powers[:, e - 1], coords, out=powers[:, e])

    betas = np.array(
        [beta for beta in _cartesian(range(degree + 1), repeat=d) if sum(beta) <= degree],
        dtype=int,
    )
    monomials = powers[0][betas[:, 0]]
    for j in range(1, d):
        monomials = monomials * powers[j][betas[:, j]]
    # mass-weighted monomial sums, shape (B, nodes + 2, N)
    sums = np.einsum("bqkn,k->bqn", monomials, flow.masses)

    # advection sums  sum_j beta_j sum_k m_k v_kj y_k^(beta - e_j)  at the nodes
    mass_velocities = flow.masses[:, None, None] * flow.velocities
    advection = np.zeros((len(betas), n_nodes, N))
    for j in range(d):
        lowered = powers[j][np.maximum(betas[:, j] - 1, 0), :n_nodes]
        for l in range(d):
            if l != j:
                lowered = lowered * powers[l][betas[:, l], :n_nodes]
        advection += betas[:, j, None, None] * np.einsum(
            "bqkn,kn->bqn", lowered, mass_velocities[:, :, j]
        )

    # time weights: w_q t_q^a for the advection, w_q a t_q^(a-1) for the time derivative
    a = np.arange(degree + 1)
    t_weights = 0.5 * weights * t_nodes ** a[:, None]
    d_weights = np.zeros_like(t_weights)
    d_weights[1:] = a[1:, None] * t_weights[:-1]
    integral = np.einsum("aq,bqn->abn", d_weights, sums[:, :n_nodes]) + np.einsum(
        "aq,bqn->abn", t_weights, advection
    )
    boundary = np.broadcast_to(sums[:, n_nodes + 1], integral.shape).copy()
    boundary[0] -= sums[:, n_nodes]

    a_idx, b_idx = np.nonzero(a[:, None] + betas.sum(axis=1) <= degree)
    exponents = np.column_stack([a_idx, betas[b_idx]])
    return exponents, boundary[a_idx, b_idx], integral[a_idx, b_idx]


def continuity_residual(flow: ParticleFlow, i: int, degree: int = 4) -> float:
    """Weak-form continuity-equation defect of family ``i``.

    Tests the transport identity

        d/dt <density, test> = <density, dt test + velocity . grad test>

    against all monomial test functions ``t^a x^beta`` of total degree at
    most ``degree``.  The time integral uses ``degree + 1`` point
    Gauss-Legendre quadrature, which is exact here because every
    integrand is a polynomial in ``t`` of degree below ``2 (degree + 1)``;
    the returned maximum defect is therefore pure roundoff.
    """
    if not 0 <= i < flow.n_marginals:
        raise IndexOutOfRangeError(f"family index {i} outside 0..{flow.n_marginals - 1}")
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    _, boundary, integral = _weak_form(flow, degree)
    return float(np.abs(boundary[:, i] - integral[:, i]).max())


# ---------------------------------------------------------------------------
# frame export
# ---------------------------------------------------------------------------

def _write_frames(
    starts: np.ndarray,
    targets: np.ndarray,
    masses: np.ndarray,
    times: Sequence[float],
    path: str | Path,
) -> None:
    """CSV frames of straight-line particles, ``targets`` shape (K, F, d).

    Each frame's float columns are built as one array and turned into
    Python floats with ``tolist``, so every number is written by
    ``repr(float)``.
    """
    times = [_check_time(t) for t in times]
    K, F, d = targets.shape
    header = (
        "t,flow,particle,mass,"
        + ",".join(f"x_{j + 1}" for j in range(d))
        + ","
        + ",".join(f"v_{j + 1}" for j in range(d))
    )
    lines = [header]
    by_family = np.swapaxes(targets, 0, 1)  # (F, K, d)
    velocities = (by_family - starts).reshape(F * K, d)
    row_masses = np.tile(masses, F)
    labels = [f"{i + 1},{k + 1}," for i in range(F) for k in range(K)]
    for t in times:
        positions = ((1.0 - t) * starts + t * by_family).reshape(F * K, d)
        rows = np.column_stack([row_masses, positions, velocities]).tolist()
        lines += [f"{t!r},{label}" + ",".join(map(repr, row)) for label, row in zip(labels, rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def export_flow_frames(flow: ParticleFlow, times: Sequence[float], path: str | Path) -> None:
    """Write particle positions and velocities at the given times as CSV.

    Header is ``t,flow,particle,mass,x_1,...,x_d,v_1,...,v_d``; the
    ``flow`` column is the 1-based family index and ``particle`` the
    1-based tuple index.
    """
    _write_frames(flow.starts, flow.targets, flow.masses, times, path)


def export_coupling_frames(flow: ParticleFlow, times: Sequence[float], path: str | Path) -> None:
    """Write the frames of the coupling flow of ``flow`` as CSV.

    Same layout as :func:`export_flow_frames` with a single flow (column
    value 1) and ``N * d`` product coordinate and velocity columns.
    """
    starts, targets = _product_space(flow)
    _write_frames(starts, targets[:, None, :], flow.masses, times, path)
