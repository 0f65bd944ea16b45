"""End-to-end certification of the transport and flow identities.

A verification run solves one instance four ways and checks that every
route reports the same number:

* the multi-marginal transport value,
* the barycenter functional evaluated at the extracted barycenter,
* the action of the induced particle flow,
* the action of the induced coupling flow.

On top of the value chain it certifies the structural identities the
construction rests on: per-tuple barycenter stationarity, the balanced
velocity condition (and momentum balance when ``p = 2``), weak-form
continuity of every family, dual feasibility with zero gap, and
invariance of the whole problem under a common translation of the
marginals.  The outcome is a :class:`VerificationReport` with a fixed,
deterministic JSON serialization.

Only the first solve starts cold.  The translated re-solve first
computes the grid tuples whose costs the first solve computed (the basic
ones and those the LP rounds brought in), starting each Newton iteration
at that solve's meeting point plus the shift, and starts its simplex at
the first solve's final basis.  A tuple not settled by the first
pinned-point finish is solved again from its tuple mean, exactly as cold,
and so is any tuple a later round adds.  The functional's pairwise LPs
start from the multi-marginal plan projected onto (barycenter atom, atom
of mu_i), completed to a spanning tree.  A start changes only the path, so both
checks still certify their answers in full: every translated meeting
point meets the Newton tolerance at the translated points, and every LP
optimum is proven by pricing all tuples on a fresh basis inverse.  What
they no longer exercise is the cold path a second time: the translation
check no longer shows that Newton from the tuple means and the simplex
from the cold start (the axis staircase, or the glued pairwise plans on
grids of N >= 3 marginals in the plane with at least 32 basis rows)
reach the same answer on the shifted instance (tied optima now tend to
land on the first solve's vertex),
and the functional no longer shows that a pairwise LP from the
staircase reaches the multi-marginal value.

Both solves run Newton in the instance's frame (centred on the supports'
bounding box, divided by its longest side), and a shift moves only the
centre.  So in the frame the translated grid is the first one up to the
rounding of the centring, and the translation check mostly exercises the
frame itself: the centre, the size and the map back of meeting points
and costs.  It still catches a centre or map-back that does not follow
the shift, a barycenter that does not move with the marginals, and a
solve whose answer turns on rounding at the new position; it no longer
shows that Newton reaches the same answer from different coordinates.
The checks measure values against ``min(1 + |value|, size^p)``, so the
dual certificate, not the translation check, is what catches a wrong
optimum at small scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .flows import (
    ParticleFlow,
    _weak_form,
    build_particle_flow,
    coupling_flow_action,
    flow_action,
    momentum_balance_residual,
    velocity_balance_residual,
)
from .infconv import check_exponent
from .measures import DiscreteMeasure, canonicalize, validate_measure
from .transport import (
    MAX_GRID,
    _frame,
    dual_feasibility_check,
    extract_barycenter,
    solve_mmot,
    stationarity_residual,
    wb_value,
)

__all__ = [
    "CheckOutcome",
    "VerificationReport",
    "run_verification",
    "translation_vector",
    "random_marginals",
    "STATIONARITY_TOL",
    "VELOCITY_TOL",
    "MOMENTUM_TOL",
    "CONTINUITY_TOL",
    "DUAL_TOL",
    "TRANSLATION_TOL",
]

# Fixed tolerances of the named identity checks.  With size the longest
# side of the supports' bounding box, values (value chain, dual
# certificate, translated value) are measured against
# min(1 + |value|, size^p) and the translated barycenter's coordinates
# against min(1, size); continuity is evaluated on the flow mapped into
# the unit frame of that box.  Stationarity and velocity balance are
# normalized by their operations; momentum balance is absolute.
STATIONARITY_TOL = 1e-8
VELOCITY_TOL = 1e-8
MOMENTUM_TOL = 1e-9
CONTINUITY_TOL = 1e-10
DUAL_TOL = 1e-7
TRANSLATION_TOL = 1e-9

_VALUE_LABELS = (
    "mmot",
    "barycenter_functional",
    "flow_action",
    "coupling_flow_action",
)


@dataclass(frozen=True)
class CheckOutcome:
    """One certified inequality: residual, tolerance, verdict."""

    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "residual": self.residual,
            "tolerance": self.tolerance,
            "status": "pass" if self.passed else "fail",
        }


@dataclass(frozen=True)
class VerificationReport:
    """Values, pairwise differences, and identity checks of one instance."""

    p: float
    values: dict[str, float]
    checks: dict[str, CheckOutcome]

    @property
    def value_spread(self) -> float:
        vals = list(self.values.values())
        return max(vals) - min(vals)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failing(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]

    def to_dict(self) -> dict:
        differences = {}
        labels = list(self.values)
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                key = f"{labels[a]}_vs_{labels[b]}"
                differences[key] = abs(self.values[labels[a]] - self.values[labels[b]])
        return {
            "p": self.p,
            "values": {k: self.values[k] for k in _VALUE_LABELS},
            "value_differences": differences,
            "value_spread": self.value_spread,
            "checks": {name: c.to_dict() for name, c in self.checks.items()},
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def translation_vector(dim: int) -> np.ndarray:
    """The fixed test shift: alternating +1/-1, truncated to ``dim``."""
    return np.array([1.0 if j % 2 == 0 else -1.0 for j in range(dim)])


def run_verification(
    marginals: list[DiscreteMeasure] | tuple[DiscreteMeasure, ...],
    p: float = 2.0,
    *,
    value_tol: float = 1e-7,
    max_grid: int = MAX_GRID,
) -> VerificationReport:
    """Solve one instance along every route and certify the identities.

    ``value_tol`` bounds the spread of the four values over
    ``min(1 + |value|, size^p)``, where ``size`` is the longest side of
    the supports' bounding box; the structural checks use the
    module-level fixed tolerances, scaled as noted beside them.  The
    dual certificate reuses the solve's meeting points.
    The second solves, the pairwise LPs of the barycenter functional and
    the translation check's re-solve of the instance with all marginals
    shifted by :func:`translation_vector` (which compares both the value
    and the extracted barycenter), start from the first solve's answer;
    the module docstring says what that leaves each check certifying.
    """
    p = check_exponent(p)
    mus = tuple(marginals)
    for mu in mus:
        validate_measure(mu)

    result = solve_mmot(mus, p, max_grid=max_grid)
    barycenter = extract_barycenter(result)
    functional = wb_value(barycenter, mus, p, _plan=result)
    flow = build_particle_flow(result)
    action = flow_action(flow)
    caction = coupling_flow_action(flow)

    values = {
        "mmot": result.value,
        "barycenter_functional": functional,
        "flow_action": action,
        "coupling_flow_action": caction,
    }
    centre, size = _frame(mus)
    scale = min(1.0 + abs(result.value), float(np.power(size, p)))

    checks: dict[str, CheckOutcome] = {}
    spread = max(values.values()) - min(values.values())
    checks["value_chain"] = CheckOutcome(residual=spread / scale, tolerance=value_tol)
    checks["stationarity"] = CheckOutcome(
        residual=stationarity_residual(result), tolerance=STATIONARITY_TOL
    )
    checks["velocity_balance"] = CheckOutcome(
        residual=velocity_balance_residual(flow), tolerance=VELOCITY_TOL
    )
    if p == 2.0:
        checks["momentum_balance"] = CheckOutcome(
            residual=momentum_balance_residual(flow), tolerance=MOMENTUM_TOL
        )
    framed = ParticleFlow((flow.starts - centre) / size, (flow.targets - centre) / size, flow.masses, p)
    _, boundary, integral = _weak_form(framed, 4)
    checks["continuity"] = CheckOutcome(
        residual=float(np.abs(boundary - integral).max()), tolerance=CONTINUITY_TOL
    )
    certificate = dual_feasibility_check(result)
    dual_residual = max(
        max(certificate.max_violation, 0.0),
        certificate.duality_gap,
        certificate.support_slack,
    )
    checks["dual_certificate"] = CheckOutcome(residual=dual_residual / scale, tolerance=DUAL_TOL)

    shift = translation_vector(mus[0].dim)
    shifted = tuple(
        DiscreteMeasure(mu.points + shift, mu.weights) for mu in mus
    )
    shifted_result = solve_mmot(
        shifted, p, max_grid=max_grid, _start=(result.grid_barycenters + shift, result._basis, result._exact)
    )
    value_shift = abs(shifted_result.value - result.value) / scale
    moved = canonicalize(
        DiscreteMeasure(barycenter.points + shift, barycenter.weights)
    )
    shifted_barycenter = extract_barycenter(shifted_result)
    if len(moved) == len(shifted_barycenter):
        coord_error = float(
            np.abs(moved.points - shifted_barycenter.points).max(initial=0.0)
        ) / min(1.0, size)
        weight_error = float(
            np.abs(moved.weights - shifted_barycenter.weights).max(initial=0.0)
        )
    else:
        coord_error = float("inf")
        weight_error = float("inf")
    checks["translation_invariance"] = CheckOutcome(
        residual=max(value_shift, coord_error, weight_error),
        tolerance=TRANSLATION_TOL,
    )

    return VerificationReport(p=p, values=values, checks=checks)


def random_marginals(
    seed: int,
    n_marginals: int,
    n_atoms: int,
    dim: int,
    distribution: str = "uniform-box",
) -> list[DiscreteMeasure]:
    """Seeded random instance: uniform weights, pairwise distinct atoms.

    ``distribution`` is ``"uniform-box"`` (unit cube) or ``"gaussian"``
    (standard normal).  All randomness comes from one ``default_rng``
    seed, so instances are reproducible bit for bit.
    """
    if n_marginals < 2:
        raise ValueError(f"need at least two marginals, got {n_marginals}")
    if n_atoms < 1 or dim < 1:
        raise ValueError("n_atoms and dim must be positive")
    if distribution not in ("uniform-box", "gaussian"):
        raise ValueError(f"unknown distribution {distribution!r}")
    rng = np.random.default_rng(seed)
    weights = np.full(n_atoms, 1.0 / n_atoms)
    measures = []
    for _ in range(n_marginals):
        while True:
            if distribution == "uniform-box":
                points = rng.uniform(0.0, 1.0, size=(n_atoms, dim))
            else:
                points = rng.standard_normal(size=(n_atoms, dim))
            if n_atoms == 1:
                break
            diff = points[:, None, :] - points[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            if dist[np.triu_indices(n_atoms, k=1)].min() >= 1e-6:
                break
        measures.append(DiscreteMeasure(points, weights))
    return measures
