"""Benchmark-owned inputs and correctness gates.

Every instance comes from the benchmark's own ``numpy.random.default_rng``
seeded by ``--seed``, never from the package's generators, so a change to
``random_marginals`` or ``baryflow generate`` cannot change a workload.

A workload is a fixed, ordered instance list.  Its length is derived from
the run length and the op time measured on the seed code (``NOMINAL_OP_S``),
so every run of one seed times exactly the same instances, whatever the
speed of the program under test.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Plan masses must reproduce the input weights to this absolute tolerance.
MARGINAL_TOL = 1e-8
# Dual certificate residual bound, relative to 1 + |value|.
DUAL_TOL = 1e-7
# A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10

RANDOM_SPECS = {
    "plane_solve": dict(n_marginals=3, n_atoms=18, dim=2, p=1.5),
    "line_cli_verify": dict(n_marginals=3, n_atoms=12, dim=1, p=2.0),
}
WIDE_SHAPES = ((3, 8), (4, 6))
WIDE_PS = (1.2, 1.5, 2.0, 3.0)
WIDE_SCALES = (1e-3, 1.0, 1e3)

# A tied p=2 instance on the 3x3 integer lattice: several optimal vertices
# exist, so the translated re-solve may land on a different barycenter.
LATTICE_POINTS = (
    ((1, 0), (0, 0), (0, 1), (2, 0)),
    ((1, 1), (0, 0), (2, 1), (1, 2)),
    ((0, 0), (0, 1), (2, 2), (2, 0)),
)
LATTICE_P = 2.0

# Wall time per op, gate included, of each workload at the seed code on a
# 2-core x86 host.
NOMINAL_OP_S = {"plane_solve": 0.31, "wide_verify": 0.165, "line_cli_verify": 1.0}
WORKLOADS = tuple(NOMINAL_OP_S)


@dataclass(frozen=True)
class Instance:
    """Raw marginals (points, weights) and the cost exponent of one op."""

    points: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    p: float


def _random_instance(rng: np.random.Generator, n_marginals: int, n_atoms: int, dim: int,
                     p: float, scale: float = 1.0) -> Instance:
    points = tuple(scale * rng.uniform(0.0, 1.0, size=(n_atoms, dim)) for _ in range(n_marginals))
    weights = tuple(rng.dirichlet(np.ones(n_atoms)) for _ in range(n_marginals))
    return Instance(points, weights, float(p))


def _lattice_instance() -> Instance:
    points = tuple(np.array(pts, dtype=float) for pts in LATTICE_POINTS)
    weights = tuple(np.full(len(pts), 1.0 / len(pts)) for pts in LATTICE_POINTS)
    return Instance(points, weights, LATTICE_P)


def list_length(workload: str, seconds: float) -> int:
    """Number of ops in one pass: about ``seconds`` of work at the seed code."""
    ops = max(1, round(seconds / NOMINAL_OP_S[workload]))
    if workload == "wide_verify":
        block = 2 * (len(WIDE_PS) * len(WIDE_SCALES) + 1)
        return block * max(1, round(ops / block))
    return ops


def make_instances(workload: str, seed: int, seconds: float) -> list[Instance]:
    """The fixed instance list of one workload for one seed."""
    rng = np.random.default_rng(seed)
    length = list_length(workload, seconds)
    if workload in RANDOM_SPECS:
        return [_random_instance(rng, **RANDOM_SPECS[workload]) for _ in range(length)]
    if workload != "wide_verify":
        raise ValueError(f"unknown workload {workload!r}")
    # One cycle is every (p, scale) pairing plus the lattice instance.  The
    # shape alternates per op and its phase flips every cycle, so two
    # consecutive cycles run each pairing on both shapes.
    out: list[Instance] = []
    pairings = list(itertools.product(WIDE_PS, WIDE_SCALES))
    for cycle in range(length // (len(pairings) + 1)):
        for k, (p, scale) in enumerate(pairings):
            n_marginals, n_atoms = WIDE_SHAPES[(cycle + k) % 2]
            out.append(_random_instance(rng, n_marginals, n_atoms, 2, p, scale))
        out.append(_lattice_instance())
    return out


def to_measures(inst: Instance) -> list:
    # Imported here: run.py loads this module without the package on its path.
    from baryflow import DiscreteMeasure

    return [DiscreteMeasure(pts, w) for pts, w in zip(inst.points, inst.weights)]


def write_instance(inst: Instance, directory: Path, stem: str) -> list[str]:
    """Write each marginal as a measure JSON file; return the paths."""
    paths = []
    for k, (pts, w) in enumerate(zip(inst.points, inst.weights)):
        path = directory / f"{stem}_m{k + 1}.json"
        path.write_text(json.dumps({"points": pts.tolist(), "weights": w.tolist()}))
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# correctness gates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    """``failure`` names the failing check (None: certified); ``wrong`` marks
    an answer the program returned as a success although it is not one."""

    failure: str | None = None
    wrong: bool = False


def gate_solve(inst: Instance, result, dual_feasibility_check) -> Verdict:
    """Plan marginals against the input weights, then the dual certificate."""
    idx = np.asarray(result.plan.indices)
    masses = np.asarray(result.plan.masses, dtype=float)
    if not np.isfinite(masses).all() or (masses < -MARGINAL_TOL).any():
        return Verdict("marginals", wrong=True)
    for k, w in enumerate(inst.weights):
        got = np.bincount(idx[:, k], weights=masses, minlength=len(w))
        if len(got) != len(w) or np.abs(got - w).max() > MARGINAL_TOL:
            return Verdict("marginals", wrong=True)
    cert = dual_feasibility_check(result)
    residual = max(max(cert.max_violation, 0.0), cert.duality_gap, cert.support_slack)
    if not residual <= DUAL_TOL * (1.0 + abs(result.value)):
        return Verdict("dual_certificate", wrong=True)
    return Verdict()


def gate_report(report) -> Verdict:
    """A verification report certifies the op exactly when it passed."""
    if report.passed:
        return Verdict()
    return Verdict(",".join(report.failing()))


def gate_cli(returncode: int, stdout: str) -> Verdict:
    """``baryflow verify``: exit 0 together with ``"passed": true``."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        return Verdict(f"exit_{returncode}", wrong=returncode == 0)
    passed = payload.get("passed") is True
    if returncode == 0 and passed:
        return Verdict()
    if returncode == 0 or passed:
        return Verdict("exit_code_disagrees_with_report", wrong=True)
    failing = [name for name, c in payload.get("checks", {}).items() if c.get("status") != "pass"]
    return Verdict(",".join(failing) or f"exit_{returncode}")


def tail_quantile(length: int) -> float:
    """The percentile reported as ``op_s.p75``: 0.75, or lower when one pass
    of ``length`` ops leaves fewer than ``TAIL_SAMPLES`` samples beyond it."""
    return max(0.5, min(0.75, (length - TAIL_SAMPLES) / length))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
