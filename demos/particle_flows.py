"""
Particle flows and displacement interpolation
=============================================

The optimal plan is not just a number: it induces straight-line particle
trajectories that interpolate the barycenter to each marginal at
constant speed. This script watches the atoms move, checks the geodesic
property along the way, and (if matplotlib is importable) saves a
picture of the trajectories. Files go to a fresh temporary directory,
whose path is printed.
"""

import tempfile
from pathlib import Path

import numpy as np

from baryflow import (
    build_particle_flow,
    coupling_snapshot,
    export_flow_frames,
    random_marginals,
    snapshot,
    solve_mmot,
    solve_pairwise,
)

p = 2.0
marginals = random_marginals(seed=7, n_marginals=3, n_atoms=3, dim=2)
result = solve_mmot(marginals, p)
flow = build_particle_flow(result)

print(f"{len(flow)} particle tuples, {flow.n_marginals} families, dimension {flow.dim}")
print()

# At t = 0 every family shows the barycenter; at t = 1 family i shows
# marginal i. In between, mass moves along straight lines.
start = snapshot(flow, 0, 0.0)
print("barycenter support:", np.round(start.points, 3).tolist())
for t in (0.0, 0.5, 1.0):
    snap = snapshot(flow, 0, t)
    print(f"family 1 at t={t}: {len(snap)} atoms, first at {np.round(snap.points[0], 3).tolist()}")
print()

# Geodesic check: the distance between two snapshots scales linearly in
# the elapsed time, with slope the full barycenter-to-marginal distance.
for i in range(flow.n_marginals):
    full = solve_pairwise(start, snapshot(flow, i, 1.0), p).value ** (1.0 / p)
    half = solve_pairwise(snapshot(flow, i, 0.25), snapshot(flow, i, 0.75), p).value ** (1.0 / p)
    print(f"family {i + 1}: W_p(start, end) = {full:.6f}, "
          f"W_p(t=0.25, t=0.75) = {half:.6f}, ratio {half / full:.6f} (expect 0.5)")
print()

# Read in the product space, the same flow is a flow of couplings: at
# t = 0 its atoms sit on the diagonal (all factors equal), at t = 1 they
# form a coupling of the marginals.
diag = coupling_snapshot(flow, 0.0)
blocks = diag.points[0].reshape(flow.n_marginals, flow.dim)
print("coupling flow at t=0, first atom factors:", np.round(blocks, 3).tolist())
print("all factors equal:", np.allclose(blocks, blocks[0]))
print()

# Frames go to CSV for external tooling.
out = Path(tempfile.mkdtemp(prefix="baryflow_demo_"))
times = [k / 4 for k in range(5)]
export_flow_frames(flow, times, out / "flow_frames.csv")
print("wrote", out / "flow_frames.csv", "with", len(times), "frames")

# Optional picture: trajectories of every family.
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available, skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 6))
    colors = ["tab:blue", "tab:orange", "tab:green", "tab:red"]
    ts = np.linspace(0.0, 1.0, 20)
    for i in range(flow.n_marginals):
        for k in range(len(flow)):
            seg = np.outer(1.0 - ts, flow.starts[k]) + np.outer(ts, flow.targets[k, i])
            ax.plot(seg[:, 0], seg[:, 1], color=colors[i % len(colors)], alpha=0.4, lw=1)
        pts = marginals[i].points
        ax.scatter(pts[:, 0], pts[:, 1], color=colors[i % len(colors)], s=60,
                   label=f"marginal {i + 1}")
    ax.scatter(flow.starts[:, 0], flow.starts[:, 1], color="black", marker="*",
               s=120, label="barycenter", zorder=5)
    ax.legend()
    ax.set_title("particle trajectories: barycenter to each marginal")
    fig.savefig(out / "particle_flows.png", dpi=150, bbox_inches="tight")
    print("wrote", out / "particle_flows.png")
