"""
Four problems, one number
=========================

The multi-marginal transport value, the barycenter functional at its
minimizer, the action of the induced particle flow, and the action of
the induced coupling flow all agree. This script computes each route
separately and prints the spread, then runs the bundled verification
driver that certifies the full identity chain.
"""

from baryflow import (
    build_particle_flow,
    coupling_flow_action,
    extract_barycenter,
    flow_action,
    random_marginals,
    run_verification,
    solve_mmot,
    wb_value,
)

p = 1.5
marginals = random_marginals(seed=2024, n_marginals=3, n_atoms=4, dim=2)

# Route 1: the multi-marginal linear program.
result = solve_mmot(marginals, p)
v_mmot = result.value

# Route 2: extract the barycenter and re-evaluate it pairwise. This uses
# three separate two-marginal solves, none of which saw the joint plan.
bary = extract_barycenter(result)
v_func = wb_value(bary, marginals, p)

# Route 3: turn the plan into straight-line particles (every tuple
# spawns one particle per marginal, all starting at the tuple's meeting
# point) and integrate their kinetic cost.
flow = build_particle_flow(result)
v_flow = flow_action(flow)

# Route 4: read each particle tuple of the same flow as a single particle
# in the product space, with the infimal-convolution cost on its velocity.
v_cflow = coupling_flow_action(flow)

values = {
    "multi-marginal LP": v_mmot,
    "barycenter functional": v_func,
    "particle flow action": v_flow,
    "coupling flow action": v_cflow,
}
print(f"p = {p}, {len(marginals)} marginals, {len(marginals[0])} atoms each")
for name, val in values.items():
    print(f"  {name:24s} {val:.15f}")
spread = max(values.values()) - min(values.values())
print(f"  spread: {spread:.3e}")
print()

# The verification driver runs the same chain plus the structural
# identities behind it: stationarity of every meeting point, balanced
# velocities, the weak continuity equation, dual certificates, and
# translation invariance.
report = run_verification(marginals, p)
print("verification report:")
for name, check in report.checks.items():
    out = check.to_dict()
    print(f"  {name:24s} residual {out['residual']:.3e}  tol {out['tolerance']:.0e}  {out['status']}")
print("passed:", report.passed)
print()

# The same certificate at other exponents.
for p_other in (2.0, 3.0):
    rep = run_verification(marginals, p_other)
    print(f"p = {p_other}: spread {rep.value_spread:.3e}, passed = {rep.passed}")
