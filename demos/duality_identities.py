"""
Dual potentials and c-transforms
================================

Every transport value in this package ships with a certificate: dual
potentials whose pairing with the marginals reproduces the value and
whose direct sum never exceeds the cost. This script inspects those
certificates and the c-transform machinery behind them.
"""

import numpy as np

from baryflow import (
    c_transform,
    dual_feasibility_check,
    pairwise_cost_matrix,
    random_marginals,
    solve_mmot,
    solve_pairwise,
)

p = 2.0
mu, nu = random_marginals(seed=99, n_marginals=2, n_atoms=5, dim=2)

# Pairwise duality: psi(x) + phi(y) <= |x - y|^p everywhere, with
# equality exactly where the optimal plan puts mass.
res = solve_pairwise(mu, nu, p)
psi, phi = res.potentials
pairing = psi @ mu.weights + phi @ nu.weights
print("primal value:", res.value)
print("dual pairing:", pairing)
print("gap:         ", abs(res.value - pairing))

cost = pairwise_cost_matrix(mu.points, nu.points, p)
slack = cost - psi[:, None] - phi[None, :]
print("worst feasibility violation:", -slack.min())
support = res.plan.as_dense() > 1e-12
print("max slack on the plan support:", np.abs(slack[support]).max())
print()

# The c-transform turns one potential into the tightest partner the cost
# allows. Transforming twice can only push a potential up, and a
# potential that survives the double transform unchanged is c-concave.
raw = np.random.default_rng(5).normal(size=len(mu))
phi_c = c_transform(raw, mu.points, nu.points, p)
raw_cc = c_transform(phi_c, nu.points, mu.points, p)
print("double transform dominates: min(psi^cc - psi) =", (raw_cc - raw).min())
phi_c2 = c_transform(raw_cc, mu.points, nu.points, p)
print("and is then a fixed point:", np.abs(phi_c2 - phi_c).max())
print()

# The multi-marginal solver carries a dual vector per marginal; the
# certificate bounds every tuple cost in closed form at the meeting
# points the solve kept, from above by the objective there and from
# below by the conjugate (weak duality), and solves nothing again.
marginals = random_marginals(seed=100, n_marginals=3, n_atoms=4, dim=2)
mres = solve_mmot(marginals, p)
cert = dual_feasibility_check(mres)
print("multi-marginal value:", mres.value)
print("dual certificate: violation", f"{cert.max_violation:.3e},",
      "gap", f"{cert.duality_gap:.3e},",
      "support slack", f"{cert.support_slack:.3e}")
