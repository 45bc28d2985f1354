"""Bond turnover in isolation.

The age-structured population with constant on/off-rates relaxes to the
renewal equilibrium beta/(beta + zeta), whatever the starting distribution.
This script marches the density alone and compares against the closed-form
relaxation of the total population, then against the limit profile.
"""

import numpy as np

from linkages import init_density, limit_density, moment, step_density
from linkages.grids import AgeGrid, SpaceGrid

eps, da = 0.05, 0.01
beta, zeta = 1.0, 2.0
sg = SpaceGrid(nx=4)  # space is a spectator here
ag = AgeGrid(da=da, a_max=10.0)
dt = eps * da

rho = init_density(lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float)), sg, ag)
zeta_field = np.full((sg.n_nodes, ag.n_nodes), zeta)
beta_field = np.full(sg.n_nodes, beta)

mu0_start = float(moment(rho, ag, 0)[0])
mu_eq = beta / (beta + zeta)
print(f"starting population {mu0_start:.4f}, renewal equilibrium {mu_eq:.4f}")
print(f"{'t/eps':>8} {'mu0':>10} {'closed form':>12}")
for n in range(1, 401):
    rho = step_density(rho, zeta_field, beta_field, ag)
    if n % 50 == 0:
        t = n * dt
        mu0 = float(moment(rho, ag, 0)[0])
        exact = mu_eq + (mu0_start - mu_eq) * np.exp(-(beta + zeta) * t / eps)
        print(f"{t / eps:8.2f} {mu0:10.6f} {exact:12.6f}")

ld = limit_density(beta, np.full(ag.n_nodes, zeta), ag)
profile_gap = np.max(np.abs(rho[0] - ld.rho0))
print(f"\nfinal age profile vs limit profile: max gap {profile_gap:.2e}")
print(f"limit moments: mu00 = {float(ld.mu00):.6f} (exact 1/3), mu10 = {float(ld.mu10):.6f} (exact 1/6)")
