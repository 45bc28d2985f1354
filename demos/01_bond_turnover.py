"""Bond turnover in isolation.

The age-structured population with constant on/off-rates relaxes to the
renewal equilibrium beta/(beta + zeta), whatever the starting distribution.
This script marches the density alone, as a cohort ring whose head (that of
a position history of zeros) moves back one column per step, and compares against the closed-form relaxation
of the total population, then against the limit profile.
"""

import numpy as np

from linkages import init_density, limit_density, survival
from linkages.kinetics import CohortRing, renew
from linkages.position import PositionHistory
from linkages.grids import AgeGrid, SpaceGrid

eps, da = 0.05, 0.01
beta, zeta = 1.0, 2.0
sg = SpaceGrid(nx=4)  # space is a spectator here
ag = AgeGrid(da=da, a_max=10.0)
dt = eps * da

rho = init_density(lambda x, a: 0.5 * np.exp(-np.asarray(a, dtype=float)) * np.ones_like(np.asarray(x, dtype=float)), sg, ag)
surv = survival(np.full((sg.n_nodes, ag.n_nodes), zeta), ag)  # constant rate: one factor for every step
beta_field = np.full(sg.n_nodes, beta)
den = 1.0 + beta_field * ag.w[0]  # the renewal's denominator

mu0_start = float((rho @ ag.w)[0])
mu_eq = beta / (beta + zeta)
print(f"starting population {mu0_start:.4f}, renewal equilibrium {mu_eq:.4f}")
print(f"{'t/eps':>8} {'mu0':>10} {'closed form':>12}")
zeros = np.zeros(sg.n_nodes)
hist = PositionHistory(zeros, np.zeros_like(rho))  # column (hist.head + j) % (na+1) holds age j
ring = CohortRing(rho, surv, hist, ag)
for n in range(1, 401):
    m, _ = ring.sums()
    births, mu0_all = renew(beta_field, den, m, ag.w[0])
    ring.push(births, zeros)  # the history's push frees the oldest cohort's column for the newborns
    if n % 50 == 0:
        t = n * dt
        mu0 = float(mu0_all[0])
        exact = mu_eq + (mu0_start - mu_eq) * np.exp(-(beta + zeta) * t / eps)
        print(f"{t / eps:8.2f} {mu0:10.6f} {exact:12.6f}")

rho = ring.density()  # age order
ld = limit_density(beta, np.full(ag.n_nodes, zeta), ag)
profile_gap = np.max(np.abs(rho[0] - ld.rho0))
print(f"\nfinal age profile vs limit profile: max gap {profile_gap:.2e}")
print(f"limit moments: mu00 = {float(ld.mu00):.6f} (exact 1/3), mu10 = {float(ld.mu10):.6f} (exact 1/6)")
