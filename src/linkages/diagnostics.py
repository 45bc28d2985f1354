"""Measurable quantities with proven behaviour: energy, dissipation,
population functionals and convergence errors.

All functions are pure observers of solver state.  Space integrals use the
trapezoid rule (Dirichlet nodes carry half weight but vanishing integrands);
the energy's gradient term uses forward differences so that the discrete
integration by parts against the 3-point Laplacian is exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


@dataclass
class DiagnosticsRecord:
    t: float
    energy: float
    dissipation: float
    mu0_min: float
    mu0_max: float
    stability: float
    lyapunov: float
    p: float
    gamma2: float
    truncated: bool

    COLUMNS = (
        "t",
        "energy",
        "dissipation",
        "mu0_min",
        "mu0_max",
        "stability",
        "lyapunov",
        "p",
        "gamma2",
        "truncated",
    )

    def row(self):
        return (
            self.t,
            self.energy,
            self.dissipation,
            self.mu0_min,
            self.mu0_max,
            self.stability,
            self.lyapunov,
            self.p,
            self.gamma2,
            float(self.truncated),
        )


def energy(z, delayed_z, rho, eps, sgrid, agrid, source=None):
    """Energy of a position field against the stored history.

    0.5 * [ int |grad z|^2 + int int (z - z(t - eps a))^2 / eps rho da ] dx
    minus int S z dx when a load is present.  delayed_z[j] is the snapshot at
    delay eps*a_j (slot 0 = the current stored level, so evaluating at a
    perturbed z keeps the delay kernel fixed).
    """
    dx = sgrid.dx
    grad = np.diff(z) / dx
    e_grad = 0.5 * dx * float(grad @ grad)
    diff = z[None, :] - delayed_z
    wx = sgrid.quad_weights()
    delay_per_x = np.einsum("j,xj,jx->x", agrid.w, rho, diff**2)
    e_delay = 0.5 / eps * float(delay_per_x @ wx)
    e = e_grad + e_delay
    if source is not None:
        e -= float((np.asarray(source) * z) @ wx)
    return e


def energy_from_elongation(z, rho, u, eps, sgrid, agrid, source=None):
    """Energy evaluated from the stretch field: the delay term is eps*u^2."""
    dx = sgrid.dx
    grad = np.diff(z) / dx
    e = 0.5 * dx * float(grad @ grad)
    wx = sgrid.quad_weights()
    e += 0.5 * eps * float(((rho * u**2) @ agrid.w) @ wx)
    if source is not None:
        e -= float((np.asarray(source) * z) @ wx)
    return e


def dissipation(rho, u, zeta_values, sgrid, agrid):
    """int int zeta rho u^2 da dx (the energy's decay rate)."""
    per_x = (zeta_values * rho * u**2) @ agrid.w
    return float(per_x @ sgrid.quad_weights())


def lyapunov_H(f, agrid):
    """H[f](x) = |int f da| + int |f| da per space node; f has age last."""
    f = np.asarray(f, dtype=float)
    return np.abs(f @ agrid.w) + np.abs(f) @ agrid.w


def stability_functional(rho, u, sgrid, agrid):
    """int int rho |u| da dx, nonincreasing for the source-free dynamics."""
    per_x = (rho * np.abs(u)) @ agrid.w
    return float(per_x @ sgrid.quad_weights())


def rho_convergence_H(rho_eps, rho0_values, agrid):
    """Lyapunov functional of rho - rho0 per space node."""
    return lyapunov_H(rho_eps - rho0_values, agrid)


def convergence_error(traj_eps, traj_0, dt_out, sgrid):
    """Discrete L2 norm over the space-time cylinder of the difference.

    Both trajectories are arrays (n_times, n_nodes) on identical sample
    grids; trapezoid weights in both directions.
    """
    traj_eps = np.asarray(traj_eps, dtype=float)
    traj_0 = np.asarray(traj_0, dtype=float)
    if traj_eps.shape != traj_0.shape:
        raise GridMismatch(f"{traj_eps.shape} vs {traj_0.shape}")
    diff2 = (traj_eps - traj_0) ** 2
    wx = sgrid.quad_weights()
    wt = np.full(traj_eps.shape[0], dt_out)
    wt[0] = wt[-1] = 0.5 * dt_out
    return float(np.sqrt(wt @ (diff2 @ wx)))


def elongation_from_history(z, delayed_z, eps):
    """Stretch field (z(t) - z(t - eps a_j))/eps read off the ring buffer."""
    return (z[None, :] - delayed_z).T / eps
