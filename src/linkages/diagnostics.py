"""Measurable quantities with proven behaviour: energy, dissipation,
population functionals, the Riccati monitor and convergence errors, and
record, which builds every diagnostics row from them.

All functions are pure observers of solver state.  Those that take the
age weights w read them in the layout of the fields' age axis: agrid.w for
age-ordered fields, the weights rolled by the ring's head for the coupled
step's cohort rings.  Space integrals use the trapezoid rule (Dirichlet nodes carry half weight but vanishing integrands);
the energy's gradient term uses forward differences so that the discrete
integration by parts against the 3-point Laplacian is exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch
from .position import delay_quadrature


@dataclass
class DiagnosticsRecord:
    """One diagnostics CSV row; the fields, in this order, are its columns."""

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
    delay_per_x = delay_quadrature(agrid.w, rho, diff**2)
    e_delay = 0.5 / eps * float(delay_per_x @ wx)
    e = e_grad + e_delay
    if source is not None:
        e -= float((np.asarray(source) * z) @ wx)
    return e


def energy_from_elongation(z, rho, u, eps, sgrid, w, source=None):
    """Energy evaluated from the stretch field: the delay term is eps*u^2."""
    dx = sgrid.dx
    grad = np.diff(z) / dx
    e = 0.5 * dx * float(grad @ grad)
    wx = sgrid.quad_weights()
    e += 0.5 * eps * float(((rho * u**2) @ w) @ wx)
    if source is not None:
        e -= float((np.asarray(source) * z) @ wx)
    return e


def dissipation(rho, u, zeta_values, sgrid, w):
    """int int zeta rho u^2 da dx (the energy's decay rate)."""
    per_x = (zeta_values * rho * u**2) @ w
    return float(per_x @ sgrid.quad_weights())


def lyapunov_H(f, w):
    """H[f](x) = |int f da| + int |f| da per space node; f has age last."""
    f = np.asarray(f, dtype=float)
    return np.abs(f @ w) + np.abs(f) @ w


def stability_functional(rho, u, sgrid, w):
    """int int rho |u| da dx, nonincreasing for the source-free dynamics."""
    per_x = (rho * np.abs(u)) @ w
    return float(per_x @ sgrid.quad_weights())


def riccati_p(rho, u, zeta_u, sgrid, w):
    """Monitored quantity p = int int zeta(u) |u| rho dx da (trapezoid); zeta_u is zeta on u."""
    per_x = (zeta_u * np.abs(u) * rho) @ w
    return float(per_x @ sgrid.quad_weights())


def record(t, z, rho, u, zeta_u, source, eps, sgrid, w, *, mu0_min, mu0_max, lyapunov, gamma2, truncated):
    """The diagnostics row of one level.

    rho, u (the stretch) and zeta_u (the off-rate on u) share one layout
    of the age axis, the one of w; source is the load at t or None.  Energy, dissipation, stability and p
    are computed here; the caller gives the columns its model defines.
    """
    return DiagnosticsRecord(
        t=t,
        energy=energy_from_elongation(z, rho, u, eps, sgrid, w, source=source),
        dissipation=dissipation(rho, u, zeta_u, sgrid, w),
        mu0_min=mu0_min,
        mu0_max=mu0_max,
        stability=stability_functional(rho, u, sgrid, w),
        lyapunov=lyapunov,
        p=riccati_p(rho, u, zeta_u, sgrid, w),
        gamma2=gamma2,
        truncated=truncated,
    )


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
