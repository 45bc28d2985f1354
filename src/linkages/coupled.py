"""Fully coupled dynamics: elongation transport, u-dependent off-rate,
velocity field and the position solve.

State per step: density rho, elongation u(x, a), position z with its
history ring buffer, and velocity g solving the elliptic balance

    (mu0 - eps Lap_h) g = int zeta(u) rho u da + eps dS/dt.

Sub-step order: elongation shift with the clamped old velocity, rates,
density, velocity, then the position.  z is advanced by the direct delay
solve (same kernel as the weakly coupled stepper) rather than by
integrating g: where the population dies the position equation degenerates
to the elliptic balance -Lap z = S, which the direct solve keeps enforcing
while the integrated form would freeze z at its last value.  g still feeds
the elongation transport, which preserves u >= 0 exactly whenever the
initial stretch and dS/dt are nonnegative (M-matrix maximum principle);
g and the difference quotient of z agree to first order and the match is
cross-checked in the tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import elliptic
from .diagnostics import stability_functional
from .errors import NonpositiveGamma1
from .kinetics import step_density
from .position import step_position

OMEGA = 0.5  # 1D sup-norm embedding constant ||g||_inf <= omega ||g'||_2 on (0,1)


@dataclass
class CoupledState:
    rho: np.ndarray  # density on the (x, a) grid
    u: np.ndarray  # stretch on the (x, a) grid; u(., 0) = 0 after stepping
    z: np.ndarray
    g: np.ndarray
    hist: object  # PositionHistory ending at the same level as z
    t: float
    truncation_k: float
    truncated: bool = False
    mu0: object = None  # zeroth moment of rho, filled in by the driver


def init_elongation(z0, past, eps, sgrid, agrid):
    """Initial stretch u_I(x, a_j) = (z0(x) - z_p(x, -eps*a_j)) / eps.

    The a = 0 cell is set to zero: the boundary condition u(., 0, t) = 0
    takes precedence over the sampled formula at the (t, a) = (0, 0) corner
    (newly formed bonds are unstretched), which also keeps the half-weight
    quadrature cell from injecting a spurious first-step layer.
    """
    vals = np.empty((sgrid.n_nodes, agrid.n_nodes))
    for j in range(1, agrid.n_nodes):
        vals[:, j] = (z0 - past(sgrid.x, -eps * agrid.a[j])) / eps
    vals[:, 0] = 0.0
    vals[0, :] = 0.0
    vals[-1, :] = 0.0
    return vals


def step_elongation(u, g, agrid):
    """Shift one age cell along the characteristics and add da*g.

    CFL-1 makes the shift exact; the age-zero row is the boundary condition
    u(., 0) = 0 and the Dirichlet rows stay zero.
    """
    new = np.empty_like(u)
    new[:, 1:] = u[:, :-1] + agrid.da * g[:, None]
    new[:, 0] = 0.0
    new[0, :] = 0.0
    new[-1, :] = 0.0
    return new


def solve_velocity(rho, u, zeta_u, dSdt, eps, sgrid, agrid):
    """Velocity from the elliptic balance (mu0 - eps Lap_h) g = rhs.

    rhs = int zeta(u) rho u da + eps * dS/dt per interior node, with zeta_u
    the off-rate evaluated on u; dSdt may be None for a time-constant load.
    """
    mu0 = rho @ agrid.w
    rhs_full = (zeta_u * rho * u) @ agrid.w
    rhs = rhs_full[1:-1]
    if dSdt is not None:
        rhs = rhs + eps * np.asarray(dSdt)[1:-1]
    op = elliptic.assemble(mu0[1:-1], eps, sgrid)
    return elliptic.solve(op, rhs)


def coupled_step(state, source, rate, eps, sgrid, agrid):
    """One step of the coupled system.

    The old velocity is clamped at +-truncation_k before the elongation
    shift; the returned state flags whether the new velocity exceeds the
    threshold (it never should once the threshold is above the Riccati
    bound).
    """
    dt = eps * agrid.da
    t_new = state.t + dt
    k = state.truncation_k
    g_used = np.clip(state.g, -k, k) if math.isfinite(k) else state.g
    u_new = step_elongation(state.u, g_used, agrid)
    zeta_u = rate.zeta_of_u(u_new)
    if rate.beta_kind == "threshold":
        beta_field = rate.beta_values(sgrid.x, state.t, z=state.z)
    else:
        beta_field = rate.beta_values(sgrid.x, t_new)
    rho_new = step_density(state.rho, zeta_u, beta_field, agrid, zeta_at="arrival")
    dSdt = source.ddt(sgrid.x, t_new) if source is not None else None
    g_new = solve_velocity(rho_new, u_new, zeta_u, dSdt, eps, sgrid, agrid)
    S_new = source(sgrid.x, t_new) if source is not None else None
    z_new = step_position(rho_new, state.hist, eps, sgrid, agrid, source=S_new)
    return CoupledState(
        rho=rho_new,
        u=u_new,
        z=z_new,
        g=g_new,
        hist=state.hist,
        t=t_new,
        truncation_k=k,
        truncated=bool(np.max(np.abs(g_new)) > k),
    )


def mu_ode_residual(state_prev, state_next, source, beta_field, eps, sgrid, agrid):
    """Residual of the population balance for zeta(u) = 1 + |u|, u >= 0:

        eps (mu0_new - mu0_old)/dt + (beta+1) mu0_new + Lap_h z_new + S - beta

    per interior node; O(da + dt) along a smooth trajectory.
    """
    dt = eps * agrid.da
    mu_prev = state_prev.rho @ agrid.w
    mu_next = state_next.rho @ agrid.w
    lap = elliptic.laplacian(state_next.z, sgrid.dx)
    S = (
        np.asarray(source(sgrid.x, state_next.t))[1:-1]
        if source is not None
        else np.zeros(sgrid.nx)
    )
    beta = np.asarray(beta_field)[1:-1]
    i = sgrid.interior
    return (
        eps * (mu_next[i] - mu_prev[i]) / dt
        + (beta + 1.0) * mu_next[i]
        + lap
        + S
        - beta
    )


def asymptotic_profile(beta_inf, S_inf, sgrid):
    """Large-time profile: mu_inf = beta/(beta+1), -Lap_h z_inf = S_inf."""
    beta_inf = np.broadcast_to(np.asarray(beta_inf, dtype=float), (sgrid.n_nodes,))
    mu_inf = beta_inf / (beta_inf + 1.0)
    op = elliptic.assemble(np.zeros(sgrid.nx), 1.0, sgrid)
    z_inf = elliptic.solve(op, np.asarray(S_inf)[1:-1])
    return mu_inf, z_inf


def riccati_gamma2(p0, gamma1, h, eps, omega=OMEGA):
    """Upper bound for p(t) = int int zeta(u)|u| rho dx da.

    The comparison equation eps p' + gamma1 p^2 <= h + omega p / eps keeps p
    below max(p0, (omega + sqrt(omega^2 + 4 h gamma1 eps^2)) / (2 eps gamma1)).
    """
    if gamma1 <= 0:
        raise NonpositiveGamma1(f"gamma1 = {gamma1:g}")
    root = (omega + math.sqrt(omega**2 + 4.0 * h * gamma1 * eps**2)) / (2.0 * eps * gamma1)
    return max(p0, root)


def riccati_bound(rho, u, rate, source, final_time, eps, sgrid, agrid):
    """Riccati data measured from the initial state: (gamma2, dS_norm).

    dS_norm is the largest L2 norm of dS/dt over five sample times in
    [0, final_time]; gamma2 bounds p(t) for the whole run.
    """
    q0 = stability_functional(rho, u, sgrid, agrid)
    p0 = riccati_p(rho, u, rate.zeta_of_u(u), sgrid, agrid)
    if source is not None:
        t_samples = np.linspace(0.0, final_time, 5)
        wx = sgrid.quad_weights()
        dS_norm = max(
            float(np.sqrt((source.ddt(sgrid.x, t) ** 2) @ wx)) for t in t_samples
        )
    else:
        dS_norm = 0.0
    if q0 > 0.0:
        gamma1 = 1.0 / q0
        h = OMEGA * dS_norm * (2.0 * rate.zeta_lip * q0 + rate.zeta_at_zero)
        return riccati_gamma2(p0, gamma1, h, eps), dS_norm
    return max(p0, OMEGA * dS_norm), dS_norm


def riccati_p(rho, u, zeta_u, sgrid, agrid):
    """Monitored quantity p = int int zeta(u) |u| rho dx da (trapezoid); zeta_u is zeta on u."""
    per_x = (zeta_u * np.abs(u) * rho) @ agrid.w
    return float(per_x @ sgrid.quad_weights())
