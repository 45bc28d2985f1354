"""Independent references the tests check the solver against.

None of these is called by a run: the closed-form density along
characteristics (oracle_march), the discrete energy whose minimizer the
position solve is, the Volterra residual of a position, the population
balance of the coupled model, the age-ordered view of a position history
ring, the discrete Laplacian and the age moments.
"""

import numpy as np

from linkages.position import delay_quadrature


def laplacian(z, dx):
    """Standard 3-point discrete Laplacian on interior nodes."""
    return (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dx**2


def moment(rho, agrid, k):
    """Trapezoid moment mu_k(x) = int a^k rho(x, a) da, k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"moment order {k} not in {{0, 1, 2}}")
    return rho @ (agrid.w * agrid.a**k)


def oracle_march(n_steps, zeta, beta, rho_I, eps, sgrid, agrid, mu0_history=None):
    """The density along characteristics at level n_steps, and the mu0 history.

    For a < t/eps the bond was created at time t - eps*a:

        beta(x, t-eps*a) (1 - mu0(x, t-eps*a)) exp(-int_0^a zeta),

    otherwise it descends from the initial datum:

        rho_I(x, a - t/eps) exp(-(1/eps) int_0^t zeta along the characteristic).

    Per age slot the closed form is amplitude * exp(-I) with the amplitude
    fixed along its characteristic (initial datum or birth factor) and I the
    trapezoid of zeta along the characteristic, which lands on grid nodes
    thanks to dt = eps*da; I is accumulated panel by panel, level by level.

    With mu0_history given (mu0_history[m] holds mu0(x, t^m)), birth factors
    use it and the returned history is None; otherwise the history is built
    self-consistently from the formula's own quadrature (the w0 renewal
    self-reference solved algebraically, as in kinetics.renew).  Independent
    of the per-cell exponential marching whenever the rates vary along
    characteristics (trapezoid panels vs departure-cell rectangles).
    """
    x, w, da = sgrid.x, agrid.w, agrid.da
    X = x[:, None]
    A = np.asarray(rho_I(X, agrid.a[None, :]), dtype=float) * np.ones((sgrid.n_nodes, 1))
    E = np.zeros_like(A)
    vals = A.copy()
    mu = [vals @ w] if mu0_history is None else None
    zeta_now = np.asarray(zeta(X, agrid.a[None, :], 0.0), dtype=float) * np.ones_like(A)
    for m in range(1, n_steps + 1):
        t = m * eps * da
        zeta_next = np.asarray(zeta(X, agrid.a[None, :], t), dtype=float) * np.ones_like(A)
        E_new = np.empty_like(E)
        E_new[:, 1:] = E[:, :-1] + 0.5 * da * (zeta_now[:, :-1] + zeta_next[:, 1:])
        E_new[:, 0] = 0.0
        A_new = np.empty_like(A)
        A_new[:, 1:] = A[:, :-1]
        b = np.asarray(beta(x, t), dtype=float)
        if mu0_history is not None:
            mu_here = np.asarray(mu0_history[m], dtype=float)
        else:
            rest = (A_new[:, 1:] * np.exp(-E_new[:, 1:])) @ w[1:]
            mu_here = (w[0] * b + rest) / (1.0 + w[0] * b)
            mu.append(mu_here)
        A_new[:, 0] = b * (1.0 - mu_here)
        A, E, zeta_now = A_new, E_new, zeta_next
        vals = A * np.exp(-E)
    return vals, mu


def age_order(hist):
    """All snapshots of a PositionHistory in age order, Z[:, j] = z(., t - eps*a_j), as a new array."""
    return np.roll(hist.buf, -hist.head, axis=1)


def energy(z, delayed_z, rho, eps, sgrid, agrid, source=None):
    """Energy of a position field against the stored history.

    0.5 * [ int |grad z|^2 + int int (z - z(t - eps a))^2 / eps rho da ] dx
    minus int S z dx when a load is present.  delayed_z[:, j] is the snapshot
    at delay eps*a_j (column 0 = the current stored level, so evaluating at
    a perturbed z keeps the delay kernel fixed).  The gradient term uses
    forward differences, so the discrete integration by parts against the
    3-point Laplacian is exact.
    """
    dx = sgrid.dx
    grad = np.diff(z) / dx
    e_grad = 0.5 * dx * float(grad @ grad)
    diff = z[:, None] - delayed_z
    wx = sgrid.quad_weights()
    delay_per_x = delay_quadrature(agrid.w, rho, diff**2)
    e_delay = 0.5 / eps * float(delay_per_x @ wx)
    e = e_grad + e_delay
    if source is not None:
        e -= float((np.asarray(source) * z) @ wx)
    return e


def volterra_residual(Z, rho, z, eps, sgrid, agrid, source=None):
    """L(z, rho) - Lap_h z - S on interior nodes.

    Z (the snapshots in age order, see age_order) and rho (in age order)
    must sit at the same time level as z (Z[:, 0] == z when checking a
    stepped position).  Vanishes to solver tolerance for the computed
    position; used as the cross-check between the position and elongation
    formulations.
    """
    delayed = delay_quadrature(agrid.w, rho, z[:, None] - Z)
    res = delayed[1:-1] / eps - laplacian(z, sgrid.dx)
    if source is not None:
        res = res - np.asarray(source)[1:-1]
    return res


def mu_ode_residual(state_prev, state_next, source, beta_field, eps, sgrid, agrid):
    """Residual of the population balance for zeta(u) = 1 + |u|, u >= 0:

        eps (mu0_new - mu0_old)/dt + (beta+1) mu0_new + Lap_h z_new + S - beta

    per interior node; O(da + dt) along a smooth trajectory.
    """
    dt = eps * agrid.da
    mu_prev = state_prev.rho @ agrid.w
    mu_next = state_next.rho @ agrid.w
    lap = laplacian(state_next.z, sgrid.dx)
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
