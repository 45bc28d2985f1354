"""Independent references the tests check the solver against.

None of these is called by a run: the closed-form density along
characteristics (oracle_march), the discrete energy whose minimizer the
position solve is and the weak step's energy identity, the Volterra
residual of a position, the population balance of the coupled model, the
age-ordered view of a position history ring, the discrete Laplacian and
the age moments.
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
    e_grad, e_delay, e_load, _ = energy_parts(z, delayed_z, rho, eps, sgrid, agrid, source)
    e = e_grad + e_delay
    if source is not None:
        e -= e_load
    return e


def energy_parts(z, delayed_z, rho, eps, sgrid, agrid, source=None):
    """The gradient and delay parts of energy, int S z and int |S z| (both 0 without a load)."""
    dx = sgrid.dx
    grad = np.diff(z) / dx
    e_grad = 0.5 * dx * float(grad @ grad)
    diff = z[:, None] - delayed_z
    wx = sgrid.quad_weights()
    delay_per_x = delay_quadrature(agrid.w, rho, diff**2)
    e_delay = 0.5 / eps * float(delay_per_x @ wx)
    if source is None:
        return e_grad, e_delay, 0.0, 0.0
    sz = np.asarray(source) * z
    return e_grad, e_delay, float(sz @ wx), float(np.abs(sz) @ wx)


def energy_balance(before, after, surv, eps, sgrid, agrid):
    """Both sides of the weak step's energy identity and the round-off bound on their gap.

    before and after are (z, Z, rho, S) at levels n and n+1 of a weak run:
    the position, the history in age order (age_order), the density in age
    order and the load, or None.  surv[:, k] is the survival factor of age
    k over the step (kinetics.survival of the off-rate at level n).  The
    position solve minimizes a quadratic in z^{n+1} whose Hessian is
    H = dx (m/eps - Lap_h), m = sum_{j>=1} w_j rho_j^{n+1} the renewal mass
    of level n+1, and at z^n that quadratic is E^n less the dissipation
    plus the change of load.  So, with delta = z^{n+1} - z^n and w_{na+1} = 0,

        E^{n+1} = E^n - Diss^n - (1/2) delta^T H delta + int (S^n - S^{n+1}) z^n dx,
        Diss^n = (1/(2 eps)) int sum_{k=1}^{na} (w_k - w_{k+1} s_k) rho_k^n (z^n - z^{n-k})^2 dx.

    Returns (lhs, rhs, load term, bound).  The bound is set by round-off
    alone: each part is a sum of products, and a recursively summed sum of
    N terms is off by at most about N machine epsilons times the sum of
    their absolute values.  The longest chain is an age sum (na+1 terms)
    inside a space sum (nx+2 terms); 16 more epsilons cover the products,
    the few sums of parts and the backward error of the tridiagonal solve.
    So bound = (na + nx + 16) eps_mach * scale, scale the sum of the
    absolute values of every part's summands.
    """
    (z0, Z0, rho0, S0), (z1, Z1, rho1, S1) = before, after
    w, wx = agrid.w, sgrid.quad_weights()
    grad0, delay0, load0, load0_abs = energy_parts(z0, Z0, rho0, eps, sgrid, agrid, S0)
    grad1, delay1, load1, load1_abs = energy_parts(z1, Z1, rho1, eps, sgrid, agrid, S1)
    coef = np.zeros_like(rho0)  # w_k - w_{k+1} s_k at age k >= 1
    coef[:, 1:-1] = w[1:-1] - w[2:] * surv[:, 1:]
    coef[:, -1] = w[-1]
    lanes = coef * rho0 * (z0[:, None] - Z0) ** 2
    diss = 0.5 / eps * float(lanes.sum(axis=1) @ wx)
    diss_abs = 0.5 / eps * float(np.abs(lanes).sum(axis=1) @ wx)
    delta = z1 - z0
    m = rho1[:, 1:] @ w[1:]
    gap = 0.5 * (float((m * delta**2) @ wx) / eps + float(np.diff(delta) @ np.diff(delta)) / sgrid.dx)
    load, load_abs = 0.0, 0.0
    if S0 is not None:
        dS = (np.asarray(S0) - np.asarray(S1)) * z0
        load, load_abs = float(dS @ wx), float(np.abs(dS) @ wx)
    lhs = grad1 + delay1 - load1
    rhs = grad0 + delay0 - load0 - diss - gap + load
    scale = grad1 + delay1 + load1_abs + grad0 + delay0 + load0_abs + diss_abs + abs(gap) + load_abs
    bound = (rho0.shape[1] - 1 + sgrid.nx + 16) * np.finfo(float).eps * scale
    return lhs, rhs, load, bound


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
