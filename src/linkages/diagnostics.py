"""Measurable quantities with proven behaviour: energy, dissipation,
population functionals, the Riccati monitor and convergence errors, and
record, which builds every diagnostics row.

These functions observe solver state and never change it.  Those that take
the age weights w read them in the layout of the fields' age axis: agrid.w
for age-ordered fields, the weights rolled by the ring's head for the
coupled step's cohort rings.  Space integrals use the trapezoid rule
(Dirichlet nodes carry half weight but vanishing integrands); the energy's
gradient term uses forward differences so that the discrete integration by
parts against the 3-point Laplacian is exact.  A record forms the energy
from the stretch; its form against the history is a test reference.

A record makes one pass over the age fields: each product is formed once,
in one of two work buffers that its run allocates once and owns, and reused
by every integral that needs it.  No record allocates a field.  A run that
reads only the Riccati monitor p forms no record: coupled.riccati_p forms
p alone with the lanes and sums of stretch_integrals; a quiet state's is 0.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch


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


def stretch_integrals(rho, u, zeta_u, sgrid, w, work):
    """int int da dx of rho |u| (stability), zeta rho |u| (p), rho u^2 (the
    energy's delay term over eps) and zeta rho u^2 (dissipation), in this order.

    zeta_u is the off-rate on u.  Each product is formed once, in place in
    one of the two work buffers, and extended by zeta for the next integral.
    """
    a, b = work
    wx = sgrid.quad_weights()
    np.abs(u, out=b)
    b *= rho
    stability = float((b @ w) @ wx)
    b *= zeta_u
    p = float((b @ w) @ wx)
    np.multiply(u, u, out=a)
    a *= rho
    elastic = float((a @ w) @ wx)
    a *= zeta_u
    return stability, p, elastic, float((a @ w) @ wx)


def lyapunov_H(f, w, out=None):
    """H[f](x) = |int f da| + int |f| da per space node; f has age last.

    |f| is formed in out if given; out may be f, whose signed sum is taken first.
    """
    f = np.asarray(f, dtype=float)
    return np.abs(f @ w) + np.abs(f, out=out) @ w


def record(t, z, rho, u, zeta_u, source, eps, sgrid, w, work, *, rho0=None, mu0_min, mu0_max, gamma2, truncated):
    """The diagnostics row of one level, formed on the two work buffers.

    rho, u (the stretch) and zeta_u (the off-rate on u) share one layout
    of the age axis, the one of w; source is the load at t or None.  The
    Lyapunov column sums lyapunov_H of rho - rho0 (of rho if rho0 is None);
    the caller gives the columns its model defines.
    """
    stability, p, elastic, dissipation = stretch_integrals(rho, u, zeta_u, sgrid, w, work)
    wx = sgrid.quad_weights()
    grad = np.diff(z) / sgrid.dx
    e = 0.5 * sgrid.dx * float(grad @ grad)
    e += 0.5 * eps * elastic
    if source is not None:
        e -= float((np.asarray(source) * z) @ wx)
    f = rho if rho0 is None else np.subtract(rho, rho0, out=work[0])
    lyapunov = float(lyapunov_H(f, w, out=work[0]) @ wx)
    return DiagnosticsRecord(t, e, dissipation, mu0_min, mu0_max, stability, lyapunov, p, gamma2, truncated)


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


def elongation_from_history(z, hist, eps, out):
    """Stretch field (z(t) - z(t - eps a_j))/eps in age order, written into
    out (nodes, ages) straight from the two slices of the history's ring."""
    k = hist.depth - hist.head  # delays j < k are the columns head + j
    np.subtract(z[:, None], hist.buf[:, hist.head :], out=out[:, :k])
    np.subtract(z[:, None], hist.buf[:, : hist.head], out=out[:, k:])
    out /= eps
    return out
