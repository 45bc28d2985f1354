"""Position field driven by the delay (Volterra) operator.

The memory term L(z, rho)(x, t) = (1/eps) int (z(x,t) - z(x,t-eps*a)) rho da
balances the Laplacian (plus an optional load S).  Multiplying by eps and
moving the a=0 trapezoid weight of the unknown to the left gives one linear
solve per step,

    (mu0 - w0 rho(.,0) - eps Lap_h) z_new = sum_{j>=1} w_j rho_j z(t-eps a_j)
                                            + eps S,

with every delayed argument read straight from the ring buffer (dt = eps*da
aligns them with stored snapshots).  The solve is exactly the Euler-Lagrange
equation of the discrete energy, so z_new is its minimizer; energy decay and
the minimization property below are structural, not approximate.
"""

import numpy as np

from . import elliptic
from .errors import DegenerateOperator


class PositionHistory:
    """Ring buffer of the na+1 newest snapshots z(., t^m), newest first.

    Slot j holds z at delay eps*a_j exactly.  At start-up the slots j >= 1
    are prefilled from the past data z_p(., -eps*a_j), so early steps never
    need to evaluate z_p again.
    """

    def __init__(self, z0, past, eps, sgrid, agrid):
        depth = agrid.na + 1
        self._buf = np.empty((depth, sgrid.n_nodes))
        self._buf[0] = z0
        for j in range(1, depth):
            self._buf[j] = past(sgrid.x, -eps * agrid.a[j])
        self._head = 0
        self.depth = depth

    def matrix(self):
        """All snapshots as an array Z[j] = z(., t - eps*a_j)."""
        idx = (self._head + np.arange(self.depth)) % self.depth
        return self._buf[idx]

    def push(self, z_new):
        """Advance one level: the oldest snapshot drops off the buffer."""
        self._head = (self._head - 1) % self.depth
        self._buf[self._head] = z_new


def initial_position(rho_I, past, eps, sgrid, agrid, source_at_0=None):
    """Solve the t = 0 elliptic problem for the starting position.

    (mu0_I - w0 rho_I(.,0) - eps Lap_h) z = sum_{j>=1} w_j z_p(x, -eps*a_j)
    rho_I(x, a_j), plus eps*S(x, 0) in the source-carrying modes.  This is
    the t = 0 instance of the stepping solve: the age-zero node of the
    quadrature is anchored at the unknown itself (the value of z(t - eps*a)
    at the t = 0, a = 0 corner is a free convention; matching the stepping
    operator avoids a spurious first-step layer in the stability
    functional).
    """
    mu0 = rho_I @ agrid.w
    zp = np.empty((agrid.n_nodes, sgrid.n_nodes))
    for j in range(agrid.n_nodes):
        zp[j] = past(sgrid.x, -eps * agrid.a[j])
    rhs = np.einsum("j,xj,jx->x", agrid.w[1:], rho_I[:, 1:], zp[1:])[1:-1]
    if source_at_0 is not None:
        rhs = rhs + eps * np.asarray(source_at_0)[1:-1]
    coeff = mu0 - agrid.w[0] * rho_I[:, 0]
    if eps == 0.0 and np.all(coeff[1:-1] == 0.0):
        raise DegenerateOperator("mu0_I == 0 and eps == 0")
    op = elliptic.assemble(coeff[1:-1], eps, sgrid)
    return elliptic.solve(op, rhs)


def step_position(rho_next, hist, eps, sgrid, agrid, source=None):
    """Advance the position one step and push it into the history.

    rho_next is the density at the new level t^{n+1}; hist still ends at t^n,
    so the anchor of the age-j cohort, z(t^{n+1} - eps*a_j) = z^{n+1-j}, is
    buffer slot j-1.  That pairing is what makes the Volterra residual of the
    output vanish identically.  source, if given, is S(., t^{n+1}) on the
    full grid.
    """
    mu0 = rho_next @ agrid.w
    Z = hist.matrix()
    integral = np.einsum("j,xj,jx->x", agrid.w[1:], rho_next[:, 1:], Z[:-1])
    w0rho0 = agrid.w[0] * rho_next[:, 0]
    coeff = mu0 - w0rho0
    if np.min(coeff) < -1e-12:
        raise DegenerateOperator("mu0 - w0 rho(., 0) negative: kinetics bug")
    rhs = integral[1:-1]
    if source is not None:
        rhs = rhs + eps * np.asarray(source)[1:-1]
    op = elliptic.assemble(np.maximum(coeff[1:-1], 0.0), eps, sgrid)
    z_new = elliptic.solve(op, rhs)
    hist.push(z_new)
    return z_new


def volterra_residual(hist, rho, z, eps, sgrid, agrid, source=None):
    """L(z, rho) - Lap_h z - S on interior nodes.

    hist and rho must sit at the same time level as z (hist slot 0 == z when
    checking a step_position output).  Vanishes to solver tolerance for the
    computed position; used as the cross-check between the position and
    elongation formulations.
    """
    Z = hist.matrix()
    delayed = np.einsum("j,xj,jx->x", agrid.w, rho, z[None, :] - Z)
    res = delayed[1:-1] / eps - elliptic.laplacian(z, sgrid.dx)
    if source is not None:
        res = res - np.asarray(source)[1:-1]
    return res
