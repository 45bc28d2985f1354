"""Position field driven by the delay (Volterra) operator.

The memory term L(z, rho)(x, t) = (1/eps) int (z(x,t) - z(x,t-eps*a)) rho da
balances the Laplacian (plus an optional load S).  Multiplying by eps and
moving the a=0 trapezoid weight of the unknown to the left gives one linear
solve per step,

    (mu0 - w0 rho(.,0) - eps Lap_h) z_new = sum_{j>=1} w_j rho_j z(t-eps a_j)
                                            + eps S,

with every delayed argument read straight from the (nx+2, na+1) ring buffer
(dt = eps*da aligns them with stored snapshots).  The solve is exactly the Euler-Lagrange
equation of the discrete energy, so z_new is its minimizer; energy decay and
the minimization property are structural, not approximate.  The energy and
the Volterra residual the tests check them with are in tests/oracles.py.

A run samples the past data once (sample_past); the t = 0 solve reads the
sample and the history ring takes it over.  The balance
(coeff - eps Lap_h) x = integral + eps f, the one elliptic balance of the
model, is the run's elliptic.Operator (config.Inputs.balance): for the
start-up position, every step's position (kinetics.advance solves it on the
quadrature of its ring, then the ring's push pushes z_new onto the history)
and the coupled velocity.  Every term is on the full grid, eps f as
config.Inputs forms it once for a load that ignores t.  A cohort ring is
read against buf in place (before the push the cohort of age j >= 1 shares
its column with its anchor z^{n+1-j}).
"""

import numpy as np


class PositionHistory:
    """Ring buffer of the na+1 newest snapshots z(., t^m), newest first.

    buf has the (nx+2, na+1) layout of every age field: column
    (head + j) % depth holds z at delay eps*a_j exactly.  It takes over zp
    (sample_past) and writes z0 into column 0; the columns j >= 1 keep
    z_p(., -eps*a_j), so early steps never need to evaluate z_p again.
    """

    def __init__(self, z0, zp):
        self.buf, self.head, self.depth = zp, 0, zp.shape[1]
        self.buf[:, 0] = z0

    def push(self, z_new):
        """Advance one level: z_new takes the column of the oldest snapshot."""
        self.head = (self.head - 1) % self.depth
        self.buf[:, self.head] = z_new


def sample_past(past, eps, sgrid, agrid):
    """The past data z_p(x, -eps*a_j) on the (nx+2, na+1) grid, in one call of past."""
    vals = past(sgrid.x[:, None], -eps * agrid.a[None, :])
    return np.broadcast_to(vals, (sgrid.n_nodes, agrid.n_nodes)).copy()


def delay_quadrature(w, rho, Z):
    """Age quadrature sum_j w_j rho[x, j] Z[x, j]; rho and Z share the layout of w."""
    return np.einsum("j,xj,xj->x", w, rho, Z)


def initial_position(rho_I, zp, op, agrid, S0=None):
    """Solve the t = 0 elliptic problem for the starting position on op, the run's elliptic.Operator.

    (mu0_I - w0 rho_I(.,0) - eps Lap_h) z = sum_{j>=1} w_j z_p(x, -eps*a_j)
    rho_I(x, a_j), plus eps*S0, S0 the load at t = 0 or None, eps being
    op's kappa; zp is the past data sampled by sample_past, whose column 0
    is not read.  This is the t = 0 instance of the stepping solve: the
    age-zero node of the quadrature is anchored at the unknown itself (the
    value of z(t - eps*a) at the t = 0, a = 0 corner is a free convention;
    matching the stepping operator avoids a spurious first-step layer in
    the stability functional).
    """
    integral = delay_quadrature(agrid.w[1:], rho_I[:, 1:], zp[:, 1:])
    eps_f = None if S0 is None else op.kappa * S0
    return op.solve(rho_I @ agrid.w - agrid.w[0] * rho_I[:, 0], integral, eps_f, clamped=True)

