"""Zero-scale limit equation mu10 dz/dt = Lap z (+ S) with Dirichlet data.

Used as the convergence target for the delay model.  Implicit Euler on the
output time grid; unconditionally stable, discrete maximum principle and L2
contraction hold exactly (M-matrix).
"""

import numpy as np

from .errors import DegenerateFriction

MU_FLOOR = 1e-12


def step_limit(z, mu10, dt, op, source=None):
    """One implicit Euler step: (mu10/dt - Lap_h) z_new = (mu10/dt) z + S, solved on op (elliptic.Operator, kappa = 1).

    mu10 is the friction coefficient per space node (or a scalar).  Where it
    degenerates everywhere (mu10 <= floor) the step solves the steady
    problem -Lap z = S instead; a partial degeneracy is an error.
    """
    mu = np.broadcast_to(np.asarray(mu10, dtype=float), z.shape)
    if np.all(mu[1:-1] <= MU_FLOOR):
        return np.zeros(z.shape) if source is None else op.solve(np.zeros(z.shape), source)
    if np.any(mu[1:-1] <= MU_FLOOR):
        raise DegenerateFriction("friction coefficient below floor on part of the domain")
    c = mu / dt
    return op.solve(c, c * z, source)
