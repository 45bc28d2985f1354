"""Zero-scale limit equation mu10 dz/dt = Lap z (+ S) with Dirichlet data.

Used as the convergence target for the delay model.  Implicit Euler on the
output time grid; unconditionally stable, discrete maximum principle and L2
contraction hold exactly (M-matrix).
"""

from dataclasses import dataclass

import numpy as np

from . import elliptic
from .errors import DegenerateFriction

MU_FLOOR = 1e-12


@dataclass
class LimitState:
    z0: np.ndarray
    mu10: np.ndarray  # friction coefficient per space node
    t: float


def step_limit(state, dt, sgrid, source=None):
    """One implicit Euler step: (mu10/dt - Lap_h) z_new = (mu10/dt) z_old + S.

    Where the friction degenerates everywhere (mu10 <= floor) the step solves
    the steady problem -Lap z = S instead; a partial degeneracy is an error.
    """
    mu = np.asarray(state.mu10, dtype=float)
    mu_i = mu[1:-1] if mu.ndim and mu.size == sgrid.n_nodes else np.broadcast_to(mu, (sgrid.nx,))
    S = np.asarray(source)[1:-1] if source is not None else np.zeros(sgrid.nx)
    if np.all(mu_i <= MU_FLOOR):
        if source is None:
            z_new = np.zeros(sgrid.n_nodes)
        else:
            op = elliptic.assemble(np.zeros(sgrid.nx), 1.0, sgrid)
            z_new = elliptic.solve(op, S)
        return LimitState(z0=z_new, mu10=state.mu10, t=state.t + dt)
    if np.any(mu_i <= MU_FLOOR):
        raise DegenerateFriction("friction coefficient below floor on part of the domain")
    op = elliptic.assemble(mu_i / dt, 1.0, sgrid)
    z_new = elliptic.solve(op, (mu_i / dt) * state.z0[1:-1] + S)
    return LimitState(z0=z_new, mu10=state.mu10, t=state.t + dt)
