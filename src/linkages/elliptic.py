"""Direct solution of (c(x) I - kappa * Lap_h) z = rhs with Dirichlet data.

One tridiagonal kernel serves the position solve, the velocity solve, the
implicit limit stepper and the large-time profile.  The operator acts on
interior nodes; boundary values are identically zero.
"""

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateOperator


def solve(c, kappa, rhs, grid):
    """Solve (c I - kappa Lap_h) z = rhs; returns the full field with zero boundaries.

    c is the coefficient on interior nodes (scalar or length-nx array),
    kappa >= 0 the diffusion weight, rhs lives on interior nodes.  The main
    diagonal is c_i + 2 kappa/dx^2, both off-diagonals -kappa/dx^2; negative
    c or kappa, or both vanishing, raise DegenerateOperator.  LAPACK gtsv
    does the work (the system is diagonally dominant, so its pivoted
    elimination is effectively the Thomas algorithm); a single node is one
    division, because gtsv rejects empty off-diagonals.  A singular operator
    raises DegenerateOperator, and so does a residual above
    1e-10 * ||rhs||_inf.
    """
    nx, dx = grid.nx, grid.dx
    c = np.asarray(c, dtype=float)
    if c.shape != (nx,):
        c = np.broadcast_to(c, (nx,))
    if c.min() < 0:
        raise DegenerateOperator(f"negative coefficient: min c = {c.min():g}")
    if kappa < 0:
        raise DegenerateOperator("negative diffusion weight")
    if kappa == 0.0 and not c.any():
        raise DegenerateOperator("c == 0 and kappa == 0")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (nx,):
        raise ValueError(f"rhs shape {rhs.shape} != ({nx},)")
    k = kappa / dx**2
    main = c + 2.0 * k
    if nx == 1:
        if main[0] == 0.0:
            raise DegenerateOperator("singular tridiagonal operator")
        zi = rhs / main
    else:
        off = np.full(nx - 1, -k)  # both off-diagonals: dgtsv copies its inputs
        _, _, _, zi, info = dgtsv(off, main, off, rhs)
        if info > 0:
            raise DegenerateOperator(f"singular tridiagonal operator (gtsv info={info})")
    z = np.zeros(nx + 2)
    z[1:-1] = zi
    scale = max(float(np.abs(rhs).max()), 1e-300)
    r = main * zi
    r[1:] -= k * zi[:-1]
    r[:-1] -= k * zi[1:]
    r -= rhs
    if np.abs(r, out=r).max() > 1e-10 * scale:
        raise DegenerateOperator("tridiagonal solve residual too large")
    return z
