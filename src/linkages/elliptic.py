"""Assembly and direct solution of (c(x) I - kappa * Lap_h) with Dirichlet data.

One tridiagonal kernel serves the position solve, the velocity solve and the
implicit limit stepper.  The operator acts on interior nodes; boundary values
are identically zero.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import DegenerateOperator


@dataclass(frozen=True)
class TridiagonalOperator:
    lower: np.ndarray
    main: np.ndarray
    upper: np.ndarray

    @property
    def n(self):
        return self.main.size

    def apply(self, z):
        """Operator times a full field (including its zero boundary values)."""
        zi = z[1:-1]
        out = self.main * zi
        out[1:] += self.lower[1:] * zi[:-1]
        out[:-1] += self.upper[:-1] * zi[1:]
        return out


def assemble(c, kappa, grid):
    """Operator with main diagonal c_i + 2 kappa/dx^2, off-diagonals -kappa/dx^2.

    c is the coefficient on interior nodes (scalar or length-nx array),
    kappa >= 0 the diffusion weight.  Degenerate when both vanish.
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
    k = kappa / dx**2
    off = np.full(nx, -k)  # one array for both: apply reads it, dgtsv copies it
    return TridiagonalOperator(lower=off, main=c + 2.0 * k, upper=off)


def solve(op, rhs):
    """Direct tridiagonal solve; returns the full field with zero boundaries.

    rhs lives on interior nodes.  LAPACK gtsv does the work (the system is
    diagonally dominant, so its pivoted elimination is effectively the
    Thomas algorithm); a single node is one division, because gtsv rejects
    empty off-diagonals.  A singular operator raises DegenerateOperator, and
    so does a residual above 1e-10 * ||rhs||_inf.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs shape {rhs.shape} != ({op.n},)")
    if op.n == 1:
        if op.main[0] == 0.0:
            raise DegenerateOperator("singular tridiagonal operator")
        zi = rhs / op.main
    else:
        _, _, _, zi, info = dgtsv(op.lower[1:], op.main, op.upper[:-1], rhs)
        if info > 0:
            raise DegenerateOperator(f"singular tridiagonal operator (gtsv info={info})")
    z = np.zeros(op.n + 2)
    z[1:-1] = zi
    scale = max(float(np.abs(rhs).max()), 1e-300)
    r = op.apply(z)
    r -= rhs
    if np.abs(r, out=r).max() > 1e-10 * scale:
        raise DegenerateOperator("tridiagonal solve residual too large")
    return z


def laplacian(z, dx):
    """Standard 3-point discrete Laplacian on interior nodes."""
    return (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dx**2
