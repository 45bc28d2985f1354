"""Assembly and direct solution of (c(x) I - kappa * Lap_h) with Dirichlet data.

One tridiagonal kernel serves the position solve, the velocity solve and the
implicit limit stepper.  The operator acts on interior nodes; boundary values
are identically zero.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

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
    c = np.broadcast_to(np.asarray(c, dtype=float), (nx,)).copy()
    if np.min(c) < 0:
        raise DegenerateOperator(f"negative coefficient: min c = {np.min(c):g}")
    if kappa < 0:
        raise DegenerateOperator("negative diffusion weight")
    if kappa == 0.0 and np.all(c == 0.0):
        raise DegenerateOperator("c == 0 and kappa == 0")
    k = kappa / dx**2
    return TridiagonalOperator(lower=np.full(nx, -k), main=c + 2.0 * k, upper=np.full(nx, -k))


def solve(op, rhs):
    """Direct tridiagonal solve; returns the full field with zero boundaries.

    rhs lives on interior nodes.  The residual is checked against
    1e-10 * ||rhs||_inf (the system is diagonally dominant, so the banded
    LU is effectively the Thomas algorithm).
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (op.n,):
        raise ValueError(f"rhs shape {rhs.shape} != ({op.n},)")
    ab = np.zeros((3, op.n))
    ab[0, 1:] = op.upper[:-1]
    ab[1, :] = op.main
    ab[2, :-1] = op.lower[1:]
    zi = solve_banded((1, 1), ab, rhs, check_finite=False)
    z = np.zeros(op.n + 2)
    z[1:-1] = zi
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    if np.max(np.abs(op.apply(z) - rhs)) > 1e-10 * scale:
        raise DegenerateOperator("tridiagonal solve residual too large")
    return z


def laplacian(z, dx):
    """Standard 3-point discrete Laplacian on interior nodes."""
    return (z[2:] - 2.0 * z[1:-1] + z[:-2]) / dx**2
