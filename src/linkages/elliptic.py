"""Direct solution of (c(x) I - kappa * Lap_h) z = rhs with Dirichlet data.

One tridiagonal kernel serves the position solve, the velocity solve, the
implicit limit stepper and the large-time profile.  A run prepares its
Operator once (config.Inputs.balance; the limit stepper its own, kappa =
1): it checks kappa and forms the off-diagonals, and owns the buffers every
solve writes.  The system is posed on the full grid, the Dirichlet nodes
identity rows, so z comes out of gtsv with its zero boundary.  Several
independent systems on one grid solve in one call, as the rows of a stack.
solve poses a system on the interior nodes alone for a single call.

The kernel is LAPACK gtsv from scipy's own Fortran extension,
scipy.linalg._flapack, loaded from its file under its real name.  Importing
scipy.linalg instead would run that package's init, which loads numpy.f2py,
numpy.testing, numpy.random and numpy.ma: 0.19-0.27 s of a 0.28-0.45 s
`import linkages` under python -X importtime (scipy 1.17, numpy 2.4), more
than the whole detachment march, paid by every CLI call.  Loaded this way
the extension is the one scipy.linalg loads, so scipy.linalg.lapack.dgtsv
is this dgtsv once both are imported.  Nothing on the import path of
linkages may import scipy.linalg; a test runs the import in a fresh
process and pins that.
"""

import importlib.machinery
import importlib.util
import os

import numpy as np
import scipy

from .errors import DegenerateOperator


def _flapack():
    """scipy.linalg._flapack, executed from its file without scipy.linalg's package init."""
    base = os.path.join(scipy.__path__[0], "linalg", "_flapack")
    paths = [base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.exists(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension is missing: none of {paths} exists")
    name = "scipy.linalg._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


dgtsv = _flapack().dgtsv


class Operator:
    """(c I - kappa Lap_h) on the full grid, prepared once per run for one system or a stack of rows.

    kappa, a scalar or one weight per row (shape (rows, 1)), is checked
    here (a negative one raises DegenerateOperator), and k = kappa/dx^2,
    2k and both off-diagonals are formed once.  Each Dirichlet node is an
    identity row with a zero off-diagonal on both sides, so the rows of a
    stack are blocks that gtsv eliminates nothing across, and its output
    is z itself, zero at those nodes.  The operator owns the buffers every
    solve writes: the main diagonal, the right-hand side beside the
    residual (one (2, rows, nx+2) array, reduced in one pass) and the
    neighbour sums of the residual.
    """

    def __init__(self, kappa, grid):
        self.kappa, weights = kappa, np.reshape(kappa, (-1, 1))
        if weights.min() < 0:
            raise DegenerateOperator("negative diffusion weight")
        rows, n = weights.shape[0], grid.nx + 2
        k, off = np.zeros((2, rows, n))
        k[:, 1:-1] = weights / grid.dx**2
        off[:, 1:-2] = -k[:, 1:-2]  # 0 wherever a Dirichlet node is on either side
        self.k, self.two_k, self.off = k.ravel(), 2.0 * k.ravel(), off.ravel()[:-1]
        self.still = np.flatnonzero(weights == 0.0)  # the rows without diffusion
        self.main, self.r, self.near = np.empty(rows * n), np.empty((2, rows, n)), np.zeros(rows * n)
        self.res, self.rhs = self.r[0].ravel(), self.r[1].ravel()
        # the Dirichlet columns of main and rhs, and the nodes of near that have two neighbours
        self.main_ends, self.rhs_ends = self.main.reshape(rows, n)[:, :: n - 1], self.r[1, :, :: n - 1]
        self.inner = self.near[1:-1]

    def solve(self, c, b, f=None, clamped=False):
        """z with (c I - kappa Lap_h) z = b + f at the interior nodes, 0 at the Dirichlet nodes.

        c, b and f (or None) are full-grid values of one shape, (nx+2,) or
        (rows, nx+2), which z has too.  Negative c raises
        DegenerateOperator; clamped says that c is a population, which
        is clamped at 0 after a check at -1e-12 (below it is a kinetics
        bug).  So do c == 0 on a row with kappa == 0, a singular
        operator (gtsv info > 0) and a residual above 1e-10 ||rhs||_inf
        on any row.  LAPACK gtsv does the work (the system is diagonally
        dominant, so its pivoted elimination is effectively the Thomas
        algorithm).  Each row of a stack gets the bits of a solve of its
        own; a row that is not finite spreads to the others.
        """
        lo = c.min()
        if lo < (-1e-12 if clamped else 0.0):
            what = f"population coefficient {lo:g}: kinetics bug" if clamped else f"coefficient: min c = {lo:g}"
            raise DegenerateOperator(f"negative {what}")
        main, rhs = self.main, self.rhs
        np.maximum(c.ravel(), 0.0, out=main)
        main += self.two_k
        if f is None:
            np.copyto(rhs, b.ravel())
        else:
            np.add(b.ravel(), f.ravel(), out=rhs)
        self.main_ends.fill(1.0)
        self.rhs_ends.fill(0.0)
        if self.still.size and not main.reshape(self.r.shape[1:])[self.still, 1:-1].any(axis=1).all():
            raise DegenerateOperator("c == 0 and kappa == 0")
        _, _, _, z, info = dgtsv(self.off, main, self.off, rhs)
        if info > 0:
            raise DegenerateOperator(f"singular tridiagonal operator (gtsv info={info})")
        # the residual and rhs, both in absolute value: one reduction per row
        res = np.multiply(main, z, out=self.res)
        np.add(z[:-2], z[2:], out=self.inner)
        self.near *= self.k
        res -= self.near
        res -= rhs
        for worst, scale in zip(*np.abs(self.r, out=self.r).max(axis=2).tolist()):
            if worst > 1e-10 * max(scale, 1e-300):
                raise DegenerateOperator("tridiagonal solve residual too large")
        return z.reshape(b.shape)


def solve(c, kappa, rhs, grid, clamped=False):
    """Solve (c I - kappa Lap_h) z = rhs posed on the interior nodes, as an Operator of the zero-padded system.

    c is a scalar or the coefficient on the interior nodes and rhs has
    shape (nx,), or (rows, nx) with c broadcasting to it and kappa a
    scalar or one weight per row (shape (rows, 1)); z is the full field,
    one row per system.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1:] != (grid.nx,) or rhs.ndim > 2:
        raise ValueError(f"rhs shape {rhs.shape} != ({grid.nx},) or (rows, {grid.nx})")
    full = np.zeros((2, *rhs.shape[:-1], grid.nx + 2))
    full[0, ..., 1:-1], full[1, ..., 1:-1] = c, rhs
    weights = np.broadcast_to(np.reshape(kappa, (-1, 1)), (rhs.size // grid.nx, 1))
    return Operator(weights, grid).solve(full[0], full[1], clamped=clamped)
