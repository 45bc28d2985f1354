"""Direct solution of (c(x) I - kappa * Lap_h) z = rhs with Dirichlet data.

One tridiagonal kernel serves the position solve, the velocity solve, the
implicit limit stepper and the large-time profile.  The operator acts on
interior nodes; boundary values are identically zero.  Several independent
systems on one grid solve in one call, as the rows of a stack.

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

import functools
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


def solve(c, kappa, rhs, grid, clamped=False):
    """Solve (c I - kappa Lap_h) z = rhs; returns the full field with zero boundaries.

    c is the coefficient on interior nodes (scalar or length-nx array),
    kappa >= 0 the diffusion weight, rhs lives on interior nodes.  The main
    diagonal is c_i + 2 kappa/dx^2, both off-diagonals -kappa/dx^2; negative
    c or kappa, or both vanishing, raise DegenerateOperator.  clamped says
    that the caller has clamped c at 0, and skips its sign check.  LAPACK
    gtsv does the work (the system is diagonally dominant, so its pivoted
    elimination is effectively the Thomas algorithm); a single node is one
    division, because gtsv rejects empty off-diagonals.  A singular operator
    raises DegenerateOperator, and so does a residual above
    1e-10 * ||rhs||_inf.

    An rhs of shape (rows, nx) is that many systems, with c of the same
    shape (or broadcasting to it) and kappa a scalar or one weight per row
    (shape (rows, 1)); z then has shape (rows, nx+2).  They are solved as
    one block-diagonal system: the off-diagonal is 0 at each join, so gtsv
    eliminates nothing across it and each block gets the bits of a call of
    its own (up to the sign of an exact zero, and a block that is not
    finite spreads to the others).  Each block's residual is checked
    against its own ||rhs||_inf.
    """
    nx, dx = grid.nx, grid.dx
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1:] != (nx,) or rhs.ndim > 2:
        raise ValueError(f"rhs shape {rhs.shape} != ({nx},) or (rows, {nx})")
    rows = rhs.reshape(-1, nx)
    c = np.asarray(c, dtype=float)
    if not clamped and c.min() < 0:
        raise DegenerateOperator(f"negative coefficient: min c = {c.min():g}")
    weights = (kappa,) if isinstance(kappa, float) else tuple(np.ravel(kappa).tolist())
    if min(weights) < 0:
        raise DegenerateOperator("negative diffusion weight")
    k, two_k, off = _weights(rows.shape, dx, weights)
    if 0.0 in weights and not (np.broadcast_to(c, rows.shape).any(axis=1) | (k[:, 0] > 0.0)).all():
        raise DegenerateOperator("c == 0 and kappa == 0")
    main = c + two_k
    if main.size == 1:
        if main[0, 0] == 0.0:
            raise DegenerateOperator("singular tridiagonal operator")
        zi = rows / main
    else:
        _, _, _, zi, info = dgtsv(off, main.ravel(), off, rows.ravel())
        if info > 0:
            raise DegenerateOperator(f"singular tridiagonal operator (gtsv info={info})")
        zi = zi.reshape(rows.shape)
    z = np.zeros((rows.shape[0], nx + 2))
    z[:, 1:-1] = zi
    # the residual, read off the zero-padded z, and rhs, both in absolute value: one reduction per row
    r = np.empty((2, *rows.shape))
    res = np.multiply(main, zi, out=r[0])
    near = z[:, :-2] + z[:, 2:]
    near *= k
    res -= near
    res -= rows
    r[1] = rows
    for worst, scale in zip(*np.abs(r, out=r).max(axis=2).tolist()):
        if worst > 1e-10 * max(scale, 1e-300):
            raise DegenerateOperator("tridiagonal solve residual too large")
    return z if rhs.ndim == 2 else z[0]


@functools.lru_cache(maxsize=16)
def _weights(shape, dx, weights):
    """k = kappa/dx^2 and 2k at every node of the stacked systems, and both off-diagonals: -k, and 0 at each join."""
    k = np.empty(shape)
    k[...] = np.array(weights).reshape(-1, 1) / dx**2
    off = -k
    off[:, -1] = 0.0
    arrays = k, 2.0 * k, off.ravel()[:-1]
    for a in arrays:
        a.flags.writeable = False
    return arrays
